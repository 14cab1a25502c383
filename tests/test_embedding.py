"""Variable-free translation, gadget models, and the two model surgeries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from pdlkit.embedding import (
    EmbeddingError,
    attach_gadgets,
    build_context,
    embed,
    gadget_model,
    ground,
    hat,
    marker_formula_A,
    marker_formula_B,
    nested_chains,
    prime,
    prune_to_marked,
    theta,
)
from pdlkit.fuzzing import random_formula
from pdlkit.semantics import KripkeModel, check, random_model, truth_set
from pdlkit.syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
    Implies,
    Seq,
    Star,
    Test,
    Var,
    conj,
    diamond,
    metrics,
    normalize_variables,
    parse_formula,
    substitute,
    validate,
)

from _strategies import dialect_formulas, scenario

PDL, IPDL, PRSPDL = Dialect.PDL, Dialect.IPDL, Dialect.PRSPDL


# --- contexts ---


def test_build_context_examples():
    ctx = build_context(parse_formula("[a1]p1", PDL), PDL)
    assert (ctx.n, ctx.l, ctx.b) == (1, 1, 1)
    assert ctx.gamma == Atomic(1)
    assert ctx.marker == Var(2)

    ctx = build_context(FALSUM, PDL)  # no atoms: l repaired to 1
    assert (ctx.n, ctx.l, ctx.b) == (0, 1, 1)
    assert ctx.gamma == Atomic(1) and ctx.marker == Var(1)

    ctx = build_context(parse_formula("[a2][a3]p1", IPDL), IPDL)
    assert (ctx.n, ctx.l, ctx.b) == (1, 3, 2)
    assert ctx.gamma == Choice(Atomic(1), Choice(Atomic(2), Atomic(3)))

    ctx = build_context(parse_formula("[a1 || a2]p1", PRSPDL), PRSPDL)
    assert ctx.gamma is None and ctx.dialect is PRSPDL


# --- prime ---


def test_prime_examples():
    ctx = build_context(parse_formula("[a1]p1", PDL), PDL)
    assert prime(parse_formula("[a1]p1", PDL), ctx) == Box(
        Atomic(1), Implies(Var(2), Var(1))
    )
    assert prime(FALSUM, ctx) == FALSUM
    assert prime(Implies(Var(1), Var(1)), ctx) == Implies(Var(1), Var(1))

    ictx = build_context(parse_formula("[p1?]false", IPDL), IPDL)
    assert prime(parse_formula("[p1?]false", IPDL), ictx) == Box(
        Test(Var(1)), Implies(Var(2), FALSUM)
    )


def test_prime_rejects_out_of_range():
    ctx = build_context(Var(1), PDL)
    with pytest.raises(EmbeddingError):
        prime(Var(2), ctx)
    with pytest.raises(EmbeddingError):
        prime(Box(Atomic(3), Var(1)), ctx)


# --- theta ---


def test_theta_with_choice():
    phi = parse_formula("[a1]p1", PDL)
    ctx = build_context(phi, PDL)
    propagate = Box(Star(Atomic(1)), Implies(diamond(Atomic(1), Var(2)), Var(2)))
    assert theta(ctx, phi) == conj(Var(2), propagate)


def test_theta_prspdl_chains():
    phi = parse_formula("[a1][a2]false", PRSPDL)
    ctx = build_context(phi, PRSPDL)
    expected = conj(
        Var(1), Box(Atomic(1), Implies(diamond(Atomic(2), Var(1)), Var(1)))
    )
    assert theta(ctx, phi) == expected

    assert theta(build_context(FALSUM, PRSPDL), FALSUM) == Var(1)
    boxless = parse_formula("p1 -> false", PRSPDL)
    assert theta(build_context(boxless, PRSPDL), boxless) == Var(2)


def test_nested_chains():
    assert nested_chains(parse_formula("[a1][a2]false", PRSPDL)) == [
        [Atomic(1), Atomic(2)]
    ]
    branching = parse_formula("[a1]false -> [a2][a3]false", PRSPDL)
    assert nested_chains(branching) == [[Atomic(1)], [Atomic(2), Atomic(3)]]
    # boxes inside a test start chains of their own
    phi = parse_formula("[([a2]false)?;a1]false", PRSPDL)
    prog = Seq(Test(Box(Atomic(2), FALSUM)), Atomic(1))
    assert nested_chains(phi) == [[prog], [Atomic(2)]]


def test_hat_composes_theta_and_prime():
    ctx = build_context(FALSUM, PDL)
    propagate = Box(Star(Atomic(1)), Implies(diamond(Atomic(1), Var(1)), Var(1)))
    assert hat(FALSUM, ctx) == conj(conj(Var(1), propagate), FALSUM)


# --- gadgets ---


def test_gadget_model_examples():
    g1 = gadget_model(1, 1)
    assert g1.num_states == 3
    assert g1.relations == {1: frozenset({(0, 1), (1, 1), (0, 2)})}
    assert g1.valuation == {} and g1.star is None

    g2 = gadget_model(2, 1)
    assert g2.num_states == 4
    assert g2.relations == {1: frozenset({(0, 1), (1, 1), (0, 2), (2, 3), (0, 3)})}

    g3 = gadget_model(3, 2)
    assert g3.num_states == 5
    assert 1 not in g3.relations
    assert {(2, 3), (3, 4), (2, 4)} <= g3.relations[2]

    with pytest.raises(EmbeddingError):
        gadget_model(0, 1)
    with pytest.raises(EmbeddingError, match="atom index must be >= 1"):
        gadget_model(1, 0)


def test_root_detector_identifies_gadget_and_root():
    for k in range(1, 4):
        model = gadget_model(k, 1)
        for m in range(1, 4):
            for x in model.states:
                expected = k == m and x == 0
                assert check(model, x, marker_formula_A(m, 1), PDL) is expected


def test_gadget_states_never_see_a_root():
    # no state inside a gadget has an edge back to any root
    for k in range(1, 4):
        model = gadget_model(k, 1)
        for m in range(1, 4):
            assert truth_set(model, marker_formula_B(m, 1), PDL) == frozenset()


def test_root_edge_turns_b_on():
    shifted = {(1 + s, 1 + t) for s, t in gadget_model(1, 1).relations[1]}
    model = KripkeModel(4, {1: shifted | {(0, 1)}})
    assert check(model, 0, marker_formula_B(1, 1), PDL) is True
    assert check(model, 0, marker_formula_B(2, 1), PDL) is False


def test_marker_formula_sizes():
    sizes = [metrics(marker_formula_A(m, 1)).size for m in range(1, 6)]
    assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1  # linear growth
    assert metrics(marker_formula_B(3, 1)).variables == frozenset()
    assert metrics(marker_formula_B(3, 2)).atoms == {2}


def test_marker_formulas_are_built_once():
    assert marker_formula_A(3, 2) is marker_formula_A(3, 2)
    assert marker_formula_B(3, 2) is marker_formula_B(3, 2)
    ctx = build_context(Var(1), PDL)
    assert ground(Var(2), ctx) is ground(Var(2), ctx) is marker_formula_B(2, 1)
    for _ in range(2):  # a rejected index is rejected again, not cached
        with pytest.raises(EmbeddingError):
            marker_formula_A(0, 1)
        with pytest.raises(EmbeddingError):
            marker_formula_B(0, 1)


# --- grounding and the pipeline ---


def test_ground_examples():
    ctx = build_context(FALSUM, PDL)  # n=0, marker p1
    assert ground(Var(1), ctx) == marker_formula_B(1, 1)

    ictx = build_context(parse_formula("[p1?]p1", IPDL), IPDL)  # n=1
    grounded = ground(Implies(Var(1), Box(Test(Var(2)), FALSUM)), ictx)
    b1, b2 = marker_formula_B(1, 1), marker_formula_B(2, 1)
    assert grounded == Implies(b1, Box(Test(b2), FALSUM))

    with pytest.raises(EmbeddingError):
        ground(Var(3), ictx)


def test_embed_examples():
    for text, dialect in [
        ("false", PDL),
        ("[a1](p1 -> [a2]p2)", IPDL),
        ("<a1 || a2>p1", PRSPDL),
        ("[(p1?;a1)*]p1", IPDL),
        ("[r1;(p1?)]<s2>p2", PRSPDL),
    ]:
        phi = parse_formula(text, dialect)
        out = embed(phi, dialect)
        assert metrics(out).variables == frozenset()
        validate(out, dialect)
    assert embed(Var(7), PDL) == embed(Var(1), PDL)  # normalization first


# --- pruning ---


def test_prune_keeps_marked_reachable_part():
    ctx = build_context(parse_formula("[a1]p1", PDL), PDL)  # gamma=a1, marker p2
    model = KripkeModel(3, {1: {(0, 1)}}, {1: {1}, 2: {0, 1, 2}})
    pruned, remap = prune_to_marked(model, 0, ctx)
    assert remap == {0: 0, 1: 1}
    assert pruned.num_states == 2
    assert pruned.relations == {1: frozenset({(0, 1)})}
    assert pruned.valuation == {1: frozenset({1}), 2: frozenset({0, 1})}


def test_prune_stops_at_unmarked_states():
    ctx = build_context(Var(1), PDL)  # n=1, gamma=a1, marker p2
    model = KripkeModel(2, {1: {(0, 1)}}, {1: {0}, 2: {0}})
    pruned, remap = prune_to_marked(model, 0, ctx)
    assert pruned.num_states == 1 and remap == {0: 0}
    assert pruned.relations == {}
    assert pruned.valuation == {1: frozenset({0}), 2: frozenset({0})}


def test_prune_contract_errors():
    ctx = build_context(Var(1), PDL)
    model = KripkeModel(2, {}, {2: {1}})
    with pytest.raises(EmbeddingError):
        prune_to_marked(model, 0, ctx)  # marker fails at s0
    with pytest.raises(EmbeddingError):
        prune_to_marked(model, 5, ctx)
    pctx = build_context(parse_formula("[a1 || a2]p1", PRSPDL), PRSPDL)
    with pytest.raises(EmbeddingError):
        prune_to_marked(model, 1, pctx)


def test_prune_preserves_formula_at_witness():
    # whenever hat(phi) holds somewhere, the marked core still satisfies phi
    rng = random.Random(2026)
    hits = 0
    for _ in range(300):
        dialect = rng.choice([PDL, IPDL])
        phi = random_formula(rng, dialect, max_size=7, max_vars=2, max_atoms=2)
        normalized, _, _ = normalize_variables(phi)
        ctx = build_context(normalized, dialect)
        model = random_model(
            4,
            range(1, ctx.l + 1),
            range(1, ctx.n + 2),
            0.5,
            seed=rng.randrange(10**9),
        )
        for s0 in sorted(truth_set(model, hat(normalized, ctx), dialect)):
            pruned, remap = prune_to_marked(model, s0, ctx)
            assert truth_set(pruned, ctx.marker, dialect) == frozenset(pruned.states)
            assert check(pruned, remap[s0], normalized, dialect) is True
            hits += 1
            break
    assert hits >= 30


# --- gadget attachment ---


def test_attach_example_counts_and_truth():
    ctx = build_context(Var(1), PDL)  # n=1, l=1, b=1
    witness = KripkeModel(1, {}, {1: {0}, 2: {0}})
    extended = attach_gadgets(witness, ctx)
    assert extended.num_states == 1 + 3 + 4  # original + gadget 1 + gadget 2
    assert {(s, t) for s, t in extended.relations[1] if s == 0} == {(0, 1), (0, 4)}
    assert check(extended, 0, embed(Var(1), PDL), PDL) is True


def test_attach_wires_blank_states_to_marker_gadget_only():
    ctx = build_context(Var(1), PDL)
    witness = KripkeModel(1, {}, {2: {0}})  # p1 nowhere
    extended = attach_gadgets(witness, ctx)
    assert {(s, t) for s, t in extended.relations[1] if s == 0} == {(0, 4)}
    assert check(extended, 0, marker_formula_B(2, 1), PDL) is True
    assert check(extended, 0, marker_formula_B(1, 1), PDL) is False


def test_attach_requires_universal_marker():
    ctx = build_context(Var(1), PDL)
    with pytest.raises(EmbeddingError):
        attach_gadgets(KripkeModel(2, {}, {2: {0}}), ctx)


def test_attach_passes_star_through():
    phi = parse_formula("<a1 || a1>p1", PRSPDL)
    normalized, _, _ = normalize_variables(phi)
    ctx = build_context(normalized, PRSPDL)
    witness = KripkeModel(2, {1: {(0, 1)}}, {1: {0}, 2: {0, 1}}, star={(0, 1): {0}})
    extended = attach_gadgets(witness, ctx)
    assert extended.num_states == 2 + 3 + 4
    assert extended.star == {(0, 1): frozenset({0})}
    assert witness.relations[1] <= extended.relations[1]


# --- properties ---


@settings(max_examples=150, deadline=None)
@given(scenario())
def test_hat_collapses_under_true_marker(case):
    dialect, model, phi = case
    ctx = build_context(phi, dialect)
    collapsed = substitute(hat(phi, ctx), ctx.n + 1, TOP)
    assert truth_set(model, collapsed, dialect) == truth_set(model, phi, dialect)


@settings(max_examples=100, deadline=None)
@given(dialect_formulas())
def test_embed_output_variable_free_and_valid(pair):
    dialect, phi = pair
    out = embed(phi, dialect)
    assert metrics(out).variables == frozenset()
    validate(out, dialect)
