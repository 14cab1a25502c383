"""Model construction, program relations, checking, enumeration, and JSON I/O."""

from __future__ import annotations

import itertools
import os
import re
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdlkit
from pdlkit import bitslice, semantics
from pdlkit.decision import bounded_sat
from pdlkit.embedding import gadget_model
from pdlkit.fuzzing import formula_corpus
from pdlkit.semantics import (
    EnumerationLimitError,
    KripkeModel,
    MissingStarError,
    ModelError,
    check,
    enumerate_models,
    model_from_json,
    model_to_json,
    random_model,
    relation_of,
    rtc_matrix,
    rtc_worklist,
    truth_set,
)
from pdlkit.syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
    DialectError,
    Implies,
    Inter,
    Par,
    Seq,
    Special,
    Star,
    Test,
    Var,
    conj,
    diamond,
    disj,
    iter_nodes,
    neg,
    parse_formula,
    parse_program,
    substitute,
    validate,
)

import _reference
from _strategies import formulas, models, pair_sets, programs, scenario

PDL, IPDL, PRSPDL = Dialect.PDL, Dialect.IPDL, Dialect.PRSPDL


# --- construction and validation ---


def test_model_normalization():
    m = KripkeModel(2, {1: {(0, 1)}, 2: set()}, {1: {1}, 2: set()})
    assert m.relations == {1: frozenset({(0, 1)})}
    assert m.valuation == {1: frozenset({1})}
    assert m.star is None
    assert list(m.states) == [0, 1]


def test_model_rejects_bad_shapes():
    with pytest.raises(ModelError):
        KripkeModel(0)
    with pytest.raises(ModelError):
        KripkeModel(2, {0: {(0, 1)}})
    with pytest.raises(ModelError):
        KripkeModel(2, {1: {(0, 2)}})
    with pytest.raises(ModelError):
        KripkeModel(2, {}, {1: {5}})
    with pytest.raises(ModelError):
        KripkeModel(2, {}, {0: {1}})
    with pytest.raises(ModelError):
        KripkeModel(2, star={(0, 3): {1}})
    with pytest.raises(ModelError):
        KripkeModel(2, star={(0, 0): {7}})


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 4), st.booleans()).flatmap(lambda t: models(*t)))
def test_model_is_rebuilt_from_its_views(m):
    rebuilt = KripkeModel(m.num_states, m.relations, m.valuation, m.star)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert model_from_json(model_to_json(m)) == m


def test_an_empty_star_function_is_not_a_missing_one():
    par = Par(Atomic(1), Atomic(1))
    with_star, without = KripkeModel(2, star={}), KripkeModel(2)
    assert with_star != without
    assert relation_of(with_star, par, PRSPDL) == frozenset()
    with pytest.raises(MissingStarError):
        relation_of(without, par, PRSPDL)


def test_models_are_read_only():
    m = KripkeModel(2, {1: {(0, 1)}}, {1: {1}})
    for name in ("num_states", "rows", "truth", "relations", "valuation", "star"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)


def test_a_large_gadget_is_held_as_masks():
    tracemalloc.start()
    try:
        gadget_model(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# --- closures ---


def test_closure_small_examples():
    assert rtc_matrix([(0, 1)], 2) == {(0, 0), (1, 1), (0, 1)}
    assert rtc_matrix([], 3) == {(0, 0), (1, 1), (2, 2)}
    assert rtc_matrix([(0, 1), (1, 2)], 3) == {
        (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2),
    }


@pytest.mark.parametrize("num_states", [20, 30, 40])
@pytest.mark.parametrize("edge_probability", [0.02, 0.05, 0.1])
def test_star_matches_naive_closure(num_states, edge_probability):
    # from scattered edges through long chains to one strongly connected mass
    seed = num_states * 1000 + round(edge_probability * 100)
    model = random_model(num_states, (1, 2), (), edge_probability, seed)
    for a in (1, 2):
        expected = rtc_worklist(model.relations.get(a, ()), num_states)
        assert relation_of(model, Star(Atomic(a)), Dialect.PDL) == expected


def _closure_shape(shape: str, n: int) -> set[tuple[int, int]]:
    """Edges of a closure shape that random relations rarely produce, over n
    states renamed by a seeded permutation, so that the depth-first search
    meets each component at no particular member first."""
    if shape == "dag of cycles":
        # cycles of four; cycle k leaves from its member k % 4 into the next
        # cycle, and from another member two cycles ahead
        cycles = [list(range(i, min(i + 4, n))) for i in range(0, n, 4)]
        edges = {(c[j], c[(j + 1) % len(c)]) for c in cycles for j in range(len(c))}
        for k, c in enumerate(cycles[:-1]):
            edges.add((c[k % len(c)], cycles[k + 1][0]))
            if k + 2 < len(cycles):
                edges.add((c[(k + 2) % len(c)], cycles[k + 2][-1]))
    elif shape == "self-loops only":
        edges = {(s, s) for s in range(0, n, 2)}
    elif shape == "chain with one back edge":
        edges = {(s, s + 1) for s in range(n - 1)} | {(n - 1, n // 2)}
    else:  # components that reach one shared sink, state 0
        edges = set()
        for start in range(1, n, 3):
            group = list(range(start, min(start + 3, n)))
            edges |= {(group[j], group[(j + 1) % len(group)]) for j in range(len(group))}
            edges.add((group[-1], 0))
    order = list(range(n))
    random.Random(n).shuffle(order)
    return {(order[s], order[t]) for s, t in edges}


# one size below the component search's threshold (the Warshall pass) and
# one above it
@pytest.mark.parametrize("num_states", [semantics._SCC_MIN_STATES - 1, 40])
@pytest.mark.parametrize("shape", [
    "dag of cycles", "self-loops only", "chain with one back edge", "shared sink",
])
def test_star_closure_shapes(shape, num_states):
    edges = _closure_shape(shape, num_states)
    model = KripkeModel(num_states, {1: edges})
    expected = rtc_worklist(edges, num_states)
    assert relation_of(model, Star(Atomic(1)), Dialect.PDL) == expected


def test_star_on_a_long_chain():
    # 25 M steps for an n² pass; the component search takes one per edge,
    # without recursion
    n = 5000
    model = KripkeModel(n, {1: {(s, s + 1) for s in range(n - 1)}}, {1: {n - 1}})
    phi = diamond(Star(Atomic(1)), Var(1))
    assert truth_set(model, phi, Dialect.PDL) == frozenset(range(n))


def test_gadget_relation_is_the_closure_of_its_edges():
    for m in range(1, 7):
        base = {(0, 1), (1, 1), (0, 2)} | {(j, j + 1) for j in range(2, m + 1)}
        # only the hub lies on a cycle, so it keeps its reflexive pair
        expected = rtc_worklist(base, m + 2) - {(s, s) for s in range(m + 2) if s != 1}
        assert gadget_model(m, 1).relations[1] == expected


# --- relation_of ---


def test_star_relation_example():
    m = KripkeModel(2, {1: {(0, 1)}})
    assert relation_of(m, Star(Atomic(1)), PDL) == {(0, 0), (1, 1), (0, 1)}


def test_inter_relation_example():
    m = KripkeModel(2, {1: {(0, 1)}, 2: {(0, 1), (0, 0)}})
    assert relation_of(m, Inter(Atomic(1), Atomic(2)), IPDL) == {(0, 1)}


def test_choice_seq_test_relations():
    m = KripkeModel(3, {1: {(0, 1)}, 2: {(1, 2)}}, {1: {0, 2}})
    assert relation_of(m, Choice(Atomic(1), Atomic(2)), PDL) == {(0, 1), (1, 2)}
    assert relation_of(m, Seq(Atomic(1), Atomic(2)), PDL) == {(0, 2)}
    assert relation_of(m, Test(Var(1)), IPDL) == {(0, 0), (2, 2)}
    assert relation_of(m, Test(FALSUM), IPDL) == frozenset()


def _par_oracle(model, left_rel, right_rel):
    # quadruple enumeration straight off the clause, no sparsity tricks
    star = model.star or {}
    pairs = set()
    for x1, x2, y1, y2 in itertools.product(model.states, repeat=4):
        if (x1, y1) in left_rel and (x2, y2) in right_rel:
            for s in star.get((x1, x2), ()):
                for t in star.get((y1, y2), ()):
                    pairs.add((s, t))
    return frozenset(pairs)


def test_par_relation_example():
    m = KripkeModel(2, {1: {(0, 0)}}, star={(0, 0): {1}})
    expected = _par_oracle(m, m.relations[1], m.relations[1])
    assert expected == {(1, 1)}
    assert relation_of(m, Par(Atomic(1), Atomic(1)), PRSPDL) == {(1, 1)}


def test_special_relation_directions():
    # 2 is composed from 0 and 1
    m = KripkeModel(3, star={(0, 1): {2}})
    assert relation_of(m, Special("r1"), PRSPDL) == {(2, 0)}
    assert relation_of(m, Special("r2"), PRSPDL) == {(2, 1)}
    assert relation_of(m, Special("s1"), PRSPDL) == {(0, 2)}
    assert relation_of(m, Special("s2"), PRSPDL) == {(1, 2)}


def test_missing_star_raises():
    m = KripkeModel(2, {1: {(0, 1)}})
    with pytest.raises(MissingStarError):
        relation_of(m, Par(Atomic(1), Atomic(1)), PRSPDL)
    with pytest.raises(MissingStarError):
        relation_of(m, Special("r1"), PRSPDL)
    with pytest.raises(MissingStarError):
        check(m, 0, Box(Special("s2"), FALSUM), PRSPDL)


# --- check and truth_set ---


def test_check_examples():
    lonely = KripkeModel(1)
    assert check(lonely, 0, FALSUM, PDL) is False
    assert check(lonely, 0, Box(Atomic(1), FALSUM), PDL) is True

    m = KripkeModel(2, {1: {(0, 1)}}, {1: {1}})
    assert check(m, 0, diamond(Atomic(1), Var(1)), PDL) is True
    assert check(m, 1, diamond(Atomic(1), Var(1)), PDL) is False
    assert check(m, 0, Box(Atomic(1), Var(1)), PDL) is True
    assert check(m, 0, Implies(Var(1), FALSUM), PDL) is True


def test_every_evaluation_entry_checks_the_dialect():
    phi = parse_formula("[a1 u a2]p1", PDL)
    with pytest.raises(DialectError) as refused:
        validate(phi, PRSPDL)
    model = KripkeModel(2, {1: {(0, 1)}}, {1: {1}}, {})
    for evaluate in (
        lambda: truth_set(model, phi, PRSPDL),
        lambda: check(model, 0, phi, PRSPDL),
        lambda: relation_of(model, phi.program, PRSPDL),
        lambda: bounded_sat(phi, PRSPDL, 1),
    ):
        with pytest.raises(DialectError, match=re.escape(str(refused.value))):
            evaluate()


def test_check_state_out_of_range():
    with pytest.raises(ModelError):
        check(KripkeModel(1), 1, TOP, PDL)


def test_truth_set_examples():
    m = KripkeModel(3, {}, {1: {0, 2}})
    assert truth_set(m, FALSUM, PDL) == frozenset()
    assert truth_set(m, TOP, PDL) == {0, 1, 2}
    assert truth_set(m, Var(1), PDL) == {0, 2}
    assert truth_set(m, neg(Var(1)), PDL) == {1}
    assert truth_set(m, Var(2), PDL) == frozenset()


def test_box_star_unreachable_states_vacuous():
    m = KripkeModel(3, {1: {(0, 1)}}, {1: {0, 1}})
    # p1 holds on everything a1* reaches from 0 and 1, fails from 2 only via p1 itself
    assert truth_set(m, Box(Star(Atomic(1)), Var(1)), PDL) == {0, 1}


# --- enumeration ---


def test_enumerate_counts():
    with pytest.raises(ModelError):
        next(enumerate_models(0, {1}, (), PDL))
    assert len(list(enumerate_models(1, {1}, (), PDL))) == 2
    assert len(list(enumerate_models(1, (), {1}, PDL))) == 2
    assert len(list(enumerate_models(2, {1}, (), PDL))) == 16


def test_enumerate_order_and_determinism():
    models = list(enumerate_models(2, {1}, {1}, PDL))
    assert models[0].relations == {} and models[0].valuation == {}
    # the last slot varies fastest: first change appears in the valuation
    assert models[1].relations == {} and models[1].valuation == {1: frozenset({1})}
    assert models == list(enumerate_models(2, {1}, {1}, PDL))
    assert len(set(models)) == len(models) == 64


def test_enumerate_star_support():
    models = list(enumerate_models(1, {1}, (), PRSPDL, star_support=[(0, 0)]))
    assert len(models) == 4
    assert all(m.star is not None for m in models)
    assert models[0].star == {} and models[0].relations == {}
    # star bits vary faster than edge bits
    assert models[1].star == {(0, 0): frozenset({0})} and models[1].relations == {}
    assert models[2].star == {} and models[2].relations == {1: frozenset({(0, 0)})}


def _drain(stream):
    models = []
    try:
        for model in stream:
            models.append(model)
    except EnumerationLimitError:
        models.append("limit")
    return models


@pytest.mark.parametrize("dialect", [PDL, IPDL, PRSPDL])
@pytest.mark.parametrize("size, atoms, variables, support", [
    (1, {1, 2}, {2, 1}, ()),
    (1, {1, 2}, {2, 1}, [(0, 0)]),
    (2, {1}, {2, 1}, ()),
    (2, {1}, {1, 2}, [(1, 1), (0, 1)]),
])
def test_enumerate_models_matches_reference(dialect, size, atoms, variables, support):
    for limit in (None, 5, 64):
        got = enumerate_models(size, atoms, variables, dialect, support, limit)
        expected = _reference.enumerate_models(size, atoms, variables, dialect, support, limit)
        assert _drain(got) == _drain(expected)


def test_enumerate_limit():
    gen = enumerate_models(1, {1}, {1}, PDL, limit=3)
    with pytest.raises(EnumerationLimitError):
        list(gen)
    assert len(list(enumerate_models(1, {1}, {1}, PDL, limit=4))) == 4
    capped = enumerate_models(1, {1}, {1}, PDL, limit=2)
    assert len(list(itertools.islice(capped, 2))) == 2  # stop before the cap trips


# --- bit-sliced evaluation ---

# one formula each for ?, intersection, *, || and r1/r2/s1/s2, which a
# random corpus reaches only now and then
_SLICED = {
    PDL: ["[a1*](p1 -> <a1 u a2>p2)", "<a1;a2*>~p1 & [a2*]p2"],
    IPDL: ["[(p1?;a1) & a2]p2", "<(a1 & a2)*>p1", "[p2?]<a1* u a2>~p1"],
    PRSPDL: [
        "<r1>p1 & [r2]~p2", "<s1>p1 -> <s2>~p2", "<a1 || a2>p1",
        "<(a1 || r1)*>~p1", "[p1?;s1](<r2>p2 | <a1*>p1)",
    ],
}


def _chunks(space):
    """(c0, count) chunks to compare: the first, cut short; the second,
    cut short (a cap that is not a multiple of CHUNK); and the last full
    one, whose counters set every high bit."""
    chunk = bitslice.CHUNK
    chunks = [(0, min(space, 700))]
    if space > chunk:
        chunks.append((chunk, min(space - chunk, 300)))
    if space >= 2 * chunk:
        chunks.append((space - chunk, chunk))
    return chunks


@pytest.mark.parametrize("dialect", [PDL, IPDL, PRSPDL])
@pytest.mark.parametrize("forced", [frozenset(), frozenset({2})])
def test_sliced_evaluation_matches_run_per_model(dialect, forced):
    corpus = formula_corpus(5, 8, dialect, 7, 2, 2)
    corpus += [parse_formula(text, dialect) for text in _SLICED[dialect]]
    for phi in corpus:
        plan = semantics._plan(phi, dialect)
        variables = [v for v in plan.variables if v not in forced]
        for size in (1, 2, 3):
            support = None
            if dialect is PRSPDL:
                support = list(itertools.product(range(size), repeat=2))
            layout = semantics._layout(size, plan.atoms, variables, support, forced)
            space = 1 << layout.width
            for c0, count in _chunks(space):
                holds = bitslice.run(plan, bitslice.chunk(layout, c0, count))
                assert len(holds) == size and all(h >> count == 0 for h in holds)
                for k in range(count):
                    expected = semantics._run(plan, semantics._decode(layout, c0 + k))
                    got = sum((h >> k & 1) << s for s, h in enumerate(holds))
                    assert got == expected, (phi, size, c0 + k)


# --- random models ---


def test_random_model_probability_extremes():
    empty = random_model(3, {1, 2}, {1}, 0.0, seed=7)
    assert empty.relations == {} and empty.valuation == {}
    full = random_model(2, {1}, {1}, 1.0, seed=7, star_probability=1.0)
    assert full.relations == {1: frozenset(itertools.product(range(2), repeat=2))}
    assert full.valuation == {1: frozenset({0, 1})}
    assert full.star == {
        (x, y): frozenset({0, 1}) for x in range(2) for y in range(2)
    }
    none_star = random_model(2, {1}, {1}, 1.0, seed=7)
    assert none_star.star is None


def test_random_model_seed_determinism():
    a = random_model(5, {1, 2}, {1, 2}, 0.4, seed=11, star_probability=0.2)
    b = random_model(5, {1, 2}, {1, 2}, 0.4, seed=11, star_probability=0.2)
    assert a == b
    with pytest.raises(ValueError):
        random_model(2, {1}, (), 1.5, seed=0)


# --- JSON round trip ---


def test_json_round_trip_exact():
    m = KripkeModel(3, {1: {(0, 1), (2, 2)}}, {2: {0, 1}}, {(0, 1): {2}, (1, 1): {0}})
    text = model_to_json(m)
    again = model_from_json(text)
    assert again == m
    assert model_to_json(again) == text

    plain = KripkeModel(2, {1: {(0, 1)}}, {1: {1}})
    assert model_from_json(model_to_json(plain)) == plain
    assert "star" not in model_to_json(plain)


_GOLDEN_JSON = """\
{
  "states": 2,
  "relations": {
    "a1": [
      [
        0,
        0
      ]
    ],
    "a2": [
      [
        0,
        1
      ],
      [
        1,
        0
      ]
    ]
  },
  "valuation": {
    "p1": [
      1
    ],
    "p2": [
      0,
      1
    ]
  },
  "star": [
    [
      0,
      1,
      [
        0,
        1
      ]
    ],
    [
      1,
      0,
      [
        1
      ]
    ]
  ]
}"""


def test_json_text_is_sorted_whatever_the_insertion_order():
    # atoms, pairs, variables, states and star pairs all entered out of order
    m = KripkeModel(2, {2: [(1, 0), (0, 1)], 1: [(0, 0)]}, {2: [1, 0], 1: [1]},
                    {(1, 0): [1], (0, 1): [1, 0], (1, 1): []})
    assert model_to_json(m) == _GOLDEN_JSON


def test_json_rejects_malformed_input():
    with pytest.raises(ModelError):
        model_from_json("not json")
    with pytest.raises(ModelError):
        model_from_json("[1, 2]")
    with pytest.raises(ModelError):
        model_from_json('{"states": 2, "relations": {"b1": [[0, 1]]}}')
    with pytest.raises(ModelError):
        model_from_json('{"states": 2, "valuation": {"a1": [0]}}')
    with pytest.raises(ModelError):
        model_from_json('{"states": 2, "relations": {"a1": [[0, 5]]}}')
    with pytest.raises(ModelError):
        model_from_json('{"states": "two"}')
    for text in (
        '{"states": 2.9, "relations": {"a1": [[0, 1.7]]}}',
        '{"states": 2, "relations": {"a1": [[0, 1.7]]}}',
        '{"states": true}',
        '{"states": "3"}',
        '{"states": 2, "relations": {"a1": [[false, 1]]}}',
        '{"states": 2, "valuation": {"p1": [1.0]}}',
        '{"states": 2, "star": [[0, 1, ["1"]]]}',
        '{"states": 2, "star": [[0.0, 1, [1]]]}',
        '{"states": 10001}',
        '{"states": 1000000000, "relations": {"a1": [[0, 999999999]]}}',
        '{"states": 2, "relations": []}',
        '{"states": 2, "relations": null}',
        '{"states": 2, "valuation": "p1"}',
        '{"states": 2, "valuation": [[1]]}',
        "[" * 100_000,
        '{"states": 2, "relations": {"a1": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    ):
        with pytest.raises(ModelError):
            model_from_json(text)
    # a TypeError or ValueError from a badly shaped entry is a ModelError too
    for table in ('"relations": {"a1": [[0]]}', '"relations": {"a1": 5}',
                  '"valuation": {"p1": 3}'):
        with pytest.raises(ModelError, match="malformed model JSON: "):
            model_from_json(f'{{"states": 2, {table}}}')
    for star in ('null', '{"x": 1}', '[[0, 0]]', '[[0, 0, 5]]'):
        with pytest.raises(ModelError, match="'star' must be a list of"):
            model_from_json(f'{{"states": 2, "star": {star}}}')
    assert model_from_json('{"states": 10000}').num_states == 10000


# --- random ASTs and models for property tests ---


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), pair_sets(n))))
def test_closure_implementations_agree(case):
    n, pairs = case
    closed = rtc_matrix(pairs, n)
    assert closed == rtc_worklist(pairs, n)


@settings(max_examples=150, deadline=None)
@given(scenario(num_programs=2))
def test_choice_is_union_inter_is_intersection(case):
    dialect, model, alpha, beta, _ = case
    left = relation_of(model, alpha, dialect)
    right = relation_of(model, beta, dialect)
    if dialect in (PDL, IPDL):
        assert relation_of(model, Choice(alpha, beta), dialect) == left | right
    if dialect is IPDL:
        assert relation_of(model, Inter(alpha, beta), dialect) == left & right
    assert relation_of(model, Seq(alpha, beta), dialect) == frozenset(
        (s, v) for s, u in left for (u2, v) in right if u == u2
    )


@settings(max_examples=150, deadline=None)
@given(scenario(num_programs=1))
def test_diamond_matches_successor_search(case):
    dialect, model, alpha, phi = case
    rel = relation_of(model, alpha, dialect)
    holds = truth_set(model, phi, dialect)
    for s in model.states:
        expected = any(t in holds for (u, t) in rel if u == s)
        assert check(model, s, diamond(alpha, phi), dialect) == expected
        assert check(model, s, Box(alpha, phi), dialect) == all(
            t in holds for (u, t) in rel if u == s
        )


@settings(max_examples=150, deadline=None)
@given(scenario(num_formulas=2), st.integers(1, 3))
def test_substitution_valuation_lemma(case, index):
    dialect, model, psi, chi = case
    redefined = dict(model.valuation)
    redefined[index] = truth_set(model, chi, dialect)
    model2 = KripkeModel(model.num_states, model.relations, redefined, model.star)
    lhs = truth_set(model, substitute(psi, index, chi), dialect)
    assert lhs == truth_set(model2, psi, dialect)


@settings(max_examples=100, deadline=None)
@given(scenario())
def test_truth_set_agrees_with_check(case):
    dialect, model, phi = case
    holds = truth_set(model, phi, dialect)
    for s in model.states:
        assert (s in holds) == check(model, s, phi, dialect)
    assert truth_set(model, conj(phi, TOP), dialect) == holds
    assert truth_set(model, disj(phi, FALSUM), dialect) == holds


# --- the bitset evaluator against the frozenset reference ---


def _outcome(evaluate):
    try:
        return evaluate()
    except MissingStarError:
        return MissingStarError


@settings(max_examples=200, deadline=None)
@given(scenario(num_programs=1, max_states=5))
def test_evaluator_matches_reference(case):
    dialect, model, alpha, phi = case
    assert relation_of(model, alpha, dialect) == _reference._evaluate(model, alpha)
    holds = truth_set(model, phi, dialect)
    assert holds == _reference._evaluate(model, phi)
    assert [check(model, s, phi, dialect) for s in model.states] == [
        s in holds for s in model.states
    ]
    if dialect is PRSPDL:
        starless = KripkeModel(model.num_states, model.relations, model.valuation)
        for term, fast in ((alpha, relation_of), (phi, truth_set)):
            got = _outcome(lambda: fast(starless, term, dialect))
            assert got == _outcome(lambda: _reference._evaluate(starless, term))
            if any(isinstance(node, (Special, Par)) for node in iter_nodes(term)):
                assert got is MissingStarError


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda n: models(n, with_star=True)),
    programs(PRSPDL, formulas(PRSPDL)),
    programs(PRSPDL, formulas(PRSPDL)),
)
def test_par_index_matches_reference(model, alpha, beta):
    for program in (Par(alpha, beta), Par(beta, alpha), Par(Star(alpha), beta)):
        assert relation_of(model, program, PRSPDL) == _reference._evaluate(model, program)


@pytest.mark.parametrize("text", ["(s2*) || r1", "(a1*) || (a2*)", "(r1;a1)* || s2"])
def test_par_with_starred_operand_matches_reference(text):
    # the benchmark leaves these out as heavy-tailed; the || index must
    # still agree with the scan over every pair of star entries
    model = random_model(30, {1, 2}, {1, 2}, 0.07, seed=5, star_probability=0.1)
    alpha = parse_program(text, PRSPDL)
    expected = _reference._evaluate(model, alpha)
    assert expected
    assert relation_of(model, alpha, PRSPDL) == expected
    assert truth_set(model, Box(alpha, Var(1)), PRSPDL) == _reference._evaluate(
        model, Box(alpha, Var(1))
    )


def test_import_does_not_load_numpy():
    src = Path(pdlkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    script = """
import sys
sys.modules["numpy"] = None  # every numpy import now raises ImportError
from pdlkit import Dialect, KripkeModel, bounded_sat, parse_formula, rtc_matrix, truth_set
assert rtc_matrix([(0, 1), (1, 2)], 3) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
model = KripkeModel(2, {1: {(0, 1)}}, {1: {1}})
assert truth_set(model, parse_formula("<a1*>p1", Dialect.PDL), Dialect.PDL) == {0, 1}
found = bounded_sat(parse_formula("<a1 || a1>p1", Dialect.PRSPDL), Dialect.PRSPDL, 1)
assert found.witness is not None
print(sys.modules["numpy"])
"""
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "None"
