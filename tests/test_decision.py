"""Bounded model search and the complete PDL decision procedure."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from pdlkit import decision
from pdlkit.decision import (
    CapacityError,
    SatResult,
    Verdict,
    bounded_sat,
    fl_closure,
    pdl_sat,
)
from pdlkit.embedding import embed
from pdlkit.fuzzing import formula_corpus, random_formula
from pdlkit.semantics import KripkeModel, check
from pdlkit.syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Dialect,
    DialectError,
    Par,
    Special,
    Star,
    Test,
    Var,
    conj,
    diamond,
    fold,
    metrics,
    neg,
    parse_formula,
    validate,
)

import _reference
from _strategies import formulas

PDL, IPDL, PRSPDL = Dialect.PDL, Dialect.IPDL, Dialect.PRSPDL


# --- bounded search ---


def test_bounded_sat_finds_trivial_witness():
    result = bounded_sat(TOP, PDL, 1)
    assert result.verdict is Verdict.SATISFIABLE
    assert result.bound_used == 1
    assert result.witness.model.num_states == 1
    assert result.witness.state == 0


def test_bounded_sat_cannot_certify_unsat():
    contradiction = conj(Var(1), neg(Var(1)))
    for dialect in (PDL, IPDL, PRSPDL):
        result = bounded_sat(contradiction, dialect, 3)
        assert result.verdict is Verdict.UNKNOWN_AT_BOUND
        assert result.witness is None and result.bound_used == 3


def test_bounded_sat_diamond_witness_verified():
    phi = diamond(Atomic(1), Var(1))
    result = bounded_sat(phi, PDL, 2)
    assert result.verdict is Verdict.SATISFIABLE
    w = result.witness
    assert w.model.num_states <= 2
    assert check(w.model, w.state, phi, PDL) is True


def test_bounded_sat_prspdl_needs_composition():
    phi = diamond(Par(Atomic(1), Atomic(1)), TOP)
    result = bounded_sat(phi, PRSPDL, 1)
    assert result.verdict is Verdict.SATISFIABLE
    assert result.witness.model.star  # parallel step forces a star entry


def test_bounded_sat_universal_vars_forced():
    result = bounded_sat(diamond(Atomic(1), Var(1)), PDL, 2, universal_vars=(2,))
    model = result.witness.model
    assert model.valuation[2] == frozenset(model.states)


def test_bounded_sat_respects_cap_and_bounds():
    result = bounded_sat(Var(1), PDL, 2, per_size_model_cap=1)
    assert result.verdict is Verdict.UNKNOWN_AT_BOUND  # only the empty model per size
    # two states over a1, a2, p1, p2, p3 make 2**14 models, several chunks;
    # the hit is model 6245 at two states, in the second chunk
    space = 1 << 14
    miss = parse_formula("p1 & ~p1 & [a1]p2 & [a2]p3", PDL)
    hit = parse_formula("~p1 & <a1>p1 & [a1]<a1>~p1 & <a2>(p2 & p3)", PDL)
    for phi in (miss, hit):
        wide = bounded_sat(phi, PDL, 2, per_size_model_cap=10**9)
        assert wide == bounded_sat(phi, PDL, 2, per_size_model_cap=space)
    assert wide.verdict is Verdict.SATISFIABLE and wide.bound_used == 2
    assert (wide.verdict, 2, *wide.witness) == _reference_scan(hit, PDL, 2, space)
    assert bounded_sat(hit, PDL, 2, per_size_model_cap=6245).witness is None
    assert bounded_sat(hit, PDL, 2, per_size_model_cap=6246) == wide
    with pytest.raises(ValueError):
        bounded_sat(TOP, PDL, 0)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="per_size_model_cap must be >= 1"):
            bounded_sat(TOP, PDL, 2, per_size_model_cap=cap)


@pytest.mark.parametrize("dialect", [PDL, IPDL, PRSPDL])
@pytest.mark.parametrize("universal_vars", [(), (1,)])
def test_bounded_sat_builds_a_model_only_for_the_witness(dialect, universal_vars, monkeypatch):
    built = []
    store = KripkeModel._store

    def counting(self, num_states, *masks):
        built.append(num_states)
        store(self, num_states, *masks)

    # both constructors, from pairs and from masks, end in _store
    monkeypatch.setattr(KripkeModel, "_store", counting)
    hit = parse_formula("p2 & <a1>~p2", dialect)  # first hit at two states
    result = bounded_sat(hit, dialect, 2, universal_vars=universal_vars)
    assert result.verdict is Verdict.SATISFIABLE and built == [2]
    built.clear()
    miss = bounded_sat(conj(Var(2), neg(Var(2))), dialect, 2, per_size_model_cap=300,
                       universal_vars=universal_vars)
    assert miss.verdict is Verdict.UNKNOWN_AT_BOUND and built == []


def _reference_scan(phi, dialect, max_states, cap, universal_vars=()):
    """bounded_sat's search written out with the reference evaluator:
    (verdict, bound_used, witness model, witness state) of the first hit.
    The star function spans all state pairs when a Special or || node reads
    it, and is empty otherwise."""
    m = metrics(phi)
    forced = frozenset(universal_vars)
    reads_star = fold(phi, lambda node, results: type(node) in (Special, Par) or any(results))
    for size in range(1, max_states + 1):
        support = []
        if dialect is PRSPDL and reads_star:
            support = list(itertools.product(range(size), repeat=2))
        stream = _reference.enumerate_models(
            size, m.atoms, sorted(m.variables - forced), dialect, star_support=support
        )
        for model in itertools.islice(stream, cap):
            if forced:
                valuation = dict(model.valuation)
                valuation.update((v, model.states) for v in forced)
                model = KripkeModel(size, model.relations, valuation, model.star)
            holds = _reference._evaluate(model, phi)
            if holds:
                return Verdict.SATISFIABLE, size, model, min(holds)
    return Verdict.UNKNOWN_AT_BOUND, max_states, None, None


def test_prspdl_searches_no_star_function_for_a_formula_that_reads_none():
    # PRSPDL then searches PDL's models, and finds PDL's first hit with an
    # empty star function
    shared, hit_sizes = 0, []
    for phi in formula_corpus(7, 400, PDL, 8, 2, 2):
        try:
            validate(phi, PRSPDL)
        except DialectError:
            continue
        shared += 1
        pdl, prspdl = bounded_sat(phi, PDL, 3, 2000), bounded_sat(phi, PRSPDL, 3, 2000)
        assert (prspdl.verdict, prspdl.bound_used) == (pdl.verdict, pdl.bound_used)
        if pdl.witness is not None:
            hit_sizes.append(pdl.bound_used)
            (model, state), expected = prspdl.witness, pdl.witness
            assert (model.rows, model.truth, model.stars, state) == (
                expected.model.rows, expected.model.truth, {}, expected.state)
    # ~(p1 -> [a2]p1) is the corpus's one first hit at two states
    assert shared == 383 and len(hit_sizes) == 339 and hit_sizes.count(2) == 1


# first hits at two states: true at state 1 only, or at both states
_TWO_STATE = {
    PDL: ["p2 & <a1>~p2", "[a1*]((p2 -> <a1>~p2) & (~p2 -> <a1>p2))"],
    IPDL: ["p2 & <a1>~p2", "[a1*]((p2 -> <a1>~p2) & (~p2 -> <a1>p2))"],
    PRSPDL: ["~<r1>true & <s1>true", "<r1>(<s1>~<s1>true & <s1><s1>true)"],
}


@pytest.mark.parametrize("dialect", [PDL, IPDL, PRSPDL])
@pytest.mark.parametrize("universal_vars", [(), (1,)])
def test_bounded_sat_matches_reference_scan(dialect, universal_vars):
    corpus = formula_corpus(17, 25, dialect, 7, 2, 2)
    corpus += [parse_formula(text, dialect) for text in _TWO_STATE[dialect]]
    seen = set()
    for phi in corpus:
        result = bounded_sat(phi, dialect, 2, per_size_model_cap=150,
                             universal_vars=universal_vars)
        witness = result.witness or (None, None)
        got = (result.verdict, result.bound_used, *witness)
        assert got == _reference_scan(phi, dialect, 2, 150, universal_vars)
        holds = _reference._evaluate(witness[0], phi) if witness[0] else frozenset()
        seen.add((result.verdict, result.bound_used, tuple(sorted(holds))))
    assert (Verdict.SATISFIABLE, 1, (0,)) in seen
    assert (Verdict.UNKNOWN_AT_BOUND, 2, ()) in seen
    assert (Verdict.SATISFIABLE, 2, (1,)) in seen
    assert (Verdict.SATISFIABLE, 2, (0, 1)) in seen


# --- closure ---


def test_fl_closure_examples():
    plain = Box(Atomic(1), FALSUM)
    assert {plain, FALSUM} <= fl_closure(plain)

    star_box = Box(Star(Atomic(1)), FALSUM)
    assert {star_box, FALSUM, Box(Atomic(1), star_box)} <= fl_closure(star_box)

    with pytest.raises(DialectError):
        fl_closure(Box(Test(Var(1)), Var(1)))


def test_fl_closure_linear_in_formula_size():
    rng = random.Random(5)
    for _ in range(300):
        phi = random_formula(rng, PDL, max_size=14, max_vars=3, max_atoms=2)
        assert len(fl_closure(phi)) <= metrics(phi).size


# --- complete procedure, curated verdicts ---


def test_pdl_sat_simple_verdicts():
    result = pdl_sat(Var(1))
    assert result.verdict is Verdict.SATISFIABLE
    assert check(result.witness.model, result.witness.state, Var(1), PDL) is True

    demanding = conj(diamond(Atomic(1), TOP), Box(Atomic(1), FALSUM))
    assert pdl_sat(demanding).verdict is Verdict.UNSATISFIABLE

    assert pdl_sat(Box(Atomic(1), FALSUM)).verdict is Verdict.SATISFIABLE
    assert pdl_sat(Box(Star(Atomic(1)), FALSUM)).verdict is Verdict.UNSATISFIABLE


def test_pdl_sat_star_conflicts():
    a = Atomic(1)
    eventually = diamond(Star(a), Var(1))
    never = Box(Star(a), neg(Var(1)))
    assert pdl_sat(conj(eventually, never)).verdict is Verdict.UNSATISFIABLE

    # the demand can always be deferred but never met: must still be unsat
    deferring = Box(Star(a), conj(neg(Var(1)), diamond(a, TOP)))
    assert pdl_sat(conj(eventually, deferring)).verdict is Verdict.UNSATISFIABLE

    # a successor type deleted for its star demand fulfils no demand of
    # its predecessor, though its own [a3]-demand is met
    dead_end = parse_formula("~[a2][a3]false & [a2](<a1*>p1 & [a1*](~p1 & <a1>true))", PDL)
    assert pdl_sat(dead_end).verdict is Verdict.UNSATISFIABLE

    assert pdl_sat(eventually).verdict is Verdict.SATISFIABLE


def test_pdl_sat_star_witness_needs_steps():
    # p1 now, p1 gone after every step, reachable p1-free dead end
    a = Atomic(1)
    phi = conj(
        Var(1),
        conj(Box(a, neg(Var(1))), diamond(Star(a), conj(neg(Var(1)), Box(a, FALSUM)))),
    )
    result = pdl_sat(phi)
    assert result.verdict is Verdict.SATISFIABLE
    w = result.witness
    assert w.model.num_states >= 2
    assert check(w.model, w.state, phi, PDL) is True


AXIOMS = [
    "[a1](p1 -> p2) -> ([a1]p1 -> [a1]p2)",
    "[a1;a2]p1 <-> [a1][a2]p1",
    "[a1 u a2]p1 <-> [a1]p1 & [a2]p1",
    "[a1*]p1 <-> p1 & [a1][a1*]p1",
    "p1 & [a1*](p1 -> [a1]p1) -> [a1*]p1",
]


@pytest.mark.parametrize("text", AXIOMS)
def test_pdl_sat_axioms_valid(text):
    phi = parse_formula(text, PDL)
    assert pdl_sat(neg(phi)).verdict is Verdict.UNSATISFIABLE
    assert pdl_sat(phi).verdict is Verdict.SATISFIABLE


def test_pdl_sat_capacity_ceiling_is_not_a_verdict():
    with pytest.raises(CapacityError):
        pdl_sat(diamond(Atomic(1), Var(1)), max_nodes=1)


def test_pdl_sat_rejects_other_dialects():
    with pytest.raises(DialectError):
        pdl_sat(Box(Test(Var(1)), Var(1)))


def test_pdl_sat_witnesses_verified_on_corpus():
    rng = random.Random(77)
    sat_count = 0
    for _ in range(120):
        phi = random_formula(rng, PDL, max_size=10, max_vars=2, max_atoms=2)
        result = pdl_sat(phi)
        if result.verdict is Verdict.SATISFIABLE:
            w = result.witness
            assert check(w.model, w.state, phi, PDL) is True
            sat_count += 1
        else:
            assert result.witness is None
    assert sat_count >= 30


def _outcome(decide, formula, max_nodes):
    try:
        return decide(formula, max_nodes)
    except CapacityError:
        return CapacityError


def _assert_witness(result, formula):
    if result.witness is not None:
        w = result.witness
        assert check(w.model, w.state, formula, PDL) is True


def test_pdl_sat_matches_reference_elimination():
    # frozenset types and sweep-until-stable fulfilment give the same
    # verdicts, on inputs and on their variable-free groundings. At a
    # ceiling of 60 types pdl_sat runs out only where the reference does,
    # since both then need the whole demand-reachable set; where only the
    # reference runs out, pass 1 found a witness within the ceiling
    verdicts = []
    capped = own_capped = 0
    for phi in formula_corpus(31, 300, PDL, max_size=10, max_vars=2, max_atoms=2):
        for formula in (phi, embed(phi, PDL)):
            result = pdl_sat(formula)
            assert result.verdict is _reference.pdl_sat_verdict(formula)
            _assert_witness(result, formula)
            verdicts.append(result.verdict)
            ceiling = _outcome(_reference.pdl_sat_verdict, formula, 60)
            got = _outcome(pdl_sat, formula, 60)
            if got is CapacityError:
                assert ceiling is CapacityError
                own_capped += 1
            else:
                assert got.verdict is (Verdict.SATISFIABLE if ceiling is CapacityError else ceiling)
                _assert_witness(got, formula)
            capped += ceiling is CapacityError
    assert verdicts.count(Verdict.UNSATISFIABLE) >= 50
    assert verdicts.count(Verdict.SATISFIABLE) >= 500
    assert capped >= 200 and own_capped >= 75


# formulas that pass 1 cannot settle: the first saturation of
# [a2][a2]true -> p1, say, takes ~[a2][a2]true, whose a2-successor must
# refute [a2]true and has no consistent saturation. Every Unsatisfiable
# comes from pass 2.
_FALLBACK = [
    ("[a2][a2]true -> p1", Verdict.SATISFIABLE),
    ("[a2]true -> [a1]true", Verdict.SATISFIABLE),
    ("(p2 -> [a1]true) -> [a2]p1", Verdict.SATISFIABLE),
    ("[a1*]false", Verdict.UNSATISFIABLE),
    ("<a1*>p1 & [a1*]~p1", Verdict.UNSATISFIABLE),
    ("<a1*>p1 & [a1*](~p1 & <a1>true)", Verdict.UNSATISFIABLE),
    ("~[a2][a3]false & [a2](<a1*>p1 & [a1*](~p1 & <a1>true))", Verdict.UNSATISFIABLE),
]


def _recording_passes(monkeypatch) -> list:
    """Records the per_seed argument of every pass pdl_sat runs."""
    passes = []
    decide = decision._decide

    def recording(phi, closure, max_nodes, per_seed):
        passes.append(per_seed)
        return decide(phi, closure, max_nodes, per_seed)

    monkeypatch.setattr(decision, "_decide", recording)
    return passes


@pytest.mark.parametrize("text, verdict", _FALLBACK)
def test_pdl_sat_falls_back_to_every_saturation(text, verdict, monkeypatch):
    passes = _recording_passes(monkeypatch)
    phi = parse_formula(text, PDL)
    result = pdl_sat(phi)
    assert result.verdict is verdict and passes == [1, None]
    _assert_witness(result, phi)
    assert (result.witness is None) is (verdict is Verdict.UNSATISFIABLE)


def test_pdl_sat_pass_1_settles_most_gate_calls(monkeypatch):
    passes = _recording_passes(monkeypatch)
    corpus = formula_corpus(20260819, 500, PDL, max_size=12, max_vars=3, max_atoms=2)
    for phi in corpus:
        for formula in (phi, embed(phi, PDL)):
            pdl_sat(formula)
    assert passes.count(1) == 1000 and passes.count(None) <= 200


# --- properties ---


@settings(max_examples=60, deadline=None)
@given(formulas(PDL))
def test_pdl_sat_stable_under_trivial_wrapping(phi):
    base = pdl_sat(phi).verdict
    assert pdl_sat(neg(neg(phi))).verdict is base
    assert pdl_sat(conj(phi, TOP)).verdict is base


@settings(max_examples=80, deadline=None)
@given(formulas(PDL))
def test_bounded_witness_implies_complete_sat(phi):
    bounded = bounded_sat(phi, PDL, 2, per_size_model_cap=2000)
    if bounded.verdict is Verdict.SATISFIABLE:
        assert pdl_sat(phi).verdict is Verdict.SATISFIABLE


@settings(max_examples=60, deadline=None)
@given(formulas(PDL))
def test_bounded_sat_monotone_in_bound(phi):
    small = bounded_sat(phi, PDL, 1, per_size_model_cap=600)
    large = bounded_sat(phi, PDL, 2, per_size_model_cap=600)
    if small.verdict is Verdict.SATISFIABLE:
        assert large.verdict is Verdict.SATISFIABLE
        assert large.bound_used <= small.bound_used


def test_sat_result_shape():
    result = SatResult(Verdict.UNSATISFIABLE)
    assert result.witness is None and result.bound_used is None
