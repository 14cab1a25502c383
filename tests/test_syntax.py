"""Parser, printer, substitution, normalization, and metrics tests."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlkit import syntax
from pdlkit.decision import Verdict, pdl_sat
from pdlkit.syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
    DialectError,
    Falsum,
    Formula,
    Implies,
    Inter,
    Par,
    ParseError,
    Program,
    Seq,
    Special,
    Star,
    Test,
    Var,
    children,
    conj,
    diamond,
    disj,
    iff,
    metrics,
    neg,
    normalize_variables,
    parse_formula,
    parse_formula_lines,
    parse_program,
    print_formula,
    print_program,
    rebuild,
    substitute,
    validate,
)

PDL, IPDL, PRSPDL = Dialect.PDL, Dialect.IPDL, Dialect.PRSPDL


def test_parse_box_atomic():
    assert parse_formula("[a1]p1", PDL) == Box(Atomic(1), Var(1))


def test_parse_diamond_inter_expands():
    # <a1 & a2>false == ~[a1 & a2]~false
    expected = neg(Box(Inter(Atomic(1), Atomic(2)), neg(FALSUM)))
    assert parse_formula("<a1 & a2>false", IPDL) == expected


def test_parse_par_rejected_under_pdl():
    with pytest.raises(DialectError):
        parse_formula("[a1 || s1]p1", PDL)


def test_parse_connective_expansion():
    assert parse_formula("~p1", PDL) == Implies(Var(1), FALSUM)
    assert parse_formula("true", PDL) == TOP
    assert parse_formula("p1 & p2", PDL) == conj(Var(1), Var(2))
    assert parse_formula("p1 | p2", PDL) == disj(Var(1), Var(2))
    assert parse_formula("p1 <-> p2", PDL) == iff(Var(1), Var(2))


def test_formula_precedence():
    # unary > & > | > -> with -> right-associative
    assert parse_formula("p1 -> p2 -> p3", PDL) == Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse_formula("p1 & p2 | p3", PDL) == disj(conj(Var(1), Var(2)), Var(3))
    assert parse_formula("p1 | p2 -> p3", PDL) == Implies(disj(Var(1), Var(2)), Var(3))
    assert parse_formula("~p1 & p2", PDL) == conj(neg(Var(1)), Var(2))
    assert parse_formula("[a1]p1 & p2", PDL) == conj(Box(Atomic(1), Var(1)), Var(2))


def test_program_precedence():
    # ; binds tighter than & (inter), then u, then ||
    assert parse_program("a1;a2 u a3", IPDL) == Choice(Seq(Atomic(1), Atomic(2)), Atomic(3))
    assert parse_program("a1 & a2;a3", IPDL) == Inter(Atomic(1), Seq(Atomic(2), Atomic(3)))
    assert parse_program("a1 u a2 & a3", IPDL) == Choice(Atomic(1), Inter(Atomic(2), Atomic(3)))
    assert parse_program("a1 || a2;a3", PRSPDL) == Par(Atomic(1), Seq(Atomic(2), Atomic(3)))
    assert parse_program("a1;a2*", PDL) == Seq(Atomic(1), Star(Atomic(2)))
    assert parse_program("(a1;a2)*", PDL) == Star(Seq(Atomic(1), Atomic(2)))


def test_program_tests_and_groups():
    assert parse_program("p1?", IPDL) == Test(Var(1))
    assert parse_program("~p1?", IPDL) == Test(neg(Var(1)))
    assert parse_program("(p1 -> p2)?", IPDL) == Test(Implies(Var(1), Var(2)))
    assert parse_program("(p1?);a1", IPDL) == Seq(Test(Var(1)), Atomic(1))
    assert parse_program("((p1 -> p2)?;a1)*", IPDL) == Star(
        Seq(Test(Implies(Var(1), Var(2))), Atomic(1))
    )
    assert parse_program("p1?*", IPDL) == Star(Test(Var(1)))
    assert parse_program("r1;s2", PRSPDL) == Seq(Special("r1"), Special("s2"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p1 ->", PDL)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_formula("p1 $ p2", PDL)
    with pytest.raises(ParseError):
        parse_formula("", PDL)
    with pytest.raises(ParseError):
        parse_formula("p1 p2", PDL)
    with pytest.raises(ParseError):
        parse_formula("[a1?]p1", PDL)  # '?' after a program is not a test
    with pytest.raises(ParseError):
        parse_formula("p0", PDL)


def test_dialect_violations_name_construct():
    with pytest.raises(DialectError, match="test"):
        parse_formula("[p1?]p2", PDL)
    with pytest.raises(DialectError, match="intersection"):
        parse_formula("[a1 & a2]p1", PDL)
    with pytest.raises(DialectError, match="choice"):
        parse_formula("[a1 u a2]p1", PRSPDL)
    with pytest.raises(DialectError, match="parallel"):
        parse_formula("[a1 || a2]p1", IPDL)
    with pytest.raises(DialectError, match="store-access"):
        parse_formula("[r1]p1", IPDL)
    # the first offending node in textual order is named
    with pytest.raises(DialectError, match="intersection"):
        parse_formula("[(p1?) & a1]p2", PDL)
    with pytest.raises(DialectError, match="test"):
        parse_formula("[p1?]p2 -> [a1 & a2]p2", PDL)
    validate(parse_formula("[a1 || r2]p1", PRSPDL), PRSPDL)


def test_print_examples():
    assert print_formula(Box(Atomic(1), Var(1))) == "[a1]p1"
    assert print_formula(Implies(Var(1), FALSUM)) == "~p1"
    assert print_formula(FALSUM) == "false"
    assert print_formula(TOP) == "true"
    assert print_formula(diamond(Atomic(1), Var(1))) == "<a1>p1"
    assert print_formula(conj(Var(1), Var(2))) == "~(p1 -> ~p2)"
    assert print_program(Choice(Atomic(1), Choice(Atomic(2), Atomic(3)))) == "a1 u (a2 u a3)"
    with pytest.raises(TypeError, match="not a formula or program node: 42"):
        print_formula(42)


def test_substitute_examples():
    assert substitute(Box(Atomic(1), Var(1)), 1, TOP) == Box(Atomic(1), TOP)
    assert substitute(Box(Test(Var(1)), Var(2)), 1, FALSUM) == Box(Test(FALSUM), Var(2))
    assert substitute(Var(2), 1, FALSUM) == Var(2)


def test_normalize_examples():
    phi, vmap, amap = normalize_variables(Implies(Var(5), Var(5)))
    assert phi == Implies(Var(1), Var(1))
    assert vmap == {5: 1} and amap == {}

    phi, vmap, amap = normalize_variables(Box(Atomic(7), Var(2)))
    assert phi == Box(Atomic(1), Var(1))
    assert vmap == {2: 1} and amap == {7: 1}

    phi, vmap, amap = normalize_variables(FALSUM)
    assert phi == FALSUM and vmap == {} and amap == {}


def test_normalize_first_occurrence_order():
    phi = Implies(Var(9), Implies(Var(3), Var(9)))
    renamed, vmap, _ = normalize_variables(phi)
    assert vmap == {9: 1, 3: 2}
    assert renamed == Implies(Var(1), Implies(Var(2), Var(1)))


def test_metrics_examples():
    m = metrics(Box(Atomic(1), Var(1)))
    assert (m.size, m.variables, m.atoms, m.modal_depth) == (3, {1}, {1}, 1)
    m = metrics(FALSUM)
    assert (m.size, m.variables, m.atoms, m.modal_depth) == (1, frozenset(), frozenset(), 0)
    m = metrics(Box(Atomic(1), Box(Atomic(2), FALSUM)))
    assert (m.size, m.variables, m.atoms, m.modal_depth) == (5, frozenset(), {1, 2}, 2)


def test_parse_formula_lines():
    text = "# a comment\np1\n\n[a1]p2  # trailing comment\n"
    assert parse_formula_lines(text, PDL) == [Var(1), Box(Atomic(1), Var(2))]


def test_parse_formula_lines_errors_name_the_line():
    with pytest.raises(ParseError) as err:
        parse_formula_lines("p1\n[a1]p1 &\n", PDL)
    assert str(err.value) == "line 2: expected a formula, found 'end of input' (at position 8)"
    assert err.value.position == 8
    with pytest.raises(ParseError) as err:
        parse_formula_lines("# comment\n\n  p1 ->  # trailing\n", PDL)
    assert str(err.value).startswith("line 3: ") and err.value.position == 9
    with pytest.raises(DialectError) as err:
        parse_formula_lines("p1\np2\n[a1 || a2]p1\n", PDL)
    assert str(err.value).startswith("line 3: parallel composition")


# --- interning ---


def test_equal_terms_are_one_node():
    text = "[(a1;a2)*]p1 -> <a1 u a2>(p1 & ~p3)"
    parsed = parse_formula(text, PDL)
    built = Implies(
        Box(Star(Seq(Atomic(1), Atomic(2))), Var(1)),
        diamond(Choice(Atomic(1), Atomic(2)), conj(Var(1), neg(Var(3)))),
    )
    assert parsed is built
    assert parse_formula(text, PDL) is parsed
    # the shared subterm p1 is one node wherever it occurs
    assert parsed.left.body is Var(1)
    # a rebuild with fresh children returns the node itself
    assert rebuild(parsed, [Box(Star(Seq(Atomic(1), Atomic(2))), Var(1)), built.right]) is parsed
    assert substitute(substitute(parsed, 1, Var(9)), 9, Var(1)) is parsed
    renamed, _, _ = normalize_variables(parse_formula("[a5]p7 -> p7", PDL))
    assert renamed is parse_formula("[a1]p1 -> p1", PDL)
    assert hash(parsed) == hash(built)


def test_node_kind_is_part_of_identity():
    a, b = Atomic(1), Atomic(2)
    assert Seq(a, b) is not Choice(a, b)
    assert Seq(a, b) != Choice(a, b)
    assert Inter(a, b) is not Par(a, b)
    assert Var(1) is not Atomic(1)
    assert Var(1) != Atomic(1)
    assert Implies(Var(1), Var(2)) is not Implies(Var(2), Var(1))
    assert Box(a, Var(1)) is not Box(b, Var(1))
    assert Falsum() is FALSUM


def test_nodes_are_immutable_and_checked():
    node = Implies(Var(1), Var(2))
    with pytest.raises(AttributeError):
        node.left = Var(3)
    with pytest.raises(AttributeError):
        del node.right
    assert node.left is Var(1)
    for build, bad in ((Var, 0), (Atomic, -1), (Special, "r3")):
        with pytest.raises(ValueError):
            build(bad)
    with pytest.raises(TypeError, match="not a formula or program node: 42"):
        children(42)
    assert repr(Box(Atomic(1), Var(2))) == "Box(program=Atomic(index=1), body=Var(index=2))"


def test_copies_and_pickles_return_the_interned_node():
    phi = parse_formula("[a1* ; a2](p1 -> false) & <r1 || s2>true", PRSPDL)
    for node in (phi, FALSUM, TOP, Special("s2"), Var(3)):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_table_does_not_pin_nodes():
    atom = Atomic(1)
    gc.collect()
    before = len(syntax._table)
    fresh = [Box(atom, Var(1_000_000 + i)) for i in range(10_000)]
    assert len(syntax._table) == before + 20_000
    assert Box(atom, Var(1_000_000)) is fresh[0]
    # keys hold leaf values and children's ids, never a node
    assert not any(isinstance(part, (Formula, Program)) for key in syntax._table for part in key)
    del fresh
    gc.collect()
    assert len(syntax._table) == before


def test_deep_chains_compare_and_hash_by_identity():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        chains = []
        for _ in range(2):
            phi = Var(5)
            for level in range(10_000):
                phi = Box(Atomic(7 + level % 2), phi)
            chains.append(phi)
        first, second = chains
        assert first is second and first == second
        assert hash(first) == hash(second)
        assert first in {second}
        assert first != Box(Atomic(9), first.body)
        result = pdl_sat(first)
        assert result.verdict is Verdict.SATISFIABLE
        assert result.witness.model.num_states == 1
    finally:
        sys.setrecursionlimit(saved)


# --- random ASTs for property tests ---


def _programs(dialect, formulas):
    base = st.integers(1, 3).map(Atomic)
    if dialect is PRSPDL:
        base = base | st.sampled_from(["r1", "r2", "s1", "s2"]).map(Special)

    def extend(children):
        out = st.tuples(children, children).map(lambda t: Seq(*t))
        if dialect in (PDL, IPDL):
            out = out | st.tuples(children, children).map(lambda t: Choice(*t))
        if dialect is IPDL:
            out = out | st.tuples(children, children).map(lambda t: Inter(*t))
        if dialect is PRSPDL:
            out = out | st.tuples(children, children).map(lambda t: Par(*t))
        if dialect in (IPDL, PRSPDL):
            out = out | formulas.map(Test)
        return out | children.map(Star)

    return st.recursive(base, extend, max_leaves=4)


# Cached: hypothesis validates a strategy object once, not on every draw.
@cache
def formula_strategy(dialect):
    base = st.integers(1, 4).map(Var) | st.just(FALSUM) | st.just(TOP)

    def extend(children):
        progs = _programs(dialect, children)
        return (
            st.tuples(children, children).map(lambda t: Implies(*t))
            | st.tuples(progs, children).map(lambda t: Box(*t))
            | st.tuples(progs, children).map(lambda t: diamond(*t))
            | children.map(neg)
            | st.tuples(children, children).map(lambda t: conj(*t))
            | st.tuples(children, children).map(lambda t: disj(*t))
        )

    return st.recursive(base, extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([PDL, IPDL, PRSPDL]).flatmap(
    lambda d: st.tuples(st.just(d), formula_strategy(d))))
def test_print_parse_round_trip(pair):
    dialect, phi = pair
    assert parse_formula(print_formula(phi), dialect) is phi


@settings(max_examples=200, deadline=None)
@given(formula_strategy(IPDL), formula_strategy(IPDL))
def test_substitution_commutes_on_disjoint_variables(phi, psi):
    # replacing p1 by a p1-free formula then p2 likewise commutes
    psi = substitute(substitute(psi, 1, TOP), 2, FALSUM)
    one = substitute(substitute(phi, 1, psi), 2, psi)
    other = substitute(substitute(phi, 2, psi), 1, psi)
    assert one == other


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PDL, IPDL, PRSPDL]).flatmap(
    lambda d: st.tuples(st.just(d), formula_strategy(d))))
def test_normalize_idempotent_and_size_preserving(pair):
    dialect, phi = pair
    once, _, _ = normalize_variables(phi)
    twice, vmap, amap = normalize_variables(once)
    assert twice == once
    assert all(k == v for k, v in vmap.items())
    assert all(k == v for k, v in amap.items())
    assert metrics(once).size == metrics(phi).size
    validate(once, dialect)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PDL, IPDL, PRSPDL]).flatmap(
    lambda d: st.tuples(st.just(d), formula_strategy(d))))
def test_validate_matches_constructor_sets(pair):
    dialect, phi = pair
    validate(phi, dialect)  # generated within the dialect, must pass
    if dialect is PRSPDL:
        m = metrics(phi)
        assert m.size >= 1


# every token the lexer knows, with one out-of-range index
_TOKENS = (
    "p1 p2 p0 a1 a2 r1 r2 s1 s2 true false u ~ & | -> <-> ; * ? ( ) [ ] < > ||".split()
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join))
def test_parse_fails_only_with_parse_errors(text):
    for dialect in (PDL, IPDL, PRSPDL):
        for parse, show in ((parse_formula, print_formula), (parse_program, print_program)):
            try:
                node = parse(text, dialect)
            except (ParseError, DialectError):
                continue
            assert parse(show(node), dialect) == node
