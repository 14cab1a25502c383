"""Parsing and structural walks on formulas 10,000 deep, at the default
recursion limit.

Nodes are interned, so parsed text is checked against a formula built
with constructors by identity; == and hash on deep chains are tested in
test_syntax.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import pytest

from pdlkit.embedding import build_context, ground, hat, nested_chains
from pdlkit.syntax import (
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
    Implies,
    Inter,
    Par,
    Seq,
    Special,
    Star,
    Test,
    Var,
    diamond,
    metrics,
    neg,
    normalize_variables,
    parse_formula,
    parse_program,
    print_formula,
    print_program,
    substitute,
)

DEPTH = 10_000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def box_chain(depth):
    """[a7][a8][a7]... p5: size 2*depth + 1, modal depth `depth`."""
    phi = Var(5)
    for level in range(depth):
        phi = Box(Atomic(7 + level % 2), phi)
    return phi, 2 * depth + 1, depth


def diamond_implication_chain(depth):
    """<a3>(p4 -> <a3>(p4 -> ...)): a diamond is 6 nodes, an implication 2."""
    phi = Var(4)
    size, modal = 1, 0
    for level in range(depth):
        if level % 2:
            phi = Implies(Var(4), phi)
            size += 2
        else:
            phi = diamond(Atomic(3), phi)
            size += 6
            modal += 1
    return phi, size, modal


def deep_program(depth, dialect):
    """[alpha]p2 with alpha nested `depth` deep: size depth + 3, modal depth 1."""
    alpha = Atomic(2)
    for level in range(depth):
        if level % 3 == 0:
            alpha = Star(alpha)
        elif level % 3 == 1:
            alpha = Seq(Atomic(1), alpha)
        elif dialect is Dialect.IPDL:
            alpha = Inter(alpha, Atomic(1))
        else:
            alpha = Choice(alpha, Atomic(1))
    # Star adds one node per level, Seq/Choice/Inter two.
    size = 1 + sum(1 if level % 3 == 0 else 2 for level in range(depth))
    return Box(alpha, Var(2)), size + 2, 1


def box_chain_through_tests(depth):
    """[a1 & p3?]...[a1 & p3?]p3 nested through tests: modal depth 1."""
    phi = Var(3)
    for _ in range(depth):
        phi = Box(Inter(Atomic(1), Test(phi)), Var(3))
    return phi, 5 * depth + 1, 1


CASES = [
    (Dialect.PDL, box_chain),
    (Dialect.PDL, diamond_implication_chain),
    (Dialect.PDL, lambda depth: deep_program(depth, Dialect.PDL)),
    (Dialect.IPDL, box_chain),
    (Dialect.IPDL, lambda depth: deep_program(depth, Dialect.IPDL)),
    (Dialect.IPDL, box_chain_through_tests),
]


@pytest.mark.parametrize("dialect,build", CASES)
def test_deep_walks(dialect, build):
    phi, size, modal = build(DEPTH)
    m = metrics(phi)
    assert (m.size, m.modal_depth) == (size, modal)

    tracemalloc.start()
    try:
        text = print_formula(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) >= DEPTH
    assert peak <= 10 * len(text)

    normalized, var_map, atom_map = normalize_variables(phi)
    assert sorted(var_map.values()) == list(range(1, len(var_map) + 1))
    assert sorted(atom_map.values()) == list(range(1, len(atom_map) + 1))
    renamed = metrics(normalized)
    assert (renamed.size, renamed.modal_depth) == (size, modal)
    assert renamed.variables == frozenset(var_map.values())

    # TOP is three nodes where a variable was one
    replaced = metrics(substitute(normalized, 1, TOP))
    occurrences = print_formula(normalized).count("p1")
    assert replaced.size == size + 2 * occurrences
    assert 1 not in replaced.variables

    ctx = build_context(normalized, dialect)
    grounded = metrics(ground(hat(normalized, ctx), ctx))
    assert not grounded.variables
    assert grounded.modal_depth > modal


def test_deep_nested_chains():
    phi = Var(1)
    programs = []
    for level in range(DEPTH):
        program = Par(Special("r1"), Atomic(1)) if level % 2 else Atomic(2)
        programs.append(program)
        phi = Box(program, phi)
    chains = nested_chains(phi)
    assert len(chains) == 1 and len(chains[0]) == DEPTH
    assert all(a is b for a, b in zip(chains[0], reversed(programs)))


def printed(build):
    """The printer's text for a constructor-built chain, with that formula."""

    def case(depth):
        phi = build(depth)[0]
        return print_formula(phi), phi

    return case


def negations(depth):
    phi = Var(1)
    for _ in range(depth):
        phi = neg(phi)
    return "~(" * depth + "p1" + ")" * depth, phi


def grouped_program(depth):
    return "[" + "(" * depth + "a1" + ")" * depth + "]p1", Box(Atomic(1), Var(1))


@pytest.mark.parametrize(
    "build",
    [printed(box_chain), negations, printed(diamond_implication_chain), grouped_program],
    ids=["box_chain", "negations", "diamond_implication_chain", "grouped_program"],
)
def test_parse_deep_text(build):
    text, phi = build(DEPTH)
    assert parse_formula(text, Dialect.PDL) is phi


def test_parse_long_composition():
    text = ";".join(f"a{i}" for i in range(1, DEPTH + 1))
    alpha = parse_program(text, Dialect.PDL)
    # composition groups to the left, which the printer writes without parentheses
    assert print_program(alpha) == text
    m = metrics(Box(alpha, Var(1)))
    assert (m.size, m.atoms) == (2 * DEPTH + 1, frozenset(range(1, DEPTH + 1)))


def test_nested_tests_parse_in_linear_time():
    # [(<(<...(<a1>p1)?...>p1)?>p1)?]p2, 20 tests deep: every group is a test
    text = "<a1>p1"
    for _ in range(19):
        text = f"<({text})?>p1"
    text = f"[({text})?]p2"
    start = time.perf_counter()
    phi = parse_formula(text, Dialect.IPDL)
    back = parse_formula(print_formula(phi), Dialect.IPDL)
    elapsed = time.perf_counter() - start
    assert back == phi
    assert elapsed < 1.0
