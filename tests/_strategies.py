"""Shared hypothesis strategies: small random models, programs, and formulas."""

from __future__ import annotations

from functools import cache

from hypothesis import strategies as st

from pdlkit.semantics import KripkeModel
from pdlkit.syntax import (
    FALSUM,
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
    neg,
)

PDL, IPDL, PRSPDL = Dialect.PDL, Dialect.IPDL, Dialect.PRSPDL


def pair_sets(n):
    """Random edge sets over states 0..n-1."""
    return st.frozensets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6
    )


# Cached: hypothesis validates a strategy object once, not on every draw.
@cache
def models(n, with_star):
    star = st.just(None)
    if with_star:
        star = st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
            max_size=4,
        )
    return st.builds(
        KripkeModel,
        num_states=st.just(n),
        relations=st.dictionaries(st.integers(1, 2), pair_sets(n), max_size=2),
        valuation=st.dictionaries(
            st.integers(1, 3), st.frozensets(st.integers(0, n - 1)), max_size=3
        ),
        star=star,
    )


def programs(dialect, formulas_inner):
    base = st.integers(1, 2).map(Atomic)
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
            out = out | formulas_inner.map(Test)
        return out | children.map(Star)

    return st.recursive(base, extend, max_leaves=3)


@cache
def formulas(dialect):
    base = st.integers(1, 3).map(Var) | st.just(FALSUM) | st.just(TOP)

    def extend(children):
        progs = programs(dialect, children)
        return (
            st.tuples(children, children).map(lambda t: Implies(*t))
            | st.tuples(progs, children).map(lambda t: Box(*t))
            | st.tuples(progs, children).map(lambda t: diamond(*t))
            | children.map(neg)
        )

    return st.recursive(base, extend, max_leaves=4)


def dialect_formulas(dialects=(PDL, IPDL, PRSPDL)):
    """(dialect, formula) pairs with the formula valid for the dialect."""
    return st.sampled_from(list(dialects)).flatmap(
        lambda d: st.tuples(st.just(d), formulas(d))
    )


def scenario(num_programs=0, num_formulas=1, max_states=4):
    """(dialect, model, *programs, *formulas); the model carries a star
    function exactly when the dialect needs one."""

    def expand(dialect):
        parts = [st.just(dialect)]
        parts.append(
            st.integers(1, max_states).flatmap(
                lambda n: models(n, dialect is PRSPDL)
            )
        )
        parts.extend(programs(dialect, formulas(dialect)) for _ in range(num_programs))
        parts.extend(formulas(dialect) for _ in range(num_formulas))
        return st.tuples(*parts)

    return st.sampled_from([PDL, IPDL, PRSPDL]).flatmap(expand)
