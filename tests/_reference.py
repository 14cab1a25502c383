"""Reference model checker for the tests: the frozenset fold that
pdlkit.semantics used before its bitset evaluator.

Truth sets are frozensets of states and relations frozensets of pairs;
`*` is the dense-matrix closure rtc_matrix and `||` scans every pair of
star entries. It is slow and plain, and the fast evaluator must agree
with it on every input.
"""

from __future__ import annotations

import itertools

from pdlkit.semantics import KripkeModel, Relation, _star_entries, rtc_matrix
from pdlkit.syntax import (
    Atomic,
    Box,
    Choice,
    Falsum,
    Formula,
    Implies,
    Inter,
    Par,
    Program,
    Seq,
    Special,
    Star,
    Test,
    Var,
    fold,
)


def _evaluate(model: KripkeModel, root: Formula | Program):
    """Truth set of a formula or relation of a program, in one fold over it;
    each shared subterm is evaluated once."""
    states = model.states

    def visit(node, results):
        match node:
            case Var(index):
                return model.valuation.get(index, frozenset())
            case Falsum():
                return frozenset()
            case Implies():
                holds_left, holds_right = results
                return frozenset(s for s in states if s not in holds_left or s in holds_right)
            case Box():
                rel, holds_body = results
                failing = {s for s, t in rel if t not in holds_body}
                return frozenset(s for s in states if s not in failing)
            case Atomic(index):
                return model.relations.get(index, frozenset())
            case Special(kind):
                return _special(model, kind)
            case Test():
                return frozenset((s, s) for s in results[0])
            case Seq():
                left_rel, right_rel = results
                by_source: dict[int, list[int]] = {}
                for u, v in right_rel:
                    by_source.setdefault(u, []).append(v)
                return frozenset((s, v) for s, u in left_rel for v in by_source.get(u, ()))
            case Choice():
                return results[0] | results[1]
            case Inter():
                return results[0] & results[1]
            case Par():
                return _par(model, *results)
            case Star():
                return rtc_matrix(results[0], model.num_states)

    return fold(root, visit)


def _special(model: KripkeModel, kind: str) -> Relation:
    # s is composed from x and y (s in x*y): r1/r2 lead from s to x/y,
    # s1/s2 from x/y to s
    pairs = set()
    for (x, y), result in _star_entries(model):
        part = x if kind[1] == "1" else y
        pairs.update((s, part) if kind[0] == "r" else (part, s) for s in result)
    return frozenset(pairs)


def _par(model: KripkeModel, left_rel: Relation, right_rel: Relation) -> Relation:
    entries = tuple(_star_entries(model))
    pairs = set()
    for (x1, x2), sources in entries:
        for (y1, y2), targets in entries:
            if (x1, y1) in left_rel and (x2, y2) in right_rel:
                pairs.update(itertools.product(sources, targets))
    return frozenset(pairs)
