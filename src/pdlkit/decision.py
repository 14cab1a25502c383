"""Satisfiability back-ends.

bounded_sat is a brute-force oracle for all three dialects: it streams
small models in a fixed order, as the int masks the model checker works
on, and evaluates the formula on each. It can only answer Satisfiable or
UnknownAtBound; caps make it incomplete by design.

pdl_sat decides regular PDL (no tests) by type elimination over the
Fischer-Ladner closure. Types are built as saturated signed sets, but
only those reachable from the goal formula's own saturation by modal
demands, not all exponentially many subsets of the closure: each
unsatisfied box demand spawns the saturations of its successor seed, and
elimination then repeatedly deletes types with an unfulfillable demand.
Star demands must bottom out in finitely many steps, which is checked by
a least-fixpoint reachability pass over (type, demand) pairs after every
deletion round, iterating rounds to a fixpoint. A surviving goal type
yields a witness model that is verified by the model checker before the
verdict is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from . import semantics
from .semantics import KripkeModel
from .syntax import (
    Atomic,
    Box,
    Choice,
    Dialect,
    Falsum,
    Formula,
    Implies,
    Seq,
    Star,
    Var,
    metrics,
    validate,
)


class Verdict(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    UNKNOWN_AT_BOUND = "unknown-at-bound"


class Witness(NamedTuple):
    model: KripkeModel
    state: int


@dataclass(frozen=True)
class SatResult:
    """Verdict plus, when satisfiable, a model-checked witness."""

    verdict: Verdict
    witness: Optional[Witness] = None
    bound_used: Optional[int] = None


class CapacityError(RuntimeError):
    """The formula needs more types than the configured ceiling; not a verdict."""


# ---------------------------------------------------------------------------
# Bounded search

def bounded_sat(
    phi: Formula,
    dialect: Dialect,
    max_states: int,
    per_size_model_cap: int = 20000,
    universal_vars: Iterable[int] = (),
) -> SatResult:
    """Search all models with up to max_states states, capped per size.

    Returns the first witness in enumeration order, or UnknownAtBound;
    never Unsatisfiable, since capped enumeration proves nothing negative.
    Variables listed in universal_vars are forced true at every state
    instead of being enumerated. The formula's evaluation plan is built
    once and run on the int masks of each enumerated model; a KripkeModel
    is built only for the witness.
    """
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    if per_size_model_cap < 1:
        raise ValueError("per_size_model_cap must be >= 1")
    validate(phi, dialect)
    m = metrics(phi)
    plan = semantics._plan(phi)
    forced = frozenset(universal_vars)
    search_vars = sorted(set(m.variables) - forced)
    for size in range(1, max_states + 1):
        support = itertools.product(range(size), repeat=2) if dialect is Dialect.PRSPDL else ()
        stream = semantics._enumerate_masks(
            size, m.atoms, search_vars, dialect, support, forced
        )
        for masks in itertools.islice(stream, per_size_model_cap):
            holds = semantics._run(plan, masks)
            if holds:
                lowest = (holds & -holds).bit_length() - 1
                return SatResult(
                    Verdict.SATISFIABLE, Witness(semantics._model(masks), lowest), size
                )
    return SatResult(Verdict.UNKNOWN_AT_BOUND, None, max_states)


# ---------------------------------------------------------------------------
# Fischer-Ladner closure

# Saturation rule per closure formula, indexed over the closure list.
# ("var", index) | ("bot",) | ("imp", left, right) | ("boxa", atom, body)
# | ("boxs", unfolded) | ("boxc", left_unfold, right_unfold)
# | ("boxstar", body, step)

def _closure_list(phi: Formula) -> tuple[list[Formula], list[tuple]]:
    """Closure members in first-reached order, phi first, and the rule of
    each, whose closure members are given by their index in that order."""
    order: list[Formula] = []
    rules: list[tuple] = []
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        order.append(f)
        match f:
            case Var(index):
                rule, pushed = ("var", index), ()
            case Falsum():
                rule, pushed = ("bot",), ()
            case Implies(left, right):
                rule, pushed = ("imp", left, right), (right, left)
            case Box(Atomic(atom), body):
                rule, pushed = ("boxa", atom, body), (body,)
            case Box(Seq(first, second), body):
                rule = ("boxs", Box(first, Box(second, body)))
                pushed = (body, rule[1])
            case Box(Choice(first, second), body):
                rule = ("boxc", Box(first, body), Box(second, body))
                pushed = (body, rule[2], rule[1])
            case Box(Star(inner), body):
                rule = ("boxstar", body, Box(inner, f))
                pushed = (body, rule[2])
            case _:
                raise TypeError(f"not a regular-PDL formula: {f!r}")
        rules.append(rule)
        stack.extend(pushed)
    idx = {f: i for i, f in enumerate(order)}
    # the kind, a variable or an atom index stay; a formula becomes its index
    return order, [tuple(idx.get(part, part) for part in rule) for rule in rules]


def fl_closure(phi: Formula) -> frozenset[Formula]:
    """Fischer-Ladner closure of a regular-PDL formula.

    Closed under subformulas and single-step box unfolding for composition,
    choice, and iteration. Members are kept positive; the decision
    procedure tracks polarity separately, so each member stands for itself
    and its negation.
    """
    validate(phi, Dialect.PDL)
    return frozenset(_closure_list(phi)[0])


_BOX_KINDS = ("boxa", "boxs", "boxc", "boxstar")


def _saturate(seed: Iterable[int], rules: list[tuple]) -> list[frozenset[int]]:
    """All consistent saturations of the signed seed, deduplicated.

    Literal encoding: 2*i is 'formula i true', 2*i+1 is 'formula i false'.
    Decomposed formulas stay in the set, so a finished type records the
    polarity of everything processed and contradictions surface as a
    lit/complement clash.
    """
    results: list[frozenset[int]] = []
    emitted: set[frozenset[int]] = set()
    stack: list[tuple[set[int], list[int]]] = [(set(), list(seed))]
    while stack:
        assigned, pending = stack.pop()
        completed = True
        while pending:
            lit = pending.pop()
            if lit in assigned:
                continue
            if lit ^ 1 in assigned:
                completed = False
                break
            i, negated = lit >> 1, lit & 1
            rule = rules[i]
            kind = rule[0]
            if kind == "bot" and not negated:
                completed = False
                break
            assigned.add(lit)
            if kind == "imp":
                left, right = rule[1], rule[2]
                if negated:
                    pending.append(2 * left)
                    pending.append(2 * right + 1)
                else:
                    for branch in (2 * left + 1, 2 * right):
                        stack.append((set(assigned), pending + [branch]))
                    completed = False
                    break
            elif kind == "boxs":
                pending.append(2 * rule[1] + negated)
            elif kind == "boxc" or kind == "boxstar":
                first, second = rule[1], rule[2]
                if negated:
                    for branch in (2 * first + 1, 2 * second + 1):
                        stack.append((set(assigned), pending + [branch]))
                    completed = False
                    break
                else:
                    pending.append(2 * first)
                    pending.append(2 * second)
        if completed:
            node = frozenset(assigned)
            if node not in emitted:
                emitted.add(node)
                results.append(node)
    return results


def _fulfilled_pairs(
    nodes: list[frozenset[int]],
    rules: list[tuple],
    edges: dict[tuple[int, int], tuple[int, ...]],
    alive: set[int],
) -> dict[tuple[int, int], int]:
    """Least fixpoint of demand fulfillment over (type, formula) pairs.

    (n, i) is fulfilled when the demand 'formula i false' can bottom out
    through alive types in finitely many steps; the stored integer is the
    round it was established in, used to pick shortest-witness successors.
    """
    fulfilled: dict[tuple[int, int], int] = {}
    for nid in alive:
        for lit in nodes[nid]:
            if lit & 1 and rules[lit >> 1][0] not in _BOX_KINDS:
                fulfilled[(nid, lit >> 1)] = 0
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for nid in alive:
            node = nodes[nid]
            for lit in node:
                if not lit & 1:
                    continue
                i = lit >> 1
                if (nid, i) in fulfilled:
                    continue
                rule = rules[i]
                kind = rule[0]
                if kind == "boxa":
                    body = rule[2]
                    ok = any(
                        m in alive and (m, body) in fulfilled
                        for m in edges.get((nid, lit), ())
                    )
                elif kind == "boxs":
                    ok = (nid, rule[1]) in fulfilled
                elif kind in ("boxc", "boxstar"):
                    ok = any(
                        2 * u + 1 in node and (nid, u) in fulfilled
                        for u in (rule[1], rule[2])
                    )
                else:
                    continue
                if ok:
                    fulfilled[(nid, i)] = rounds
                    changed = True
    return fulfilled


def pdl_sat(phi: Formula, max_nodes: int = 100000) -> SatResult:
    """Complete satisfiability for regular PDL; see the module docstring."""
    validate(phi, Dialect.PDL)
    rules = _closure_list(phi)[1]

    nodes: list[frozenset[int]] = []
    node_ids: dict[frozenset[int], int] = {}
    seed_cache: dict[frozenset[int], list[frozenset[int]]] = {}

    def intern(node: frozenset[int]) -> int:
        nid = node_ids.get(node)
        if nid is None:
            if len(nodes) >= max_nodes:
                raise CapacityError(f"more than {max_nodes} types needed")
            nid = len(nodes)
            node_ids[node] = nid
            nodes.append(node)
        return nid

    def saturations(seed: list[int]) -> list[frozenset[int]]:
        key = frozenset(seed)
        cached = seed_cache.get(key)
        if cached is None:
            cached = _saturate(seed, rules)
            seed_cache[key] = cached
        return cached

    root_ids = [intern(node) for node in saturations([0])]  # phi is member 0
    edges: dict[tuple[int, int], tuple[int, ...]] = {}
    cursor = 0
    while cursor < len(nodes):
        nid = cursor
        cursor += 1
        node = nodes[nid]
        for lit in sorted(node):
            if lit & 1 and rules[lit >> 1][0] == "boxa":
                atom, body = rules[lit >> 1][1], rules[lit >> 1][2]
                seed = sorted(
                    2 * rules[other >> 1][2]
                    for other in node
                    if not other & 1
                    and rules[other >> 1][0] == "boxa"
                    and rules[other >> 1][1] == atom
                )
                seed.append(2 * body + 1)
                edges[(nid, lit)] = tuple(intern(s) for s in saturations(seed))

    alive = set(range(len(nodes)))
    while True:
        fulfilled = _fulfilled_pairs(nodes, rules, edges, alive)
        dead = set()
        for nid in alive:
            for lit in nodes[nid]:
                if (
                    lit & 1
                    and rules[lit >> 1][0] in _BOX_KINDS
                    and (nid, lit >> 1) not in fulfilled
                ):
                    dead.add(nid)
                    break
        if not dead:
            break
        alive -= dead

    surviving = [r for r in root_ids if r in alive]
    if not surviving:
        return SatResult(Verdict.UNSATISFIABLE)
    return SatResult(Verdict.SATISFIABLE, _extract_witness(
        phi, surviving[0], nodes, rules, edges, alive, fulfilled))


def _extract_witness(
    phi: Formula,
    root: int,
    nodes: list[frozenset[int]],
    rules: list[tuple],
    edges: dict[tuple[int, int], tuple[int, ...]],
    alive: set[int],
    fulfilled: dict[tuple[int, int], int],
) -> Witness:
    """Model over the demand-reachable surviving types, one successor per
    demand, chosen to fulfill star demands in the fewest rounds."""
    state_of = {root: 0}
    order = [root]
    relations: dict[int, set[tuple[int, int]]] = {}
    cursor = 0
    while cursor < len(order):
        nid = order[cursor]
        cursor += 1
        node = nodes[nid]
        for lit in sorted(node):
            if lit & 1 and rules[lit >> 1][0] == "boxa":
                atom, body = rules[lit >> 1][1], rules[lit >> 1][2]
                best = None
                for m in edges[(nid, lit)]:
                    if m in alive and (m, body) in fulfilled:
                        key = (fulfilled[(m, body)], m)
                        if best is None or key < best[0]:
                            best = (key, m)
                assert best is not None, "alive type with unfulfillable demand"
                target = best[1]
                if target not in state_of:
                    state_of[target] = len(order)
                    order.append(target)
                relations.setdefault(atom, set()).add((state_of[nid], state_of[target]))
    valuation: dict[int, set[int]] = {}
    for nid in order:
        for lit in nodes[nid]:
            if not lit & 1 and rules[lit >> 1][0] == "var":
                valuation.setdefault(rules[lit >> 1][1], set()).add(state_of[nid])
    model = KripkeModel(len(order), relations, valuation)
    if not semantics.check(model, 0, phi, Dialect.PDL):
        raise AssertionError("extracted witness failed model checking")
    return Witness(model, 0)
