"""Satisfiability back-ends.

bounded_sat is a brute-force oracle for all three dialects: it streams
small models in a fixed order, as the int masks the model checker works
on, and evaluates the formula on each. It can only answer Satisfiable or
UnknownAtBound; caps make it incomplete by design.

pdl_sat decides regular PDL (no tests) by type elimination over the
Fischer-Ladner closure (Pratt, FOCS 1979), on two tables. The saturation
table gives each signed closure literal one rule: add all its parts, or
branch over them; a false member's rule is the dual of its true one.
Types are the saturated signed sets, built only as reached from the goal
formula's own saturation by modal demands, not all exponentially many
subsets of the closure. The demand table lists, per type, each negated
member with the (type, member) pairs that fulfil it: the successor types
of a box [a]psi paired with psi, the unfolds of a composite box negated
in the same type, none for a member that is not a box. Elimination reads
only the demand table: a least fixpoint over (type, member) pairs finds
the demands that bottom out through alive types in finitely many steps,
which star demands must, and each round deletes the types with a demand
left over, until none is. A surviving goal type yields a witness model,
one successor per modal demand, that is verified by the model checker
before the verdict is returned.
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

class _Closure(NamedTuple):
    """Closure members, phi first, each referred to by its index i; the
    signed literal 2*i says 'member i true' and 2*i+1 'member i false'."""

    members: list[Formula]
    # per literal: (branch, parts); saturation adds all parts, or with
    # branch set tries each part in its own branch (no parts: it closes)
    expand: list[tuple[bool, tuple[int, ...]]]
    modal: dict[int, tuple[int, int]]  # [a]psi -> (a, psi)
    unfolds: dict[int, tuple[int, ...]]  # [alpha;beta]psi, [alpha u beta]psi, [alpha*]psi
    variables: dict[int, int]  # p_k -> k


def _closure_list(phi: Formula) -> _Closure:
    """The closure in first-reached order, with its saturation rules."""
    members: list[Formula] = []
    # per member, the rule of 'member true' over (formula, negated) parts,
    # or None when both of its literals only record themselves
    rules: list[Optional[tuple[bool, tuple[tuple[Formula, int], ...]]]] = []
    modal: dict[int, tuple[int, Formula]] = {}
    unfolds: list[int] = []
    variables: dict[int, int] = {}
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        i = len(members)
        members.append(f)
        rule, unfold = None, ()
        match f:
            case Var(index):
                variables[i] = index
                pushed = ()
            case Falsum():
                rule, pushed = (True, ()), ()  # true branches over nothing: it closes
            case Implies(left, right):
                rule, pushed = (True, ((left, 1), (right, 0))), (right, left)
            case Box(Atomic(atom), body):
                modal[i] = (atom, body)
                pushed = (body,)
            case Box(Seq(first, second), body):
                unfold = (Box(first, Box(second, body)),)
                pushed = (body, *unfold)
            case Box(Choice(first, second), body):
                unfold = (Box(first, body), Box(second, body))
                pushed = (body, *reversed(unfold))
            case Box(Star(inner), body):
                unfold = (body, Box(inner, f))
                pushed = unfold
            case _:
                raise TypeError(f"not a regular-PDL formula: {f!r}")
        if unfold:
            unfolds.append(i)
            rule = (False, tuple((u, 0) for u in unfold))  # true when every unfold is
        rules.append(rule)
        stack.extend(pushed)
    index = {f: i for i, f in enumerate(members)}
    expand: list[tuple[bool, tuple[int, ...]]] = []
    for rule in rules:
        if rule is None:
            expand += [(False, ()), (False, ())]  # nothing to add
        else:
            # 'member false' is the dual rule: the other choice over the negated parts
            branch, parts = rule
            lits = tuple(2 * index[g] + negated for g, negated in parts)
            expand += [(branch, lits), (not branch, tuple(lit ^ 1 for lit in lits))]
    return _Closure(
        members,
        expand,
        {i: (atom, index[body]) for i, (atom, body) in modal.items()},
        {i: tuple(lit >> 1 for lit in expand[2 * i][1]) for i in unfolds},
        variables,
    )


def fl_closure(phi: Formula) -> frozenset[Formula]:
    """Fischer-Ladner closure of a regular-PDL formula.

    Closed under subformulas and single-step box unfolding for composition,
    choice, and iteration. Members are kept positive; the decision
    procedure tracks polarity separately, so each member stands for itself
    and its negation.
    """
    validate(phi, Dialect.PDL)
    return frozenset(_closure_list(phi).members)


def _saturate(
    seed: Iterable[int], expand: list[tuple[bool, tuple[int, ...]]]
) -> list[frozenset[int]]:
    """All consistent saturations of the signed seed, deduplicated.

    Decomposed literals stay in the set, so a finished type records the
    polarity of everything processed and contradictions surface as a
    lit/complement clash.
    """
    results: list[frozenset[int]] = []
    emitted: set[frozenset[int]] = set()
    stack: list[tuple[set[int], list[int]]] = [(set(), list(seed))]
    while stack:
        assigned, pending = stack.pop()
        while pending:
            lit = pending.pop()
            if lit in assigned:
                continue
            if lit ^ 1 in assigned:
                break
            assigned.add(lit)
            branch, parts = expand[lit]
            if branch:
                stack.extend((set(assigned), pending + [part]) for part in parts)
                break
            pending.extend(parts)
        else:
            node = frozenset(assigned)
            if node not in emitted:
                emitted.add(node)
                results.append(node)
    return results


# A type's demands: each member negated in it, with the (type, member)
# pairs whose fulfilment fulfils it, or None when it is not a box.
_Demands = dict[int, Optional[tuple[tuple[int, int], ...]]]


def _fulfilled_pairs(demands: list[_Demands], alive: set[int]) -> dict[tuple[int, int], int]:
    """Least fixpoint of demand fulfilment over (type, member) pairs.

    A demand that is not a box is fulfilled in round 0; a box demand in
    the first round after one of its alternatives is, which only pairs of
    alive types can be. The round is kept to pick shortest-witness
    successors.
    """
    fulfilled = {
        (nid, i): 0
        for nid in alive
        for i, alternatives in demands[nid].items()
        if alternatives is None
    }
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for nid in alive:
            for i, alternatives in demands[nid].items():
                if (nid, i) not in fulfilled and any(p in fulfilled for p in alternatives):
                    fulfilled[(nid, i)] = rounds
                    changed = True
    return fulfilled


def pdl_sat(phi: Formula, max_nodes: int = 100000) -> SatResult:
    """Complete satisfiability for regular PDL; see the module docstring."""
    validate(phi, Dialect.PDL)
    closure = _closure_list(phi)

    nodes: list[frozenset[int]] = []
    node_ids: dict[frozenset[int], int] = {}
    seed_cache: dict[frozenset[int], tuple[int, ...]] = {}

    def successors(seed: list[int]) -> tuple[int, ...]:
        """Ids of the saturations of seed; new types are numbered on first sight."""
        key = frozenset(seed)
        if key not in seed_cache:
            ids = []
            for node in _saturate(seed, closure.expand):
                nid = node_ids.setdefault(node, len(nodes))
                if nid == len(nodes):
                    if nid >= max_nodes:
                        raise CapacityError(f"more than {max_nodes} types needed")
                    nodes.append(node)
                ids.append(nid)
            seed_cache[key] = tuple(ids)
        return seed_cache[key]

    root_ids = successors([0])  # phi is member 0
    demands: list[_Demands] = []
    while len(demands) < len(nodes):
        nid = len(demands)
        node = nodes[nid]
        # fulfilment visits demands in the type's own order, successors are
        # numbered in member order
        demand: _Demands = dict.fromkeys(lit >> 1 for lit in node if lit & 1)
        boxes = [
            closure.modal[lit >> 1] for lit in node if not lit & 1 and lit >> 1 in closure.modal
        ]
        for i in sorted(demand):
            if i in closure.modal:
                atom, body = closure.modal[i]
                seed = sorted(2 * psi for a, psi in boxes if a == atom) + [2 * body + 1]
                demand[i] = tuple((m, body) for m in successors(seed))
            elif i in closure.unfolds:
                demand[i] = tuple((nid, u) for u in closure.unfolds[i] if 2 * u + 1 in node)
        demands.append(demand)

    alive = set(range(len(nodes)))
    while True:
        fulfilled = _fulfilled_pairs(demands, alive)
        dead = {nid for nid in alive if any((nid, i) not in fulfilled for i in demands[nid])}
        if not dead:
            break
        alive -= dead

    surviving = [r for r in root_ids if r in alive]
    if not surviving:
        return SatResult(Verdict.UNSATISFIABLE)
    return SatResult(Verdict.SATISFIABLE, _extract_witness(
        phi, surviving[0], nodes, closure, demands, fulfilled))


def _extract_witness(
    phi: Formula,
    root: int,
    nodes: list[frozenset[int]],
    closure: _Closure,
    demands: list[_Demands],
    fulfilled: dict[tuple[int, int], int],
) -> Witness:
    """Model over the demand-reachable surviving types, one successor per
    modal demand, chosen to fulfil star demands in the fewest rounds."""
    state_of = {root: 0}
    order = [root]  # grows while it is walked
    relations: dict[int, set[tuple[int, int]]] = {}
    for nid in order:
        for i in sorted(demands[nid]):
            if i in closure.modal:
                _, target = min((fulfilled[p], p[0]) for p in demands[nid][i] if p in fulfilled)
                if target not in state_of:
                    state_of[target] = len(order)
                    order.append(target)
                relations.setdefault(closure.modal[i][0], set()).add(
                    (state_of[nid], state_of[target]))
    valuation: dict[int, set[int]] = {}
    for nid, state in state_of.items():
        for lit in nodes[nid]:
            if not lit & 1 and lit >> 1 in closure.variables:
                valuation.setdefault(closure.variables[lit >> 1], set()).add(state)
    model = KripkeModel(len(state_of), relations, valuation)
    if not semantics.check(model, 0, phi, Dialect.PDL):
        raise AssertionError("extracted witness failed model checking")
    return Witness(model, 0)
