"""Satisfiability back-ends.

bounded_sat is a brute-force oracle for all three dialects: it searches
the first models of each size in the fixed enumeration order, thousands
per evaluation of the formula, bit-sliced over model-parallel planes, and
model-checks the first hit alone; a PRSPDL star function is searched
only when the formula reads it. It can only answer Satisfiable or
UnknownAtBound; caps make it incomplete by design.

pdl_sat decides regular PDL (no tests) by type elimination over the
Fischer-Ladner closure (Pratt, FOCS 1979), on two tables. The saturation
table gives each signed closure literal one rule: add all its parts, or
branch over them; a false member's rule is the dual of its true one.
Types are the saturated signed sets, each an int with bit lit set for
every signed literal lit in it, built only as reached from the goal
formula's own saturation by modal demands, not all exponentially many
subsets of the closure. The demand table lists, per type, each negated
member with the (type, member) pairs that fulfil it: the successor types
of a box [a]psi paired with psi, the unfolds of a composite box negated
in the same type, none for a member that is not a box. Elimination reads
only the demand table and its reverse index, from each pair to the
demands that list it. Each round, one breadth-first pass from the
demands that are not boxes finds, layer by layer, the least fixpoint:
the demands that bottom out through alive types in finitely many steps,
which star demands must. A type with fewer fulfilled demands than
demands is deleted, and rounds go on until none is. A surviving goal
type yields a witness model, one successor per modal demand, that is
verified by the model checker before the verdict is returned.

Types are built and eliminated in two passes. Pass 1 keeps only the
first saturation of each seed, and a branch tries its parts in rule
order, so a false [alpha*]psi tries ~psi, fulfilling it now, before
~[alpha][alpha*]psi. If the goal type survives there, its witness is the
answer. Otherwise, or once pass 1 needs more types than the ceiling,
pass 2 keeps every saturation, so every Unsatisfiable and every
CapacityError comes from the whole demand-reachable set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

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
    instead of being enumerated. Under PRSPDL the star function spans all
    state pairs when r1/r2/s1/s2 or || reads it, and is empty otherwise.
    The formula's evaluation plan is built once, and each size's first
    models are evaluated a chunk at a time, bit-sliced; only the first hit
    is decoded into a KripkeModel and checked by the model checker.
    """
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    if per_size_model_cap < 1:
        raise ValueError("per_size_model_cap must be >= 1")
    # loaded on first use: of the package's callers, only bounded search
    # needs it, and without cached bytecode every import compiles it
    from . import bitslice

    plan = semantics._plan(phi, dialect)
    forced = frozenset(universal_vars)
    search_vars = [v for v in plan.variables if v not in forced]
    for size in range(1, max_states + 1):
        pairs = list(itertools.product(range(size), repeat=2)) if plan.star else []
        support = pairs if dialect is Dialect.PRSPDL else None
        layout = semantics._layout(size, plan.atoms, search_vars, support, forced)
        hit = bitslice.first_hit(plan, layout, per_size_model_cap)
        if hit is not None:
            counter, state = hit
            model = semantics._decode(layout, counter)
            holds = semantics._run(plan, model)
            if (holds & -holds).bit_length() - 1 != state:
                raise AssertionError("bounded witness failed model checking")
            return SatResult(Verdict.SATISFIABLE, Witness(model, state), size)
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
) -> Iterator[int]:
    """The consistent saturations of the signed seed, deduplicated, each
    a type: an int with bit lit set for every literal lit in it.

    Decomposed literals stay in the type, so a finished type records the
    polarity of everything processed and contradictions surface as a
    lit/complement clash. A branch tries its parts in rule order.
    """
    emitted: set[int] = set()
    stack: list[tuple[int, list[int]]] = [(0, list(seed))]
    while stack:
        assigned, pending = stack.pop()
        while pending:
            lit = pending.pop()
            if assigned >> lit & 1:
                continue
            if assigned >> (lit ^ 1) & 1:
                break
            assigned |= 1 << lit
            branch, parts = expand[lit]
            if branch:
                stack.extend((assigned, pending + [part]) for part in reversed(parts))
                break
            pending.extend(parts)
        else:
            if assigned not in emitted:
                emitted.add(assigned)
                yield assigned


# A type's demands: each member negated in it, in increasing order, with
# the (type, member) pairs whose fulfilment fulfils it, or None when it is
# not a box. A pair (t, j) is held as the int t * width + j, width being
# the closure's size.
_Demands = dict[int, Optional[tuple[int, ...]]]


def _fulfilled_pairs(
    trivial: list[list[int]], users: dict[int, list[int]], alive: set[int], width: int
) -> dict[int, int]:
    """Least fixpoint of demand fulfilment over the pairs of alive types,
    breadth first, each pair mapped to its layer.

    A demand that is not a box (listed per type in trivial) is in layer 0;
    a box demand is in the layer after its first fulfilled alternative's,
    users mapping each pair to the demands that list it. The layer is kept
    to pick shortest-witness successors.
    """
    layer = [pair for nid in alive for pair in trivial[nid]]
    fulfilled = dict.fromkeys(layer, 0)
    rank = 0
    while layer:
        rank += 1
        following = []
        for pair in layer:
            for user in users.get(pair, ()):
                if user not in fulfilled and user // width in alive:
                    fulfilled[user] = rank
                    following.append(user)
        layer = following
    return fulfilled


def pdl_sat(phi: Formula, max_nodes: int = 100000) -> SatResult:
    """Complete satisfiability for regular PDL; see the module docstring.

    Pass 1 keeps each seed's first saturation, which fulfils a star
    demand before it defers it; pass 2 keeps them all, and runs only when
    pass 1's root type dies or needs more than max_nodes types.
    """
    validate(phi, Dialect.PDL)
    closure = _closure_list(phi)
    try:
        greedy = _decide(phi, closure, max_nodes, 1)
        if greedy.verdict is Verdict.SATISFIABLE:
            return greedy
    except CapacityError:
        pass
    return _decide(phi, closure, max_nodes, None)


def _decide(
    phi: Formula, closure: _Closure, max_nodes: int, per_seed: Optional[int]
) -> SatResult:
    """Elimination over the types reached from phi when each seed keeps
    its first per_seed saturations (all of them when None): Unsatisfiable
    when the root types all die, else a witness from a surviving one."""
    nodes: list[int] = []
    node_ids: dict[int, int] = {}
    seed_cache: dict[int, tuple[int, ...]] = {}

    def successors(bodies: int, lit: int) -> tuple[int, ...]:
        """Ids of the saturations of the literals in bodies, then lit; new
        types are numbered on first sight."""
        key = bodies | 1 << lit
        if key not in seed_cache:
            ids = []
            seed = [*semantics._bits(bodies), lit]
            for node in itertools.islice(_saturate(seed, closure.expand), per_seed):
                nid = node_ids.setdefault(node, len(nodes))
                if nid == len(nodes):
                    if nid >= max_nodes:
                        raise CapacityError(f"more than {max_nodes} types needed")
                    nodes.append(node)
                ids.append(nid)
            seed_cache[key] = tuple(ids)
        return seed_cache[key]

    width = len(closure.members)
    true_boxes = semantics._mask(2 * i for i in closure.modal)
    negated = semantics._mask(2 * i + 1 for i in range(width))
    root_ids = successors(0, 0)  # phi is member 0
    demands: list[_Demands] = []
    trivial: list[list[int]] = []
    users: dict[int, list[int]] = {}
    while len(demands) < len(nodes):
        nid = len(demands)
        node = nodes[nid]
        base = nid * width
        # per atom, the bodies of its boxes true in the type, as true literals
        bodies: dict[int, int] = {}
        for lit in semantics._bits(node & true_boxes):
            atom, body = closure.modal[lit >> 1]
            bodies[atom] = bodies.get(atom, 0) | 1 << 2 * body
        demand: _Demands = dict.fromkeys(lit >> 1 for lit in semantics._bits(node & negated))
        plain = []
        # successors are numbered in member order
        for i in demand:
            if i in closure.modal:
                atom, body = closure.modal[i]
                alternatives = tuple(
                    m * width + body for m in successors(bodies.get(atom, 0), 2 * body + 1)
                )
            elif i in closure.unfolds:
                alternatives = tuple(
                    base + u for u in closure.unfolds[i] if node >> (2 * u + 1) & 1
                )
            else:
                plain.append(base + i)
                continue
            demand[i] = alternatives
            for pair in alternatives:
                users.setdefault(pair, []).append(base + i)
        demands.append(demand)
        trivial.append(plain)

    alive = set(range(len(nodes)))
    while True:
        fulfilled = _fulfilled_pairs(trivial, users, alive, width)
        done = [0] * len(nodes)
        for pair in fulfilled:
            done[pair // width] += 1
        dead = {nid for nid in alive if done[nid] < len(demands[nid])}
        if not dead:
            break
        alive -= dead

    surviving = [r for r in root_ids if r in alive]
    if not surviving:
        return SatResult(Verdict.UNSATISFIABLE)
    return SatResult(Verdict.SATISFIABLE, _extract_witness(
        phi, surviving[0], nodes, closure, demands, fulfilled, width))


def _extract_witness(
    phi: Formula,
    root: int,
    nodes: list[int],
    closure: _Closure,
    demands: list[_Demands],
    fulfilled: dict[int, int],
    width: int,
) -> Witness:
    """Model over the demand-reachable surviving types, one successor per
    modal demand, chosen to fulfil star demands in the fewest layers."""
    state_of = {root: 0}
    order = [root]  # grows while it is walked
    relations: dict[int, set[tuple[int, int]]] = {}
    for nid in order:
        for i in demands[nid]:
            if i in closure.modal:
                _, target = min(
                    (fulfilled[p], p // width) for p in demands[nid][i] if p in fulfilled
                )
                if target not in state_of:
                    state_of[target] = len(order)
                    order.append(target)
                relations.setdefault(closure.modal[i][0], set()).add(
                    (state_of[nid], state_of[target]))
    valuation: dict[int, set[int]] = {}
    true_variables = semantics._mask(2 * i for i in closure.variables)
    for nid, state in state_of.items():
        for lit in semantics._bits(nodes[nid] & true_variables):
            valuation.setdefault(closure.variables[lit >> 1], set()).add(state)
    model = KripkeModel(len(state_of), relations, valuation)
    if not semantics.check(model, 0, phi, Dialect.PDL):
        raise AssertionError("extracted witness failed model checking")
    return Witness(model, 0)
