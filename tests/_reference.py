"""Reference model checker, model enumerator and type elimination for the
tests: the frozenset fold that pdlkit.semantics used before its bitset
evaluator, the set-decoding enumerate_models that preceded its mask
enumerator, and the frozenset types and sweep-until-stable fulfilment
that pdl_sat used before its int-mask types and breadth-first pass.

Truth sets are frozensets of states and relations frozensets of pairs;
`*` is the naive pair fixpoint rtc_worklist, which shares no code with
the evaluator's closure, and `||` scans every pair of star entries. Models
are decoded from one tuple of bits each. Types are frozensets of signed
literals, and fulfilment rescans every alive type until nothing changes.
All are slow and plain, and the fast code must agree with them on every
input.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from pdlkit.decision import CapacityError, Verdict, _closure_list
from pdlkit.semantics import (
    EnumerationLimitError,
    KripkeModel,
    MissingStarError,
    ModelError,
    Pair,
    Relation,
    rtc_worklist,
)
from pdlkit.syntax import (
    Atomic,
    Box,
    Choice,
    Dialect,
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
                return rtc_worklist(results[0], model.num_states)

    return fold(root, visit)


def _star_entries(model: KripkeModel):
    if model.star is None:
        raise MissingStarError(
            "model has no star function but a PRSPDL construct was evaluated"
        )
    return model.star.items()


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


def enumerate_models(
    num_states: int,
    atoms: Iterable[int],
    variables: Iterable[int],
    dialect: Dialect,
    star_support: Iterable[Pair] = (),
    limit: Optional[int] = None,
) -> Iterator[KripkeModel]:
    """Yield every model over the signature, deterministically.

    Membership bits vary fastest over star entries, then valuations, then
    edges; the all-empty model comes first. For PRSPDL the star function is
    enumerated over star_support only. Raises EnumerationLimitError when
    more than `limit` models would be yielded.
    """
    if num_states < 1:
        raise ModelError("a model needs at least one state")
    atom_list = sorted(set(atoms))
    var_list = sorted(set(variables))
    pairs = list(itertools.product(range(num_states), repeat=2))
    edge_slots = [(a, p) for a in atom_list for p in pairs]
    val_slots = [(v, s) for v in var_list for s in range(num_states)]
    star_slots = (
        [(p, z) for p in sorted(set(star_support)) for z in range(num_states)]
        if dialect is Dialect.PRSPDL
        else []
    )
    total = len(edge_slots) + len(val_slots) + len(star_slots)
    count = 0
    for bits in itertools.product((False, True), repeat=total):
        if limit is not None and count >= limit:
            raise EnumerationLimitError(f"more than {limit} models requested")
        count += 1
        i = 0
        relations: dict[int, set[Pair]] = {}
        for a, p in edge_slots:
            if bits[i]:
                relations.setdefault(a, set()).add(p)
            i += 1
        valuation: dict[int, set[int]] = {}
        for v, s in val_slots:
            if bits[i]:
                valuation.setdefault(v, set()).add(s)
            i += 1
        star: Optional[dict[Pair, set[int]]] = None
        if dialect is Dialect.PRSPDL:
            star = {}
            for p, z in star_slots:
                if bits[i]:
                    star.setdefault(p, set()).add(z)
                i += 1
        yield KripkeModel(num_states, relations, valuation, star)


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


def pdl_sat_verdict(phi: Formula, max_nodes: int = 100000) -> Verdict:
    """pdl_sat's verdict by elimination over frozenset types, with the
    closure and its saturation rules from pdlkit.decision."""
    closure = _closure_list(phi)
    nodes: list[frozenset[int]] = []
    node_ids: dict[frozenset[int], int] = {}
    seed_cache: dict[frozenset[int], tuple[int, ...]] = {}

    def successors(seed: list[int]) -> tuple[int, ...]:
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

    root_ids = successors([0])
    demands: list[_Demands] = []
    while len(demands) < len(nodes):
        nid = len(demands)
        node = nodes[nid]
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
    if any(r in alive for r in root_ids):
        return Verdict.SATISFIABLE
    return Verdict.UNSATISFIABLE
