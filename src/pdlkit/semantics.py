"""Finite Kripke models and explicit-state model checking for the three dialects.

Models are immutable. PRSPDL models additionally carry a composition
function star : S x S -> 2^S, stored sparsely; pairs without an entry
compose to the empty set. PDL and IPDL never consult star.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .syntax import (
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
    validate,
)

Pair = tuple[int, int]
Relation = frozenset[Pair]


class ModelError(ValueError):
    """Malformed model or model/formula mismatch."""


class MissingStarError(ModelError):
    """A PRSPDL construct was evaluated on a model without a star function."""


class EnumerationLimitError(RuntimeError):
    """enumerate_models was asked to yield more models than its cap allows."""


@dataclass(frozen=True)
class KripkeModel:
    """A finite Kripke model with states 0..num_states-1.

    relations maps atom index -> set of (source, target) pairs; valuation
    maps variable index -> set of states; star, when present, maps a state
    pair (x, y) to the set of states composed from x and y.
    """

    num_states: int
    relations: Mapping[int, Relation] = field(default_factory=dict)
    valuation: Mapping[int, frozenset[int]] = field(default_factory=dict)
    star: Optional[Mapping[Pair, frozenset[int]]] = None

    def __post_init__(self):
        if self.num_states < 1:
            raise ModelError("a model needs at least one state")
        rng = range(self.num_states)
        relations = {}
        for atom, pairs in self.relations.items():
            if atom < 1:
                raise ModelError(f"atom index must be >= 1, got {atom}")
            pairs = frozenset((int(s), int(t)) for s, t in pairs)
            for s, t in pairs:
                if s not in rng or t not in rng:
                    raise ModelError(f"edge ({s},{t}) references a missing state")
            if pairs:
                relations[atom] = pairs
        valuation = {}
        for var, states in self.valuation.items():
            if var < 1:
                raise ModelError(f"variable index must be >= 1, got {var}")
            states = frozenset(int(s) for s in states)
            for s in states:
                if s not in rng:
                    raise ModelError(f"valuation of p{var} references missing state {s}")
            if states:
                valuation[var] = states
        star = None
        if self.star is not None:
            star = {}
            for (x, y), result in self.star.items():
                if x not in rng or y not in rng:
                    raise ModelError(f"star entry ({x},{y}) references a missing state")
                result = frozenset(int(z) for z in result)
                for z in result:
                    if z not in rng:
                        raise ModelError(f"star({x},{y}) contains missing state {z}")
                if result:
                    star[(int(x), int(y))] = result
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "star", star)

    @property
    def states(self) -> range:
        return range(self.num_states)

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.relations == other.relations
            and self.valuation == other.valuation
            and self.star == other.star
        )

    def __hash__(self):
        return hash((self.num_states, frozenset(self.relations.items()),
                     frozenset(self.valuation.items())))


# ---------------------------------------------------------------------------
# Closures

def rtc_matrix(pairs: Iterable[Pair], num_states: int) -> Relation:
    """Reflexive-transitive closure by repeated squaring of the adjacency matrix."""
    m = np.zeros((num_states, num_states), dtype=bool)
    for s, t in pairs:
        m[s, t] = True
    m |= np.eye(num_states, dtype=bool)
    while True:
        squared = np.matmul(m, m)
        if np.array_equal(squared, m):
            break
        m = squared
    xs, ts = np.nonzero(m)
    return frozenset(zip(xs.tolist(), ts.tolist()))


def rtc_worklist(pairs: Iterable[Pair], num_states: int) -> Relation:
    """Reflexive-transitive closure by naive fixpoint iteration (cross-check oracle)."""
    closure = {(s, s) for s in range(num_states)}
    closure.update((int(s), int(t)) for s, t in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    return frozenset(closure)


# ---------------------------------------------------------------------------
# Evaluation: relations and satisfaction by simultaneous induction

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


def relation_of(model: KripkeModel, alpha: Program, dialect: Dialect) -> Relation:
    """Accessibility relation of a compound program term."""
    validate(alpha, dialect)
    return _evaluate(model, alpha)


def truth_set(model: KripkeModel, phi: Formula, dialect: Dialect) -> frozenset[int]:
    """All states satisfying phi, with subterm results cached across the formula."""
    validate(phi, dialect)
    return _evaluate(model, phi)


def check(model: KripkeModel, state: int, phi: Formula, dialect: Dialect) -> bool:
    """Truth of phi at one state."""
    if state not in model.states:
        raise ModelError(f"state {state} not in model with {model.num_states} states")
    return state in truth_set(model, phi, dialect)


# ---------------------------------------------------------------------------
# Model generation

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


def random_model(
    num_states: int,
    atoms: Iterable[int],
    variables: Iterable[int],
    edge_probability: float,
    seed: int,
    star_probability: Optional[float] = None,
) -> KripkeModel:
    """Random model, a deterministic function of the seed.

    Each edge and valuation membership is included independently with
    edge_probability. When star_probability is given, the result carries a
    star function with each membership z in x*y drawn at that probability.
    """
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    states = range(num_states)
    relations = {
        a: {(s, t) for s in states for t in states if rng.random() < edge_probability}
        for a in sorted(set(atoms))
    }
    valuation = {
        v: {s for s in states if rng.random() < edge_probability}
        for v in sorted(set(variables))
    }
    star = None
    if star_probability is not None:
        star = {
            (x, y): {z for z in states if rng.random() < star_probability}
            for x in states
            for y in states
        }
    return KripkeModel(num_states, relations, valuation, star)


# ---------------------------------------------------------------------------
# JSON persistence

def model_to_json(model: KripkeModel) -> str:
    """Canonical JSON rendering; model_from_json inverts it exactly."""
    obj: dict = {
        "states": model.num_states,
        "relations": {
            f"a{a}": [list(p) for p in sorted(model.relations[a])]
            for a in sorted(model.relations)
        },
        "valuation": {
            f"p{v}": sorted(model.valuation[v]) for v in sorted(model.valuation)
        },
    }
    if model.star is not None:
        obj["star"] = [
            [x, y, sorted(model.star[(x, y)])] for x, y in sorted(model.star)
        ]
    return json.dumps(obj, indent=2)


def model_from_json(text: str) -> KripkeModel:
    """Parse the JSON model format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError(f"malformed model JSON: {err}") from None
    if not isinstance(obj, dict) or "states" not in obj:
        raise ModelError("model JSON must be an object with a 'states' field")
    def parse_index(name: str, prefix: str) -> int:
        if not name.startswith(prefix) or not name[1:].isdigit():
            raise ModelError(f"bad key {name!r}, expected {prefix}<index>")
        return int(name[1:])

    def integer(value) -> int:
        # bool is a subclass of int, and floats and strings would be coerced
        if type(value) is not int:
            raise ModelError(f"expected a JSON integer, got {value!r}")
        return value

    try:
        relations = {
            parse_index(name, "a"): {(integer(s), integer(t)) for s, t in pairs}
            for name, pairs in obj.get("relations", {}).items()
        }
        valuation = {
            parse_index(name, "p"): {integer(s) for s in states}
            for name, states in obj.get("valuation", {}).items()
        }
        star = None
        if "star" in obj:
            star = {(integer(x), integer(y)): {integer(z) for z in zs} for x, y, zs in obj["star"]}
        return KripkeModel(integer(obj["states"]), relations, valuation, star)
    except (TypeError, ValueError, KeyError) as err:
        if isinstance(err, ModelError):
            raise
        raise ModelError(f"malformed model JSON: {err}") from None


def save_model(model: KripkeModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model) + "\n")


def load_model(path) -> KripkeModel:
    with open(path, encoding="utf-8") as handle:
        return model_from_json(handle.read())
