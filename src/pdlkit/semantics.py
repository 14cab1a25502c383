"""Finite Kripke models and explicit-state model checking for the three dialects.

Models are immutable and hold the int masks the evaluator reads. PRSPDL
models additionally carry a composition function star : S x S -> 2^S,
stored sparsely; pairs without an entry compose to the empty set. PDL and
IPDL never consult star.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

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
    admits,
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


@dataclass(frozen=True, init=False)
class KripkeModel:
    """A finite Kripke model with states 0..num_states-1, held as int masks.

    rows maps atom index -> a tuple of successor masks, one per state;
    truth maps variable index -> the mask of the states where it holds;
    stars, when present, maps a state pair (x, y) to the mask of the states
    composed from x and y. Empty entries are dropped. The constructor takes
    pairs and state sets; relations, valuation and star are the same model
    in that form, each built on first read.
    """

    num_states: int
    rows: dict[int, tuple[int, ...]]
    truth: dict[int, int]
    stars: Optional[dict[Pair, int]]

    def __init__(
        self,
        num_states: int,
        relations: Mapping[int, Iterable[Pair]] = {},
        valuation: Mapping[int, Iterable[int]] = {},
        star: Optional[Mapping[Pair, Iterable[int]]] = None,
    ):
        if num_states < 1:
            raise ModelError("a model needs at least one state")

        def state(s, where: str) -> int:
            s = int(s)
            if not 0 <= s < num_states:
                raise ModelError(f"{where} references missing state {s}")
            return s

        def mask(states: Iterable, where: str) -> int:
            return _mask(state(s, where) for s in states)

        rows = {}
        for atom, pairs in relations.items():
            if atom < 1:
                raise ModelError(f"atom index must be >= 1, got {atom}")
            where = f"relation a{atom}"
            checked = ((state(s, where), state(t, where)) for s, t in pairs)
            rows[atom] = _rows(checked, num_states)
        truth = {}
        for var, members in valuation.items():
            if var < 1:
                raise ModelError(f"variable index must be >= 1, got {var}")
            truth[var] = mask(members, f"valuation of p{var}")
        stars = None
        if star is not None:
            stars = {}
            for (x, y), result in star.items():
                where = f"star entry ({x},{y})"
                stars[state(x, where), state(y, where)] = mask(result, f"star({x},{y})")
        self._store(num_states, rows, truth, stars)

    @classmethod
    def _of(cls, num_states: int, rows: dict, truth: dict, stars: Optional[dict]):
        """The model with these masks, unchecked: each must lie in range,
        and each atom needs num_states rows."""
        model = object.__new__(cls)
        model._store(num_states, rows, truth, stars)
        return model

    def _store(self, num_states, rows, truth, stars) -> None:
        # the one normal form: rows as tuples, and no empty entry
        if stars is not None:
            stars = {p: mask for p, mask in stars.items() if mask}
        object.__setattr__(self, "num_states", num_states)
        object.__setattr__(self, "rows", {a: tuple(r) for a, r in rows.items() if any(r)})
        object.__setattr__(self, "truth", {v: mask for v, mask in truth.items() if mask})
        object.__setattr__(self, "stars", stars)

    @property
    def states(self) -> range:
        return range(self.num_states)

    @cached_property
    def relations(self) -> dict[int, Relation]:
        return {a: _pairs(rows) for a, rows in self.rows.items()}

    @cached_property
    def valuation(self) -> dict[int, frozenset[int]]:
        return {v: frozenset(_bits(mask)) for v, mask in self.truth.items()}

    @cached_property
    def star(self) -> Optional[dict[Pair, frozenset[int]]]:
        if self.stars is None:
            return None
        return {p: frozenset(_bits(mask)) for p, mask in self.stars.items()}

    def __hash__(self):
        return hash((self.num_states, frozenset(self.rows.items()),
                     frozenset(self.truth.items())))


# ---------------------------------------------------------------------------
# Closures

def rtc_matrix(pairs: Iterable[Pair], num_states: int) -> Relation:
    """Reflexive-transitive closure of a pair set: the evaluator's `*`
    (_star: components by depth-first search, Warshall below 20 states) on
    its successor masks."""
    return _pairs(_star(_rows(pairs, num_states)))


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
# Evaluation: bottom-up labelling over a plan
#
# A plan lists a formula's or program's distinct subterms in post-order, each
# with the plan slots of its children, so every subterm is evaluated once and
# after its children (Clarke, Emerson & Sistla, TOPLAS 1986). A truth set is
# an int whose bit s is set when state s satisfies the formula; a relation is
# a list of successor masks, one per source state.


class _Plan(NamedTuple):
    """A term's distinct subterms in post-order, each with the plan slots of
    its children, and the signature of the models bounded search builds
    for it: the atoms and the variables it names, in increasing order, and
    whether a Special or || reads the star function."""

    steps: list[tuple[object, list[int]]]
    atoms: list[int]
    variables: list[int]
    star: bool


def _plan(root: Formula | Program, dialect: Dialect) -> _Plan:
    """The plan of a term; raises DialectError, as validate does, if the
    term uses a program constructor outside the dialect."""
    steps: list[tuple[object, list[int]]] = []
    atoms: list[int] = []
    variables: list[int] = []
    kinds: set[type] = set()

    def visit(node, slots):
        kind = type(node)
        kinds.add(kind)
        if kind is Atomic:
            atoms.append(node.index)
        elif kind is Var:
            variables.append(node.index)
        steps.append((node, slots))
        return len(steps) - 1

    # nodes are interned and fold visits each once, so no index repeats
    fold(root, visit)
    if not admits(dialect, kinds):
        validate(root, dialect)  # names the first foreign constructor
    return _Plan(steps, sorted(atoms), sorted(variables), Special in kinds or Par in kinds)


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, in increasing order."""
    # the binary digits, lowest first, as bytes 0/1 select from 0, 1, 2, ...
    return itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGITS))


def _mask(states: Iterable[int]) -> int:
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def _image(rows: list[int], mask: int) -> int:
    """OR of the rows at the bits of mask: the successors of a set of states."""
    reached = 0
    for t in _bits(mask):
        reached |= rows[t]
    return reached


def _rows(pairs: Iterable[Pair], num_states: int) -> list[int]:
    """A relation as successor masks, one per source state."""
    rows = [0] * num_states
    for s, t in pairs:
        rows[s] |= 1 << t
    return rows


def _pairs(rows: list[int]) -> Relation:
    """The pairs of a relation held as successor masks."""
    return frozenset((s, t) for s, row in enumerate(rows) for t in _bits(row))


def _star_entries(model):
    """The star masks of a model, or the star planes of a bitslice.Chunk."""
    if model.stars is None:
        raise MissingStarError(
            "model has no star function but a PRSPDL construct was evaluated"
        )
    return model.stars


def _special(model: KripkeModel, kind: str) -> list[int]:
    # s is composed from x and y (s in x*y): r1/r2 lead from s to x/y,
    # s1/s2 from x/y to s
    rows = [0] * model.num_states
    for (x, y), result in _star_entries(model).items():
        part = x if kind[1] == "1" else y
        if kind[0] == "r":
            for s in _bits(result):
                rows[s] |= 1 << part
        else:
            rows[part] |= result
    return rows


def _par(model: KripkeModel, left: list[int], right: list[int]) -> list[int]:
    # s -> t when s in x1*x2, t in y1*y2, x1 -> y1 by left and x2 -> y2 by
    # right; targets are looked up by (y1, y2) instead of scanning every entry
    targets = _star_entries(model)
    rows = [0] * model.num_states
    for (x1, x2), sources in targets.items():
        reached = 0
        seconds = list(_bits(right[x2]))
        for y1 in _bits(left[x1]):
            for y2 in seconds:
                reached |= targets.get((y1, y2), 0)
        if reached:
            for s in _bits(sources):
                rows[s] |= reached
    return rows


# Below this many states Warshall's n² steps cost less than the component
# search's bookkeeping (the crossover measured on the benchmark's stars).
_SCC_MIN_STATES = 20


def _star(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of successor masks.

    From _SCC_MIN_STATES states on, an iterative depth-first search finds
    the strongly connected components by Gabow's path-based method (IPL
    2000; the cycle merging of Purdom, BIT 1970) and closes each as it
    finishes, sinks first: a component reaches its members and the
    closures of the components its members' rows enter. Smaller relations
    take a Warshall pass.
    """
    n = len(rows)
    if n < _SCC_MIN_STATES:
        rows = [row | 1 << s for s, row in enumerate(rows)]
        # rows is updated in place, so `through` is row k after rounds 0..k-1
        for k, through in enumerate(rows):
            bit = 1 << k
            if through == bit:  # k reaches only itself
                continue
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | through
        return rows
    closure = [0] * n
    pending = [0] * n  # successors not yet visited when their source was
    visited = opened = 0  # opened: visited, component not yet closed
    for root in range(n):
        if visited >> root & 1:
            continue
        path = [root]
        # the open groups along the path, deepest last: their first state,
        # their states and the OR of their rows
        firsts, groups, outs = [root], [1 << root], [rows[root]]
        visited |= 1 << root
        opened |= 1 << root
        pending[root] = rows[root] & ~visited
        while path:
            v = path[-1]
            rest = pending[v] & ~visited
            if rest:
                bit = rest & -rest
                pending[v] = rest ^ bit
                w = bit.bit_length() - 1
                row = rows[w]
                visited |= bit
                opened |= bit
                pending[w] = row & ~visited
                path.append(w)
                firsts.append(w)
                groups.append(bit)
                outs.append(row)
                # an edge back into an open group closes a cycle through
                # every group above it on the path: merge them
                back = row & opened
                while back & ~groups[-1]:
                    firsts.pop()
                    members, out = groups.pop(), outs.pop()
                    groups[-1] |= members
                    outs[-1] |= out
                continue
            path.pop()
            if firsts[-1] != v:
                continue
            # v's group is a component, and every component it enters is closed
            firsts.pop()
            members = groups.pop()
            out = outs.pop() & ~members
            reach = members
            while out:
                bit = out & -out
                reach |= closure[bit.bit_length() - 1]
                out = (out ^ bit) & ~reach
            opened ^= members
            while members:
                bit = members & -members
                closure[bit.bit_length() - 1] = reach
                members ^= bit
    return closure


def _run(plan: _Plan, model: KripkeModel) -> int | list[int]:
    """The plan's last entry on the model: a truth mask or successor masks."""
    n = model.num_states
    full = (1 << n) - 1
    values: list = []
    for node, slots in plan.steps:
        kind = type(node)
        if kind is Var:
            value = model.truth.get(node.index, 0)
        elif kind is Falsum:
            value = 0
        elif kind is Implies:
            value = (full ^ values[slots[0]]) | values[slots[1]]
        elif kind is Box:
            rows, failing = values[slots[0]], full ^ values[slots[1]]
            value = 0
            for s, row in enumerate(rows):
                if not row & failing:
                    value |= 1 << s
        elif kind is Atomic:
            value = model.rows.get(node.index) or [0] * n
        elif kind is Special:
            value = _special(model, node.kind)
        elif kind is Test:
            holds = values[slots[0]]
            value = [holds & 1 << s for s in range(n)]
        elif kind is Seq:
            right = values[slots[1]]
            value = [_image(right, row) for row in values[slots[0]]]
        elif kind is Choice:
            value = [a | b for a, b in zip(values[slots[0]], values[slots[1]])]
        elif kind is Inter:
            value = [a & b for a, b in zip(values[slots[0]], values[slots[1]])]
        elif kind is Par:
            value = _par(model, values[slots[0]], values[slots[1]])
        else:  # Star
            value = _star(values[slots[0]])
        values.append(value)
    return values[-1]


def relation_of(model: KripkeModel, alpha: Program, dialect: Dialect) -> Relation:
    """Accessibility relation of a compound program term."""
    return _pairs(_run(_plan(alpha, dialect), model))


def truth_set(model: KripkeModel, phi: Formula, dialect: Dialect) -> frozenset[int]:
    """All states satisfying phi; each distinct subterm is evaluated once."""
    return frozenset(_bits(_run(_plan(phi, dialect), model)))


def check(model: KripkeModel, state: int, phi: Formula, dialect: Dialect) -> bool:
    """Truth of phi at one state."""
    if state not in model.states:
        raise ModelError(f"state {state} not in model with {model.num_states} states")
    return bool(_run(_plan(phi, dialect), model) >> state & 1)


# ---------------------------------------------------------------------------
# Model enumeration: one slot layout
#
# The models over a signature are read off an enumeration counter. A model
# is N membership bits, its slots, in rows of n bits: row j*n + s holds the
# successors of state s under the j-th atom, then come one row per variable
# and one per star pair. Bit t of row r is counter bit N-1-(r*n+t), so
# counting up varies the last slot fastest.


class _Layout(NamedTuple):
    """The slots of the models over a signature: atoms, variables and star
    pairs in increasing order (support is None outside PRSPDL), the
    variables forced true at every state, and the slot count N."""

    num_states: int
    atoms: list[int]
    variables: list[int]
    support: Optional[list[Pair]]
    forced: frozenset[int]
    width: int


def _layout(
    num_states: int,
    atoms: list[int],
    variables: list[int],
    support: Optional[list[Pair]],
    forced: frozenset[int] = frozenset(),
) -> _Layout:
    """The layout over sorted, distinct atoms, variables and star pairs."""
    if num_states < 1:
        raise ModelError("a model needs at least one state")
    rows = len(atoms) * num_states + len(variables) + len(support or ())
    return _Layout(num_states, atoms, variables, support, forced, rows * num_states)


def _slot(layout: _Layout, bit: int) -> tuple[int, int]:
    """The row and the bit within it of the slot that counter bit `bit` sets."""
    return divmod(layout.width - 1 - bit, layout.num_states)


def _decode(layout: _Layout, counter: int) -> KripkeModel:
    """The counter-th model."""
    n = layout.num_states
    rows = [0] * (layout.width // n)
    for bit in _bits(counter):
        r, t = _slot(layout, bit)
        rows[r] |= 1 << t
    edges = len(layout.atoms) * n
    stars = edges + len(layout.variables)
    relations = {a: rows[j * n:(j + 1) * n] for j, a in enumerate(layout.atoms)}
    truth = dict(zip(layout.variables, rows[edges:]))
    truth.update((v, (1 << n) - 1) for v in layout.forced)
    star = None if layout.support is None else dict(zip(layout.support, rows[stars:]))
    return KripkeModel._of(n, relations, truth, star)


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
    support = sorted(set(star_support)) if dialect is Dialect.PRSPDL else None
    layout = _layout(num_states, sorted(set(atoms)), sorted(set(variables)), support)
    for counter in range(1 << layout.width):
        if limit is not None and counter >= limit:
            raise EnumerationLimitError(f"more than {limit} models requested")
        yield _decode(layout, counter)


# ---------------------------------------------------------------------------
# Random models

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
    pairs = list(itertools.product(states, repeat=2))

    def draw(slots: Iterable, probability: float) -> set:
        return {slot for slot in slots if rng.random() < probability}

    relations = {a: draw(pairs, edge_probability) for a in sorted(set(atoms))}
    valuation = {v: draw(states, edge_probability) for v in sorted(set(variables))}
    star = None
    if star_probability is not None:
        star = {pair: draw(states, star_probability) for pair in pairs}
    return KripkeModel(num_states, relations, valuation, star)


# ---------------------------------------------------------------------------
# JSON persistence

def _json_object(model: KripkeModel) -> dict:
    """The object model_to_json writes, read off the masks in sorted order."""
    obj: dict = {"states": model.num_states, "relations": {}, "valuation": {}}
    for a, rows in sorted(model.rows.items()):
        obj["relations"][f"a{a}"] = [[s, t] for s, row in enumerate(rows) for t in _bits(row)]
    for v, mask in sorted(model.truth.items()):
        obj["valuation"][f"p{v}"] = list(_bits(mask))
    if model.stars is not None:
        entries = sorted(model.stars.items())
        obj["star"] = [[x, y, list(_bits(mask))] for (x, y), mask in entries]
    return obj


def model_to_json(model: KripkeModel) -> str:
    """Canonical JSON rendering; model_from_json inverts it exactly."""
    return json.dumps(_json_object(model), indent=2)


# The evaluator allocates per-state lists and masks of num_states bits, so a
# model file's state count is bounded before anything is built from it.
_MAX_JSON_STATES = 10_000


def model_from_json(text: str) -> KripkeModel:
    """Parse the JSON model format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError(f"malformed model JSON: {err}") from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ModelError("malformed model JSON: nested too deeply") from None
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

    def entries(key: str):
        table = obj.get(key, {})
        if not isinstance(table, dict):
            raise ModelError(f"'{key}' must be a JSON object")
        return table.items()

    try:
        num_states = integer(obj["states"])
        if num_states > _MAX_JSON_STATES:
            raise ModelError(
                f"a model file may have at most {_MAX_JSON_STATES} states, got {num_states}"
            )
        relations = {
            parse_index(name, "a"): {(integer(s), integer(t)) for s, t in pairs}
            for name, pairs in entries("relations")
        }
        valuation = {
            parse_index(name, "p"): {integer(s) for s in states}
            for name, states in entries("valuation")
        }
        star = None
        if "star" in obj:
            table = obj["star"]
            if not isinstance(table, list) or not all(
                isinstance(e, list) and len(e) == 3 and isinstance(e[2], list) for e in table
            ):
                raise ModelError("'star' must be a list of [x, y, [states]] triples")
            star = {(integer(x), integer(y)): {integer(z) for z in zs} for x, y, zs in table}
        return KripkeModel(num_states, relations, valuation, star)
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
