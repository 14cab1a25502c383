"""Bit-sliced evaluation: a chunk of enumerated models at once.

A chunk is up to CHUNK consecutive enumeration counters from a multiple c0
of CHUNK, evaluated as one model-parallel model (bit slicing; Biham, FSE
1997): bit k of every int, a plane, stands for model c0 + k, the model
that semantics' slot layout reads off counter c0 + k. A truth value is one
plane per state, a relation an n x n matrix of planes (row s, column t),
and the star function, when the layout has one, a dict from each pair
with a non-zero entry to its n planes. Each operator of a semantics plan
is applied plane-wise, as semantics._run applies it to one model,
skipping zero planes where that saves a loop.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .semantics import Pair, _bits, _Layout, _Plan, _slot, _star_entries
from .syntax import (
    Atomic,
    Box,
    Choice,
    Falsum,
    Implies,
    Inter,
    Par,
    Seq,
    Special,
    Test,
    Var,
)

CHUNK_BITS = 12
CHUNK = 1 << CHUNK_BITS


def _pattern(bit: int) -> int:
    """The plane of counter bit `bit` < CHUNK_BITS over an aligned chunk:
    bit k is set when k has that bit."""
    half = 1 << bit
    plane, period = ((1 << half) - 1) << half, 2 * half
    while period < CHUNK:
        plane |= plane << period
        period *= 2
    return plane


_PATTERNS = [_pattern(bit) for bit in range(CHUNK_BITS)]


class Chunk(NamedTuple):
    """A chunk of models as one: the successor planes per atom, the truth
    planes per variable, and the star planes per pair, or None when the
    layout has no star function; full has one bit per model of the chunk."""

    num_states: int
    full: int
    rows: dict[int, list[list[int]]]
    truth: dict[int, list[int]]
    stars: Optional[dict[Pair, list[int]]]


def chunk(layout: _Layout, c0: int, count: int) -> Chunk:
    """The chunk of `count` <= CHUNK models from counter c0 on, c0 a
    multiple of CHUNK. A counter bit below CHUNK_BITS follows its pattern;
    a higher one is all ones where c0 has it and zero elsewhere. Only
    non-zero planes are placed, so an unused slot costs nothing."""
    n, full = layout.num_states, (1 << count) - 1
    rows = {a: [[0] * n for _ in range(n)] for a in layout.atoms}
    truth = {v: [0] * n for v in layout.variables}
    entries = None if layout.support is None else {}
    edges = len(layout.atoms) * n
    stars = edges + len(layout.variables)
    low = [(bit, _PATTERNS[bit] & full) for bit in range(min(CHUNK_BITS, layout.width))]
    for bit, plane in itertools.chain(low, zip(_bits(c0), itertools.repeat(full))):
        if not plane:
            continue
        r, t = _slot(layout, bit)
        if r < edges:
            rows[layout.atoms[r // n]][r % n][t] = plane
        elif r < stars:
            truth[layout.variables[r - edges]][t] = plane
        else:
            entries.setdefault(layout.support[r - stars], [0] * n)[t] = plane
    truth.update((v, [full] * n) for v in layout.forced)
    return Chunk(n, full, rows, truth, entries)


def _special(models: Chunk, kind: str) -> list[list[int]]:
    # as semantics._special: r1/r2 lead from s in x*y to x/y, s1/s2 from
    # x/y to s
    n = models.num_states
    rows = [[0] * n for _ in range(n)]
    for (x, y), result in _star_entries(models).items():
        part = x if kind[1] == "1" else y
        if kind[0] == "r":
            for s, plane in enumerate(result):
                rows[s][part] |= plane
        else:
            rows[part] = [acc | plane for acc, plane in zip(rows[part], result)]
    return rows


def _par(models: Chunk, left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    # as semantics._par: s -> t when s in x1*x2, t in y1*y2, x1 -> y1 by
    # left and x2 -> y2 by right
    n = models.num_states
    entries = _star_entries(models)
    rows = [[0] * n for _ in range(n)]
    for (x1, x2), sources in entries.items():
        reached = [0] * n
        seconds = [(y2, step) for y2, step in enumerate(right[x2]) if step]
        for y1, first in enumerate(left[x1]):
            if not first:
                continue
            for y2, second in seconds:
                both = first & second
                if both and (targets := entries.get((y1, y2))):
                    reached = [acc | both & plane for acc, plane in zip(reached, targets)]
        for s, source in enumerate(sources):
            if source:
                rows[s] = [acc | source & plane for acc, plane in zip(rows[s], reached)]
    return rows


def _star(relation: list[list[int]], full: int) -> list[list[int]]:
    """Reflexive-transitive closure of a matrix of planes: a Warshall pass,
    each step for every model of the chunk at once."""
    rows = [row.copy() for row in relation]
    for s, row in enumerate(rows):
        row[s] = full
    for k, through in enumerate(rows):
        for i, row in enumerate(rows):
            step = row[k]
            if step and i != k:
                rows[i] = [acc | step & plane for acc, plane in zip(row, through)]
    return rows


def run(plan: _Plan, models: Chunk) -> list:
    """semantics._run over a chunk: the truth planes per state, or the
    planes per state pair, of the plan's last entry."""
    n, full = models.num_states, models.full
    states = range(n)
    values: list = []
    for node, slots in plan.steps:
        kind = type(node)
        if kind is Var:
            value = models.truth.get(node.index) or [0] * n
        elif kind is Falsum:
            value = [0] * n
        elif kind is Implies:
            value = [(full ^ a) | b for a, b in zip(values[slots[0]], values[slots[1]])]
        elif kind is Box:
            failing = [full ^ plane for plane in values[slots[1]]]
            value = []
            for row in values[slots[0]]:
                bad = 0
                for step, fails in zip(row, failing):
                    if step:
                        bad |= step & fails
                value.append(full ^ bad)
        elif kind is Atomic:
            value = models.rows.get(node.index) or [[0] * n for _ in states]
        elif kind is Special:
            value = _special(models, node.kind)
        elif kind is Test:
            holds = values[slots[0]]
            value = [[holds[s] if s == t else 0 for t in states] for s in states]
        elif kind is Seq:
            right = values[slots[1]]
            value = []
            for row in values[slots[0]]:
                reached = [0] * n
                for step, targets in zip(row, right):
                    if step:
                        reached = [acc | step & plane for acc, plane in zip(reached, targets)]
                value.append(reached)
        elif kind is Choice:
            pairs = zip(values[slots[0]], values[slots[1]])
            value = [[a | b for a, b in zip(*rows)] for rows in pairs]
        elif kind is Inter:
            pairs = zip(values[slots[0]], values[slots[1]])
            value = [[a & b for a, b in zip(*rows)] for rows in pairs]
        elif kind is Par:
            value = _par(models, values[slots[0]], values[slots[1]])
        else:  # Star
            value = _star(values[slots[0]], full)
        values.append(value)
    return values[-1]


def first_hit(plan: _Plan, layout: _Layout, cap: int) -> Optional[tuple[int, int]]:
    """The counter of the first of the first `cap` models whose formula
    holds at some state, with the least such state; None if there is none."""
    # min(cap, 2**width), without building 2**width for a wide layout
    total = min(cap, 1 << min(layout.width, cap.bit_length()))
    for c0 in range(0, total, CHUNK):
        holds = run(plan, chunk(layout, c0, min(CHUNK, total - c0)))
        anywhere = 0
        for plane in holds:
            anywhere |= plane
        if anywhere:
            k = (anywhere & -anywhere).bit_length() - 1
            return c0 + k, next(s for s, plane in enumerate(holds) if plane >> k & 1)
    return None
