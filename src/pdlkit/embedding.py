"""The variable-free embedding and its two proof constructions.

Pipeline: normalize phi, translate it so every box guards its body with a
fresh marker variable (prime), conjoin the marker-propagation formula
(theta), then replace each variable p_i by a variable-free formula B_i
that can only hold at states pointing into the i-th gadget model
(ground). The result phi* is equisatisfiable with phi.

The two model surgeries realize the directions of that equivalence at
desk scale: prune_to_marked cuts a model of hat(phi) down to its marked
core, attach_gadgets extends a marked model so the grounded B_i mimic the
original valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from . import semantics
from .semantics import KripkeModel
from .syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
    Formula,
    Implies,
    Program,
    Star,
    Var,
    conj,
    diamond,
    fold,
    metrics,
    neg,
    normalize_variables,
    rebuild,
    validate,
)


class EmbeddingError(ValueError):
    """Input outside an operation's contract (bad index, wrong dialect, bad witness)."""


@dataclass(frozen=True)
class TranslationContext:
    """Vocabulary summary driving one embedding run.

    n: variable count, so p_{n+1} is the fresh marker.
    l: atomic program count (at least 1; see build_context).
    b: designated atom index used by gadgets and marker formulas.
    gamma: a1 u (a2 u ...) over atoms 1..l; None under PRSPDL.
    """

    n: int
    l: int
    b: int
    gamma: Optional[Program]
    dialect: Dialect

    @property
    def marker(self) -> Formula:
        return Var(self.n + 1)


def build_context(phi: Formula, dialect: Dialect) -> TranslationContext:
    """Context for a formula whose variables/atoms lie in 1..n / 1..l.

    A formula with no atomic programs gets l = 1 and b = 1 so gamma = a1
    stays well-formed; a1's relation may simply be empty.
    """
    validate(phi, dialect)
    m = metrics(phi)
    n = max(m.variables, default=0)
    l = max(m.atoms, default=1)
    b = min(m.atoms, default=1)
    gamma: Optional[Program] = None
    if dialect is not Dialect.PRSPDL:
        gamma = Atomic(l)
        for i in range(l - 1, 0, -1):
            gamma = Choice(Atomic(i), gamma)
    return TranslationContext(n, l, b, gamma, dialect)


# ---------------------------------------------------------------------------
# Translation

def prime(phi: Formula, ctx: TranslationContext) -> Formula:
    """Guard every box body with the marker: ([alpha]psi)' = [alpha'](p_{n+1} -> psi')."""
    marker = ctx.marker

    def visit(node, results):
        kind = type(node)
        if kind is Var and node.index > ctx.n:
            raise EmbeddingError(f"variable p{node.index} exceeds context n={ctx.n}")
        if kind is Atomic and node.index > ctx.l:
            raise EmbeddingError(f"atomic program a{node.index} exceeds context l={ctx.l}")
        if kind is Box:
            program, body = results
            return Box(program, Implies(marker, body))
        return rebuild(node, results)

    return fold(phi, visit)


class _Top(NamedTuple):
    """A box at the top of a subterm, with the boxes at the top of its body."""

    program: Program
    below: tuple


def nested_chains(phi: Formula) -> list[list[Program]]:
    """Maximal root-to-leaf chains of the modal-nesting tree of phi.

    A box's children are the outermost boxes of its body; boxes inside a
    program's test formulas count as further roots at the same level.
    Chains are listed in left-to-right textual order.
    """

    # A node's value nests the boxes at its top in textual order: a tuple
    # of _Top entries and further such tuples, empty when there is no box.
    def visit(node, results):
        if type(node) is Box:
            results = [_Top(node.program, results[1]), results[0]]
        return tuple(value for value in results if value)

    chains = []
    # (value, programs of the boxes enclosing it)
    stack = [(fold(phi, visit), ())]
    while stack:
        value, path = stack.pop()
        if type(value) is not _Top:
            stack.extend((part, path) for part in reversed(value))
        elif value.below:
            stack.append((value.below, path + (value.program,)))
        else:
            chains.append([*path, value.program])
    return chains


def theta(ctx: TranslationContext, phi: Formula) -> Formula:
    """Marker-propagation formula.

    PDL/IPDL: p_{n+1} and, along gamma* , a gamma-successor holding the
    marker forces the marker here too. PRSPDL has no choice operator, so
    the same demand is spelled out per nesting chain of phi: for every
    chain alpha_1..alpha_k and every j < k, a conjunct
    [alpha_1]..[alpha_j](<alpha_{j+1}>p_{n+1} -> p_{n+1}).
    """
    marker = ctx.marker
    if ctx.dialect is not Dialect.PRSPDL:
        assert ctx.gamma is not None
        propagate = Box(Star(ctx.gamma), Implies(diamond(ctx.gamma, marker), marker))
        return conj(marker, propagate)
    conjuncts = []
    for chain in nested_chains(phi):
        for j in range(1, len(chain)):
            body = Implies(diamond(chain[j], marker), marker)
            for program in reversed(chain[:j]):
                body = Box(program, body)
            conjuncts.append(body)
    if not conjuncts:
        return marker
    combined = conjuncts[-1]
    for part in reversed(conjuncts[:-1]):
        combined = conj(part, combined)
    return conj(marker, combined)


def hat(phi: Formula, ctx: TranslationContext) -> Formula:
    """theta(phi) and prime(phi) conjoined."""
    return conj(theta(ctx, phi), prime(phi, ctx))


# ---------------------------------------------------------------------------
# Gadgets and grounding

def gadget_model(m: int, b: int) -> KripkeModel:
    """The m-th gadget: root 0, looping hub 1, finite chain 2..m+1.

    R_b is the transitive closure of root->hub, hub->hub, root->2, and the
    chain edges 2->3->..->m+1, written out: the root sees the hub and every
    chain state, and each chain state sees the chain states after it. Every
    other relation and every valuation is empty. The root is the unique
    state satisfying marker_formula_A(m, b).
    """
    if m < 1:
        raise EmbeddingError(f"gadget index must be >= 1, got {m}")
    if b < 1:
        raise EmbeddingError(f"atom index must be >= 1, got {b}")
    full = (1 << (m + 2)) - 1
    # the root sees all states but itself, the hub itself, chain state j those above j
    chain = (full ^ ((2 << j) - 1) for j in range(2, m + 2))
    return KripkeModel._of(m + 2, {b: (full ^ 1, 1 << 1, *chain)}, {}, None)


def _diamonds(count: int, b: int, body: Formula) -> Formula:
    for _ in range(count):
        body = diamond(Atomic(b), body)
    return body


# Formulas are immutable, so each (m, b) marker formula is built once and shared.
@lru_cache(maxsize=256)
def marker_formula_A(m: int, b: int) -> Formula:
    """True exactly at the root of the m-th gadget.

    Reads: some b-path of length m ends in a dead end, no b-path of
    length m+1 does, and some b-successor starts an infinite b-path.
    """
    if m < 1:
        raise EmbeddingError(f"marker index must be >= 1, got {m}")
    dead_end = Box(Atomic(b), FALSUM)
    can_continue = diamond(Atomic(b), TOP)
    exact_depth = conj(_diamonds(m, b, dead_end), neg(_diamonds(m + 1, b, dead_end)))
    hub = diamond(Atomic(b), conj(can_continue, Box(Atomic(b), can_continue)))
    return conj(exact_depth, hub)


@lru_cache(maxsize=256)
def marker_formula_B(m: int, b: int) -> Formula:
    """True exactly at states with a b-edge into the root of an m-th gadget."""
    return diamond(Atomic(b), marker_formula_A(m, b))


def ground(phi_hat: Formula, ctx: TranslationContext) -> Formula:
    """Simultaneously replace p_i by B_i for i = 1..n+1; output is variable-free."""
    table = {i: marker_formula_B(i, ctx.b) for i in range(1, ctx.n + 2)}

    def visit(node, results):
        if type(node) is Var:
            if node.index not in table:
                raise EmbeddingError(f"variable p{node.index} exceeds context n+1={ctx.n + 1}")
            return table[node.index]
        return rebuild(node, results)

    return fold(phi_hat, visit)


class Translation(NamedTuple):
    """Every stage of one embedding run."""

    normalized: Formula
    ctx: TranslationContext
    hatted: Formula
    grounded: Formula


def translate(phi: Formula, dialect: Dialect) -> Translation:
    """Normalize, hat and ground phi, keeping each stage."""
    normalized, _, _ = normalize_variables(phi)
    ctx = build_context(normalized, dialect)
    hatted = hat(normalized, ctx)
    return Translation(normalized, ctx, hatted, ground(hatted, ctx))


def embed(phi: Formula, dialect: Dialect) -> Formula:
    """Full pipeline: normalize, hat, ground. Output is variable-free and
    equisatisfiable with phi."""
    return translate(phi, dialect).grounded


# ---------------------------------------------------------------------------
# Model surgeries

def prune_to_marked(
    model: KripkeModel, s0: int, ctx: TranslationContext
) -> tuple[KripkeModel, dict[int, int]]:
    """Cut a model of hat(phi) down to its marked gamma-reachable core.

    Keeps the least state set containing s0 and closed under following
    gamma-edges into marker states; restricts relations and valuation and
    renumbers states in ascending order. Returns the submodel and the
    old-to-new state map. The marker is universally true in the result.

    Defined for PDL/IPDL only: under PRSPDL the composition function can
    manufacture relation pairs from unmarked states, so a marked submodel
    is not truth-preserving and there is no gamma to follow.
    """
    if ctx.dialect is Dialect.PRSPDL or ctx.gamma is None:
        raise EmbeddingError("pruning needs a gamma; it is defined for PDL and IPDL only")
    if s0 not in model.states:
        raise EmbeddingError(f"state {s0} not in the model")
    marked = semantics.truth_set(model, ctx.marker, ctx.dialect)
    if s0 not in marked:
        raise EmbeddingError(f"marker p{ctx.n + 1} does not hold at state {s0}")
    into_marked = [
        (s, t) for s, t in semantics.relation_of(model, ctx.gamma, ctx.dialect) if t in marked
    ]
    keep = {t for s, t in semantics.rtc_matrix(into_marked, model.num_states) if s == s0}
    remap = {old: new for new, old in enumerate(sorted(keep))}
    relations = {
        a: {(remap[s], remap[t]) for s, t in pairs if s in keep and t in keep}
        for a, pairs in model.relations.items()
    }
    valuation = {
        v: {remap[s] for s in states if s in keep}
        for v, states in model.valuation.items()
    }
    return KripkeModel(len(keep), relations, valuation), remap


def attach_gadgets(model: KripkeModel, ctx: TranslationContext) -> KripkeModel:
    """Extend a marker-universal model with gadgets 1..n+1 and wire them up.

    Gadget m's states are renumbered to follow the existing states (in
    order m = 1..n+1); each original state x gets a b-edge to gadget m's
    root exactly when p_m holds at x. Original states keep their ids, so the
    grounded formula can be checked at the original witness state.
    """
    n = model.num_states
    if model.truth.get(ctx.n + 1, 0) != (1 << n) - 1:
        raise EmbeddingError(f"marker p{ctx.n + 1} must hold at every state")
    edges = list(model.rows.get(ctx.b, (0,) * n))
    for m in range(1, ctx.n + 2):
        offset = len(edges)  # one row per state so far: the gadget's root
        edges.extend(row << offset for row in gadget_model(m, ctx.b).rows[ctx.b])
        for x in semantics._bits(model.truth.get(m, 0)):
            edges[x] |= 1 << offset
    # the other relations have no edges at the gadgets' states
    padding = (0,) * (len(edges) - n)
    rows = {a: successors + padding for a, successors in model.rows.items()}
    rows[ctx.b] = tuple(edges)
    return KripkeModel._of(len(edges), rows, model.truth, model.stars)
