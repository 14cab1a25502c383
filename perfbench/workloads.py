"""The four workloads: their inputs, their operation and its checks.

Each workload is a closed loop with one client over rounds of operations.
A round has a fixed composition, so whichever whole rounds fit in a run,
the mix of operations is the same on every seed; round r's inputs are a
function of (seed, r) alone. An operation calls pdlkit through a tracer
and raises Wrong when an answer fails a check.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass
from typing import Any

import gen


class Wrong(Exception):
    """A check failed: `module` produced a wrong answer."""

    def __init__(self, module: str, message: str):
        super().__init__(f"{module}: {message}")
        self.module = module


@dataclass(frozen=True)
class Item:
    """One operation's input."""

    dialect: str
    text: str
    kind: str = ""
    parsed: Any = None


def digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()[:16]


def _embed(P, t, phi, dialect):
    """embed() as its public stages, so that each is timed on its own."""
    norm, _, _ = t.call("syntax.normalize_variables", P.normalize_variables, phi)
    ctx = t.call("embedding.build_context", P.build_context, norm, dialect)
    hatted = t.call("embedding.hat", P.hat, norm, ctx)
    return ctx, hatted


class Workload:
    name = ""
    tail_pct = 90.0      # fixed per workload: see README.md
    trace_rounds = 1     # rounds in a traced pass; also the pinned rounds

    def __init__(self, seed: int):
        self.seed = seed
        self.deep: list[Item] = []

    def rng(self, r) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def setup(self, P, t) -> None:
        """Fixed inputs that are not a round's: models, the deep slice."""

    def round(self, P, r: int) -> list[Item]:
        raise NotImplementedError

    def op(self, P, t, item: Item):
        raise NotImplementedError

    def verify(self, item: Item, result, pinned: bool):
        """Untimed checks; returns what the pinned digest covers."""
        return result

    def pins(self, summaries: list) -> dict:
        return {"digest": digest(summaries)}


# ---------------------------------------------------------------------------

class EquisatComplete(Workload):
    """parse -> embed -> pdl_sat on input and grounding -> verdicts agree,
    witnesses model-checked. PDL only."""

    name = "equisat-complete"
    tail_pct = 98.0
    trace_rounds = 4
    # (variables, stars, count) per round of 20. Formulas with both a
    # variable and a star are left out: their cost is heavy-tailed (one
    # two-variable formula took 2.4 s, 70x the median), so whether a run
    # draws one would decide its throughput and tail. Every grounding
    # still carries theta's [gamma*] demand.
    STRATA = ((0, 0, 4), (0, 1, 4), (1, 0, 8), (2, 0, 4))

    def round(self, P, r):
        rng = self.rng(r)
        items = []
        for nvars, stars, count in self.STRATA:
            for _ in range(count):
                while True:
                    f = gen.formula(rng, gen.PDL, 10, nvars, 2)
                    variables, found = gen.vocabulary(f)
                    if len(variables) == nvars and found == stars:
                        break
                items.append(Item(gen.PDL, gen.text(f)))
        rng.shuffle(items)
        return items

    def op(self, P, t, item):
        D = P.Dialect.PDL
        phi = t.call("syntax.parse_formula", P.parse_formula, item.text, D)
        ctx, hatted = _embed(P, t, phi, D)
        grounded = t.call("embedding.ground", P.ground, hatted, ctx)
        direct = t.call("decision.pdl_sat.input", P.pdl_sat, phi)
        translated = t.call("decision.pdl_sat.grounded", P.pdl_sat, grounded)
        if direct.verdict is not translated.verdict:
            raise Wrong("decision", f"verdicts differ on {item.text}")
        for found, formula in ((direct, phi), (translated, grounded)):
            if found.witness is not None:
                model, state = found.witness
                if not t.call("semantics.check", P.check, model, state, formula, D):
                    raise Wrong("decision", f"witness fails the model checker: {item.text}")
                t.count("decision.pdl_sat.witness_states", model.num_states)
        if t.enabled:
            for formula in (phi, grounded):
                closure = t.call("decision.fl_closure", P.fl_closure, formula)
                t.count("decision.fl_closure.members", len(closure))
        return direct.verdict.value

    def pins(self, summaries):
        return {"digest": digest(summaries),
                "satisfiable": summaries.count("satisfiable")}


# ---------------------------------------------------------------------------

class WitnessBounded(Workload):
    """hat with a universal marker -> bounded_sat (4 states, cap 1000); on a
    hit, attach_gadgets and check the grounding at the witness state.

    Per dialect and round: 20 formulas true in a one-state model, so a hit
    at size 1 is certain, and one unsatisfiable formula, so the search
    exhausts the cap at sizes 3 and 4. The misses are about 85 % of the
    time; fixing their number and their formula keeps ops_per_s the same
    on every seed (the cost of a miss grows with the formula's size). The
    cap keeps a miss near 0.5 s, so a run averages some fifty misses
    rather than a handful. The tail percentile lies among the hits.
    """

    name = "witness-bounded"
    tail_pct = 90.0
    trace_rounds = 1
    HITS = 20
    MAX_STATES = 4
    CAP = 1000
    MISS = "([a1]p1) & ~[a1]~~p1"

    def round(self, P, r):
        rng = self.rng(r)
        items = []
        for dialect in gen.DIALECTS:
            for _ in range(self.HITS):
                f = gen.formula(rng, dialect, 8, 2, 2)
                edges = {a: rng.random() < 0.5 for a in (1, 2)}
                valuation = {v: rng.random() < 0.5 for v in (1, 2)}
                star = rng.random() < 0.5
                if not gen.holds_one_state(f, edges, valuation, star):
                    f = ("not", f)
                items.append(Item(dialect, gen.text(f), "hit"))
            items.append(Item(dialect, self.MISS, "miss"))
        rng.shuffle(items)
        return items

    def op(self, P, t, item):
        D = P.Dialect(item.dialect)
        phi = t.call("syntax.parse_formula", P.parse_formula, item.text, D)
        ctx, hatted = _embed(P, t, phi, D)
        found = t.call(
            "decision.bounded_sat", P.bounded_sat, hatted, D, self.MAX_STATES,
            self.CAP, universal_vars=(ctx.n + 1,),
            label=lambda res: "hit" if res.witness is not None else "unknown",
        )
        t.count("decision.bounded_sat.bound_used", found.bound_used)
        if found.witness is None:
            t.count("decision.bounded_sat.unknown")
            return "unknown", found.bound_used
        t.count("decision.bounded_sat.hits")
        model, state = found.witness
        if not t.call("semantics.check", P.check, model, state, hatted, D):
            raise Wrong("decision", f"witness fails the model checker: {item.text}")
        grounded = t.call("embedding.ground", P.ground, hatted, ctx)
        extended = t.call("embedding.attach_gadgets", P.attach_gadgets, model, ctx)
        if not t.call("semantics.check", P.check, extended, state, grounded, D):
            raise Wrong("embedding", f"grounding false after gadget attachment: {item.text}")
        return "hit", found.bound_used

    def verify(self, item, result, pinned):
        expected = ("hit", 1) if item.kind == "hit" else ("unknown", self.MAX_STATES)
        if result != expected:
            raise Wrong("decision", f"{item.kind} formula gave {result}: {item.text}")
        return result[0]

    def pins(self, summaries):
        return {"hits": summaries.count("hit"), "unknown": summaries.count("unknown")}


# ---------------------------------------------------------------------------

class ModelcheckLarge(Workload):
    """One truth_set or relation_of call on a large random model; the formula
    or program always contains a star.

    No || has a starred operand. Such PRSPDL programs are heavy-tailed:
    (s2*) || r1 took 1.3 s against a PRSPDL median of 3 ms, so how many a
    run drew decided its throughput (8.5 against 10.6 ops/s on two seeds,
    each repeatable). Stars over || still run _par.
    """

    name = "modelcheck-large"
    tail_pct = 90.0
    trace_rounds = 2
    # dialect: (states, successors per state and atom, star density)
    MODELS = {gen.PDL: (300, 2.0, None), gen.IPDL: (300, 2.0, None),
              gen.PRSPDL: (30, 2.0, 0.1)}
    PER_KIND = 2

    def setup(self, P, t):
        rng = random.Random(f"{self.name}:models:{self.seed}")
        self.models = {}
        for dialect, (states, degree, density) in self.MODELS.items():
            text = gen.model_json(rng, states, 2, 2, degree, density)
            self.models[dialect] = t.call(
                "semantics.model_from_json", P.model_from_json, text)

    def round(self, P, r):
        rng = self.rng(r)
        items = []
        for dialect in gen.DIALECTS:
            D = P.Dialect(dialect)
            for _ in range(self.PER_KIND):
                while True:
                    f = gen.formula(rng, dialect, 8, 2, 2)
                    if gen.vocabulary(f)[1] and not gen.star_under_par(f):
                        break
                text = gen.text(f)
                items.append(Item(dialect, text, "formula", P.parse_formula(text, D)))
            for _ in range(self.PER_KIND):
                while True:
                    a = gen.program(rng, dialect, 4, 2, 2)
                    if gen.vocabulary(a)[1] and not gen.star_under_par(a):
                        break
                text = gen.program_text(a)
                items.append(Item(dialect, text, "program",
                                  P.syntax.parse_program(text, D)))
        rng.shuffle(items)
        return items

    def op(self, P, t, item):
        model = self.models[item.dialect]
        D = P.Dialect(item.dialect)
        if item.kind == "formula":
            result = t.call("semantics.truth_set", P.truth_set, model, item.parsed, D)
            t.count("semantics.truth_set.true_states", len(result))
        else:
            result = t.call("semantics.relation_of", P.relation_of, model, item.parsed, D)
            t.count("semantics.relation_of.pairs", len(result))
        return result

    def verify(self, item, result, pinned):
        n = self.models[item.dialect].num_states
        if item.kind == "formula":
            ok = all(0 <= s < n for s in result)
        else:
            ok = all(0 <= s < n and 0 <= u < n for s, u in result)
        if not ok:
            raise Wrong("semantics", f"result names a missing state: {item.text}")
        return (item.kind, len(result), digest(sorted(result))) if pinned else None


# ---------------------------------------------------------------------------

class TranslateRoundtrip(Workload):
    """parse -> embed -> print_formula, metrics -> re-parse equals the
    grounding and is variable-free. All three dialects, plus a deep slice."""

    name = "translate-roundtrip"
    tail_pct = 99.5
    trace_rounds = 10
    PER_DIALECT = 10
    DEEP_DEPTHS = tuple(range(100, 1001, 100))

    def setup(self, P, t):
        rng = random.Random(f"{self.name}:deep:{self.seed}")
        self.deep = [
            Item(gen.DIALECTS[i % 3], gen.deep_text(rng, depth, i % 3), "deep")
            for i, depth in enumerate(self.DEEP_DEPTHS)
        ]

    def round(self, P, r):
        rng = self.rng(r)
        items = [
            Item(dialect, gen.text(gen.formula(rng, dialect, 25, 3, 2)))
            for dialect in gen.DIALECTS for _ in range(self.PER_DIALECT)
        ]
        rng.shuffle(items)
        return items

    def op(self, P, t, item):
        D = P.Dialect(item.dialect)
        phi = t.call("syntax.parse_formula", P.parse_formula, item.text, D)
        ctx, hatted = _embed(P, t, phi, D)
        grounded = t.call("embedding.ground", P.ground, hatted, ctx)
        out = t.call("syntax.print_formula", P.print_formula, grounded)
        size = t.call("syntax.metrics", P.metrics, grounded)
        back = t.call("syntax.parse_formula", P.parse_formula, out, D)
        if not t.call("syntax.equal", operator.eq, back, grounded):
            raise Wrong("syntax", f"re-parse differs from the grounding of {item.text}")
        if size.variables:
            raise Wrong("embedding", f"grounding keeps variables: {item.text}")
        t.count("embedding.ground.out_nodes", size.size)
        return out

    def verify(self, item, result, pinned):
        return digest([result]) if pinned else None


WORKLOADS = {w.name: w for w in (EquisatComplete, WitnessBounded,
                                 ModelcheckLarge, TranslateRoundtrip)}
