"""Random formula corpora and the equisatisfiability fuzz harnesses.

The generator works against a primitive-node budget so corpus size bounds
are honored after abbreviation expansion. Constructor weights: leaf 25%,
implication 25%, box 20%, negation 15%, diamond 15%; leaves split 60%
variable, 20% true, 20% false. Small random formulas are mostly
satisfiable by nature; measured on the default complete-fuzz bounds,
about 85-90% of generated PDL formulas are satisfiable, which still
leaves dozens of unsatisfiable draws per 500-formula run. Targeted
conflicts live in the curated test suites, not here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import decision, embedding, semantics
from .syntax import (
    FALSUM,
    TOP,
    Atomic,
    Box,
    Choice,
    Dialect,
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
    diamond,
    metrics,
    neg,
)


def random_formula(
    rng: random.Random,
    dialect: Dialect,
    max_size: int,
    max_vars: int,
    max_atoms: int,
) -> Formula:
    """One random formula with primitive size at most max_size."""
    return _gen_formula(rng, dialect, max(max_size, 1), max_vars, max_atoms)


def formula_corpus(
    seed: int,
    count: int,
    dialect: Dialect,
    max_size: int,
    max_vars: int,
    max_atoms: int,
) -> list[Formula]:
    """Deterministic corpus for a seed."""
    rng = random.Random(seed)
    return [
        random_formula(rng, dialect, max_size, max_vars, max_atoms)
        for _ in range(count)
    ]


def _gen_leaf(rng: random.Random, max_vars: int) -> Formula:
    roll = rng.random()
    if max_vars >= 1 and roll < 0.6:
        return Var(rng.randint(1, max_vars))
    return TOP if roll < 0.8 else FALSUM


def _gen_formula(
    rng: random.Random, dialect: Dialect, budget: int, max_vars: int, max_atoms: int
) -> Formula:
    if budget < 3:
        return _gen_leaf(rng, max_vars)
    roll = rng.random()
    if roll < 0.25:
        return _gen_leaf(rng, max_vars)
    if roll < 0.40:
        return neg(_gen_formula(rng, dialect, budget - 2, max_vars, max_atoms))
    if roll < 0.65:
        left_budget = rng.randint(1, budget - 2)
        left = _gen_formula(rng, dialect, left_budget, max_vars, max_atoms)
        right = _gen_formula(rng, dialect, budget - 1 - left_budget, max_vars, max_atoms)
        return Implies(left, right)
    if roll < 0.85 or budget < 6:
        prog_budget = rng.randint(1, budget - 2)
        program = _gen_program(rng, dialect, prog_budget, max_vars, max_atoms)
        body = _gen_formula(rng, dialect, budget - 1 - prog_budget, max_vars, max_atoms)
        return Box(program, body)
    prog_budget = rng.randint(1, budget - 5)
    program = _gen_program(rng, dialect, prog_budget, max_vars, max_atoms)
    body = _gen_formula(rng, dialect, budget - 4 - prog_budget, max_vars, max_atoms)
    return diamond(program, body)


def _gen_atomic(rng: random.Random, dialect: Dialect, max_atoms: int) -> Program:
    if dialect is Dialect.PRSPDL and rng.random() < 0.25:
        return Special(rng.choice(("r1", "r2", "s1", "s2")))
    return Atomic(rng.randint(1, max(max_atoms, 1)))


def _gen_program(
    rng: random.Random, dialect: Dialect, budget: int, max_vars: int, max_atoms: int
) -> Program:
    if budget < 3:
        if (
            budget >= 2
            and dialect in (Dialect.IPDL, Dialect.PRSPDL)
            and rng.random() < 0.15
        ):
            return Test(_gen_leaf(rng, max_vars))
        return _gen_atomic(rng, dialect, max_atoms)
    roll = rng.random()
    if roll < 0.35:
        return _gen_atomic(rng, dialect, max_atoms)
    if roll < 0.55:
        left_budget = rng.randint(1, budget - 2)
        return Seq(
            _gen_program(rng, dialect, left_budget, max_vars, max_atoms),
            _gen_program(rng, dialect, budget - 1 - left_budget, max_vars, max_atoms),
        )
    if roll < 0.75:
        left_budget = rng.randint(1, budget - 2)
        left = _gen_program(rng, dialect, left_budget, max_vars, max_atoms)
        right = _gen_program(rng, dialect, budget - 1 - left_budget, max_vars, max_atoms)
        if dialect is Dialect.PRSPDL:
            return Par(left, right)
        if dialect is Dialect.IPDL and rng.random() < 0.4:
            return Inter(left, right)
        return Choice(left, right)
    if roll < 0.9 and dialect in (Dialect.IPDL, Dialect.PRSPDL):
        return Test(_gen_formula(rng, dialect, budget - 1, max_vars, max_atoms))
    return Star(_gen_program(rng, dialect, budget - 1, max_vars, max_atoms))


# ---------------------------------------------------------------------------
# Fuzz harnesses

@dataclass
class FuzzFailure:
    formula: Formula
    detail: str


@dataclass
class FuzzReport:
    """Outcome of one fuzz run; deterministic for a given configuration."""

    mode: str
    dialect: Dialect
    seed: int
    total: int = 0
    checked: int = 0
    sat_count: int = 0
    unsat_count: int = 0
    blowup_constant: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _blowup_ratio(translation: embedding.Translation) -> float:
    base = metrics(translation.normalized).size + translation.ctx.n + translation.ctx.l
    return metrics(translation.grounded).size / (base * base)


_COMPLETE_MAX_TYPES = 200000  # pdl_sat's type ceiling, twice its default


def run_complete_fuzz(
    count: int,
    seed: int,
    max_size: int = 12,
    max_vars: int = 3,
    max_atoms: int = 2,
) -> FuzzReport:
    """PDL only: the complete back-end must give equal verdicts for phi
    and embed(phi); also measures the size-blowup constant."""
    report = FuzzReport("complete", Dialect.PDL, seed)
    for phi in formula_corpus(seed, count, Dialect.PDL, max_size, max_vars, max_atoms):
        report.total += 1
        translation = embedding.translate(phi, Dialect.PDL)
        report.blowup_constant = max(report.blowup_constant, _blowup_ratio(translation))
        direct = decision.pdl_sat(phi, max_nodes=_COMPLETE_MAX_TYPES)
        translated = decision.pdl_sat(translation.grounded, max_nodes=_COMPLETE_MAX_TYPES)
        report.checked += 1
        if direct.verdict is decision.Verdict.SATISFIABLE:
            report.sat_count += 1
        else:
            report.unsat_count += 1
        if direct.verdict is not translated.verdict:
            report.failures.append(FuzzFailure(
                phi,
                f"verdict mismatch: {direct.verdict.value} for input, "
                f"{translated.verdict.value} for its grounding",
            ))
    return report


def run_witness_fuzz(
    dialect: Dialect,
    target_hits: int,
    seed: int,
    max_size: int = 8,
    max_vars: int = 2,
    max_atoms: int = 2,
    max_states: int = 4,
    per_size_model_cap: int = 6000,
) -> FuzzReport:
    """Forward construction: when bounded search finds a marker-universal
    model of hat(phi), gadget attachment must satisfy the grounding."""
    report = FuzzReport("witness", dialect, seed)
    rng = random.Random(seed)
    attempts_left = target_hits * 50
    while report.checked < target_hits and attempts_left > 0:
        attempts_left -= 1
        phi = random_formula(rng, dialect, max_size, max_vars, max_atoms)
        report.total += 1
        translation = embedding.translate(phi, dialect)
        _, ctx, hatted, grounded = translation
        report.blowup_constant = max(report.blowup_constant, _blowup_ratio(translation))
        found = decision.bounded_sat(
            hatted,
            dialect,
            max_states,
            per_size_model_cap,
            universal_vars=(ctx.n + 1,),
        )
        if found.verdict is not decision.Verdict.SATISFIABLE:
            continue
        report.checked += 1
        report.sat_count += 1
        model, state = found.witness
        extended = embedding.attach_gadgets(model, ctx)
        if not semantics.check(extended, state, grounded, dialect):
            report.failures.append(FuzzFailure(
                phi, "grounding false at the witness state after gadget attachment"
            ))
    return report
