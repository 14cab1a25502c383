"""Command-line front end.

Subcommands: translate, check, sat, equisat-fuzz, gadget. Exit codes:
0 success or verdict delivered, 1 property violation (fuzz counterexample,
failed witness), 2 usage, parse, or input errors. `--format lines` prints
one JSON object per result for machine consumption.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import decision, embedding, fuzzing, semantics
from .syntax import (
    Dialect,
    DialectError,
    Formula,
    ParseError,
    metrics,
    parse_formula,
    parse_formula_lines,
    print_formula,
)


def _dialect(name: str) -> Dialect:
    try:
        return Dialect.from_name(name)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlkit",
        description="Dynamic-logic toolkit: parsing, model checking, "
        "satisfiability, and the variable-free translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formula_arg=True):
        p.add_argument("--dialect", type=_dialect, required=True,
                       help="pdl, ipdl, or prspdl")
        p.add_argument("--format", choices=("text", "lines"), default="text",
                       help="text (default) or machine-readable JSON lines")
        if formula_arg:
            p.add_argument("formula", nargs="?", help="formula (inline)")
            p.add_argument("--file", help="read formulas from a file, one per line")

    p = sub.add_parser("translate", help="translate a formula to its variable-free form")
    add_common(p)
    p.add_argument("--emit-hat", action="store_true",
                   help="also print the hat form and the marker-propagation part")

    p = sub.add_parser("check", help="model-check a formula at a state")
    add_common(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--state", type=int, required=True)

    p = sub.add_parser("sat", help="decide or search satisfiability")
    add_common(p)
    p.add_argument("--bounded", type=int, metavar="N",
                   help="bounded model search up to N states, N <= 256 (without "
                   "it, PDL runs the complete decision procedure)")
    p.add_argument("--cap", type=int, default=20000,
                   help="models examined per state count (default 20000)")
    p.add_argument("--emit-witness", metavar="PATH",
                   help="write the witness model JSON on satisfiable")

    p = sub.add_parser("equisat-fuzz", help="randomized equisatisfiability checking")
    add_common(p, formula_arg=False)
    p.add_argument("--count", type=int, default=500,
                   help="formulas (complete mode) or witness hits (witness mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=12)
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-atoms", type=int, default=2)
    p.add_argument("--mode", choices=("complete", "witness"), default=None,
                   help="complete verdict comparison (PDL) or witness-forward "
                   "construction (any dialect); default picks by dialect")
    p.add_argument("--max-states", type=int, default=None,
                   help="witness mode: bounded-search state limit (default 4)")
    p.add_argument("--cap", type=int, default=None,
                   help="witness mode: models examined per state count (default 6000)")
    p.add_argument("--ceiling", type=float, default=None,
                   help="fail if the measured blowup constant exceeds this")
    p.add_argument("--replay", metavar="PATH",
                   help="write counterexamples to this file for replay")

    p = sub.add_parser("gadget", help="print a gadget model and its marker formulas")
    p.add_argument("m", type=int, help="gadget index (1 to 1000)")
    p.add_argument("b", type=int, help="atom index (>= 1)")
    p.add_argument("--format", choices=("text", "lines"), default="text")
    p.add_argument("--out-model", metavar="PATH", help="also write the model JSON here")

    return parser


def _input_formulas(args) -> list[Formula]:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            formulas = parse_formula_lines(handle.read(), args.dialect)
        if not formulas:
            raise ValueError(f"no formulas in {args.file}")
        return formulas
    if args.formula is None or not args.formula.strip():
        raise ValueError("no formula given (inline argument or --file)")
    return [parse_formula(args.formula, args.dialect)]


def _at_least_one(option: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{option} must be >= 1")


def _text(record: dict) -> str:
    """The text form of a result record."""
    command = record["command"]
    if command == "translate":
        text = ("{output}\ninput size {input_size}, output size {output_size}, "
                "n={n}, l={l}, b={b}").format_map(record)
        if "hat" in record:
            text += "\nhat: {hat}\ntheta: {theta}".format_map(record)
        return text
    if command == "check":
        return "true" if record["result"] else "false"
    if command == "sat":
        if "witness_state" not in record:
            return record["verdict"]
        return "{verdict} (witness: state {witness_state} of {witness_states})".format_map(record)
    if command == "equisat-fuzz":
        return ("{mode} mode, {total} formulas, {checked} checked, {sat} satisfiable, "
                "{failures} failures, blowup constant {blowup_constant:.4f}").format_map(record)
    model = json.dumps(record["model"], indent=2)  # gadget
    return f"{model}\nA_{record['m']}: {record['A']}\nB_{record['m']}: {record['B']}"


def _emit(args, record: dict) -> None:
    print(json.dumps(record) if args.format == "lines" else _text(record))


def cmd_translate(args) -> int:
    for phi in _input_formulas(args):
        normalized, ctx, hatted, grounded = embedding.translate(phi, args.dialect)
        in_metrics, out_metrics = metrics(phi), metrics(grounded)
        record = {
            "command": "translate",
            "input": print_formula(phi),
            "output": print_formula(grounded),
            "input_size": in_metrics.size,
            "output_size": out_metrics.size,
            "variables": sorted(out_metrics.variables),
            "n": ctx.n,
            "l": ctx.l,
            "b": ctx.b,
        }
        if args.emit_hat:
            record["hat"] = print_formula(hatted)
            record["theta"] = print_formula(embedding.theta(ctx, normalized))
        _emit(args, record)
    return 0


def cmd_check(args) -> int:
    model = semantics.load_model(args.model)
    for phi in _input_formulas(args):
        verdict = semantics.check(model, args.state, phi, args.dialect)
        _emit(args, {"command": "check", "formula": print_formula(phi),
                     "state": args.state, "result": verdict})
    return 0


# Each size s of a bounded search lays out s² slots per atom, and under
# PRSPDL s² star pairs, so the work up to N grows as N³.
_MAX_BOUNDED = 256


def cmd_sat(args) -> int:
    use_complete = args.bounded is None
    if use_complete and args.dialect is not Dialect.PDL:
        raise ValueError(f"{args.dialect.value.upper()} needs --bounded N")
    if not use_complete:
        _at_least_one("--bounded", args.bounded)
        if args.bounded > _MAX_BOUNDED:
            raise ValueError(f"--bounded must be <= {_MAX_BOUNDED}")
        _at_least_one("--cap", args.cap)
    for phi in _input_formulas(args):
        if use_complete:
            result = decision.pdl_sat(phi)
        else:
            result = decision.bounded_sat(phi, args.dialect, args.bounded, args.cap)
        record = {
            "command": "sat",
            "formula": print_formula(phi),
            "backend": "complete" if use_complete else "bounded",
            "verdict": result.verdict.value,
        }
        if result.bound_used is not None:
            record["bound_used"] = result.bound_used
        if result.witness is not None:
            record["witness_state"] = result.witness.state
            record["witness_states"] = result.witness.model.num_states
            if args.emit_witness:
                semantics.save_model(result.witness.model, args.emit_witness)
                record["witness_file"] = args.emit_witness
        _emit(args, record)
    return 0


def cmd_equisat_fuzz(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    mode = args.mode or ("complete" if args.dialect is Dialect.PDL else "witness")
    if mode == "complete":
        if args.dialect is not Dialect.PDL:
            raise ValueError("complete mode needs the PDL dialect")
        if args.max_states is not None or args.cap is not None:
            raise ValueError("--max-states and --cap apply to witness mode only")
        report = fuzzing.run_complete_fuzz(
            args.count, args.seed, args.max_size, args.max_vars, args.max_atoms
        )
    else:
        max_states = 4 if args.max_states is None else args.max_states
        cap = 6000 if args.cap is None else args.cap
        _at_least_one("--max-states", max_states)
        _at_least_one("--cap", cap)
        report = fuzzing.run_witness_fuzz(
            args.dialect, args.count, args.seed, args.max_size, args.max_vars,
            args.max_atoms, max_states, cap
        )
    ceiling_ok = args.ceiling is None or report.blowup_constant <= args.ceiling
    record = {
        "command": "equisat-fuzz",
        "mode": mode,
        "dialect": args.dialect.value,
        "seed": args.seed,
        "total": report.total,
        "checked": report.checked,
        "sat": report.sat_count,
        "unsat": report.unsat_count,
        "failures": len(report.failures),
        "blowup_constant": round(report.blowup_constant, 6),
        "ceiling_ok": ceiling_ok,
    }
    _emit(args, record)
    if report.failures and args.replay:
        with open(args.replay, "w", encoding="utf-8") as handle:
            for failure in report.failures:
                handle.write(json.dumps({
                    "formula": print_formula(failure.formula),
                    "dialect": args.dialect.value,
                    "mode": mode,
                    "seed": args.seed,
                    "max_size": args.max_size,
                    "max_vars": args.max_vars,
                    "max_atoms": args.max_atoms,
                    "detail": failure.detail,
                }) + "\n")
    for failure in report.failures:
        print(f"counterexample: {print_formula(failure.formula)} ({failure.detail})",
              file=sys.stderr)
    if not ceiling_ok:
        print(f"blowup constant {report.blowup_constant:.4f} exceeds ceiling "
              f"{args.ceiling}", file=sys.stderr)
    return 0 if report.passed and ceiling_ok else 1


# The m-th gadget's R_b has about m²/2 pairs, and the JSON output lists each.
_MAX_GADGET = 1000


def cmd_gadget(args) -> int:
    if args.m > _MAX_GADGET:
        raise ValueError(f"gadget index m must be <= {_MAX_GADGET}")
    model = embedding.gadget_model(args.m, args.b)
    formula_a = embedding.marker_formula_A(args.m, args.b)
    formula_b = embedding.marker_formula_B(args.m, args.b)
    if args.out_model:
        semantics.save_model(model, args.out_model)
    _emit(args, {
        "command": "gadget",
        "m": args.m,
        "b": args.b,
        "model": semantics._json_object(model),
        "A": print_formula(formula_a),
        "B": print_formula(formula_b),
    })
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "translate": cmd_translate,
        "check": cmd_check,
        "sat": cmd_sat,
        "equisat-fuzz": cmd_equisat_fuzz,
        "gadget": cmd_gadget,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, DialectError, semantics.ModelError, ValueError, OSError,
            decision.CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
