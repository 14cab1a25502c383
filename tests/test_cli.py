"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from pdlkit import decision, embedding, fuzzing
from pdlkit.cli import _text, main
from pdlkit.semantics import KripkeModel, check, load_model, save_model
from pdlkit.syntax import Dialect, metrics, parse_formula


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate_round_trips(capsys):
    code, out, _ = run(capsys, "translate", "--dialect", "pdl", "[a1]p1")
    assert code == 0
    grounded = parse_formula(out.splitlines()[0], Dialect.PDL)
    assert metrics(grounded).variables == frozenset()
    assert "n=1, l=1, b=1" in out


def test_translate_emit_hat_lines(capsys):
    code, out, _ = run(
        capsys, "translate", "--dialect", "pdl", "p1", "--emit-hat",
        "--format", "lines",
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "translate"
    assert record["variables"] == []
    assert "hat" in record and "theta" in record
    assert record["n"] == 1 and record["output_size"] > record["input_size"]


def test_translate_reads_formula_files(tmp_path, capsys):
    source = tmp_path / "formulas.txt"
    source.write_text("# two inputs\np1\n[a1]false\n")
    code, out, _ = run(
        capsys, "translate", "--dialect", "pdl", "--file", str(source),
        "--format", "lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["input"] for r in records] == ["p1", "[a1]false"]


def test_translate_requires_some_formula(capsys):
    code, _, err = run(capsys, "translate", "--dialect", "pdl")
    assert code == 2 and "no formula" in err


def test_formula_file_without_formulas_is_an_input_error(tmp_path, capsys):
    source = tmp_path / "empty.txt"
    source.write_text("# only a comment\n\n   \n")
    code, out, err = run(capsys, "sat", "--dialect", "pdl", "--file", str(source))
    assert (code, out) == (2, "")
    assert err == f"error: no formulas in {source}\n"


def test_formula_file_errors_name_the_line(tmp_path, capsys):
    source = tmp_path / "formulas.txt"
    source.write_text("p1\n[a1]p1 &\n")
    code, out, err = run(capsys, "translate", "--dialect", "pdl", "--file", str(source))
    assert (code, out) == (2, "")
    assert err == "error: line 2: expected a formula, found 'end of input' (at position 8)\n"


def test_check_command(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(KripkeModel(2, {1: {(0, 1)}}, {1: {1}}), path)
    code, out, _ = run(
        capsys, "check", "--dialect", "pdl", "--model", str(path),
        "--state", "0", "<a1>p1",
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, "check", "--dialect", "pdl", "--model", str(path),
        "--state", "1", "<a1>p1", "--format", "lines",
    )
    assert code == 0
    assert json.loads(out)["result"] is False


def test_check_error_paths(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(KripkeModel(1), path)
    code, _, err = run(
        capsys, "check", "--dialect", "pdl", "--model", str(path),
        "--state", "5", "p1",
    )
    assert code == 2 and "state 5" in err
    code, _, err = run(
        capsys, "check", "--dialect", "pdl", "--model", str(tmp_path / "no.json"),
        "--state", "0", "p1",
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(
        capsys, "check", "--dialect", "pdl", "--model", str(bad),
        "--state", "0", "p1",
    )
    assert code == 2 and "malformed" in err
    huge = tmp_path / "huge.json"
    huge.write_text('{"states": 1000000000}')
    code, out, err = run(
        capsys, "check", "--dialect", "pdl", "--model", str(huge),
        "--state", "0", "p1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "at most 10000 states" in err
    assert "Traceback" not in err
    listed = tmp_path / "listed.json"
    listed.write_text('{"states": 2, "relations": []}')
    code, out, err = run(
        capsys, "check", "--dialect", "pdl", "--model", str(listed),
        "--state", "0", "p1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'relations' must be a JSON object" in err
    assert "Traceback" not in err
    starless = tmp_path / "starless.json"
    starless.write_text('{"states": 2, "star": null}')
    code, out, err = run(
        capsys, "check", "--dialect", "prspdl", "--model", str(starless),
        "--state", "0", "p1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'star' must be a list" in err
    assert "Traceback" not in err


def test_sat_complete_default_for_pdl(capsys):
    code, out, _ = run(capsys, "sat", "--dialect", "pdl", "<a1>true & [a1]false")
    assert (code, out.strip()) == (0, "unsatisfiable")
    code, out, _ = run(capsys, "sat", "--dialect", "pdl", "p1", "--format", "lines")
    record = json.loads(out)
    assert code == 0
    assert record["backend"] == "complete"
    assert record["verdict"] == "satisfiable"
    assert "witness_state" in record


def test_sat_bounded_backend(tmp_path, capsys):
    witness_path = tmp_path / "witness.json"
    code, out, _ = run(
        capsys, "sat", "--dialect", "ipdl", "--bounded", "2",
        "<a1 & a2>p1", "--emit-witness", str(witness_path),
    )
    assert code == 0 and out.startswith("satisfiable")
    model = load_model(witness_path)
    phi = parse_formula("<a1 & a2>p1", Dialect.IPDL)
    assert any(check(model, s, phi, Dialect.IPDL) for s in model.states)

    code, out, _ = run(
        capsys, "sat", "--dialect", "prspdl", "--bounded", "2", "p1 & ~p1",
    )
    assert code == 0 and out.strip() == "unknown-at-bound"
    # reads no star, so PRSPDL searches PDL's models and finds PDL's witness
    for dialect in ("pdl", "ipdl", "prspdl"):
        code, out, _ = run(
            capsys, "sat", "--dialect", dialect, "--bounded", "4",
            "<a1><a1>p1 & ~p1 & [a1]~p1",
        )
        assert (code, out.strip()) == (0, "satisfiable (witness: state 1 of 3)")


def test_sat_usage_errors(capsys):
    code, _, err = run(capsys, "sat", "--dialect", "ipdl", "p1")
    assert code == 2 and "--bounded" in err


@pytest.mark.parametrize("argv, message", [
    (("sat", "--dialect", "ipdl", "--bounded", "2", "--cap", "-1", "p1"), "--cap must be >= 1"),
    (("sat", "--dialect", "ipdl", "--bounded", "2", "--cap", "0", "p1"), "--cap must be >= 1"),
    (("sat", "--dialect", "ipdl", "--bounded", "0", "p1"), "--bounded must be >= 1"),
    (("equisat-fuzz", "--dialect", "prspdl", "--count", "1", "--cap", "-1"),
     "--cap must be >= 1"),
    (("equisat-fuzz", "--dialect", "ipdl", "--count", "1", "--max-states", "0"),
     "--max-states must be >= 1"),
    (("equisat-fuzz", "--dialect", "pdl", "--count", "-3"), "--count must be >= 0"),
    (("equisat-fuzz", "--dialect", "ipdl", "--count", "-3"), "--count must be >= 0"),
    (("equisat-fuzz", "--dialect", "pdl", "--count", "2", "--cap", "-7", "--max-states", "-3"),
     "--max-states and --cap apply to witness mode only"),
    (("equisat-fuzz", "--dialect", "pdl", "--mode", "complete", "--count", "2", "--cap", "6000"),
     "--max-states and --cap apply to witness mode only"),
    (("gadget", "1001", "1"), "gadget index m must be <= 1000"),
    (("gadget", str(10**9), "1"), "gadget index m must be <= 1000"),
    (("sat", "--dialect", "prspdl", "--bounded", "257", "--cap", "1", "(<a1 || a1>p1) & false"),
     "--bounded must be <= 256"),
    (("sat", "--dialect", "pdl", "--bounded", str(10**9), "p1"), "--bounded must be <= 256"),
])
def test_out_of_range_search_bounds_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("translate", "--dialect", "pdl", "--file", "{formulas}"),
    ("translate", "--dialect", "prspdl", "[a1 || r2]p1", "--emit-hat"),
    ("check", "--dialect", "pdl", "--model", "{model}", "--state", "1", "--file", "{formulas}"),
    ("sat", "--dialect", "pdl", "--file", "{formulas}"),
    ("sat", "--dialect", "ipdl", "--bounded", "2", "<a1 & a2>p1"),
    ("sat", "--dialect", "prspdl", "--bounded", "1", "p1 & ~p1"),
    ("equisat-fuzz", "--dialect", "pdl", "--count", "3", "--seed", "3"),
    ("equisat-fuzz", "--dialect", "ipdl", "--count", "2", "--seed", "1"),
    ("gadget", "3", "2"),
])
def test_text_output_is_rendered_from_the_record(tmp_path, capsys, argv):
    model, formulas = tmp_path / "model.json", tmp_path / "formulas.txt"
    save_model(KripkeModel(3, {1: {(0, 1), (1, 2)}}, {1: {2}}), model)
    formulas.write_text("p1\n[a1]p1 -> <a1*>p2\n<a1>true & [a1]false\n")
    argv = [arg.format(model=model, formulas=formulas) for arg in argv]
    code, text, _ = run(capsys, *argv)
    lines_code, lines, _ = run(capsys, *argv, "--format", "lines")
    assert code == lines_code == 0
    records = [json.loads(line) for line in lines.splitlines()]
    assert text == "".join(_text(record) + "\n" for record in records)


def test_equisat_fuzz_lines(capsys):
    code, out, _ = run(
        capsys, "equisat-fuzz", "--dialect", "pdl", "--count", "10",
        "--seed", "3", "--ceiling", "64", "--format", "lines",
    )
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "complete"
    assert record["failures"] == 0 and record["ceiling_ok"] is True
    assert record["sat"] + record["unsat"] == record["checked"] == 10


def test_equisat_fuzz_witness_mode(capsys):
    code, out, _ = run(
        capsys, "equisat-fuzz", "--dialect", "prspdl", "--count", "5", "--seed", "3",
    )
    assert code == 0 and "witness mode" in out


def test_equisat_fuzz_ceiling_violation(capsys):
    code, _, err = run(
        capsys, "equisat-fuzz", "--dialect", "pdl", "--count", "5",
        "--seed", "3", "--ceiling", "0.001",
    )
    assert code == 1 and "exceeds ceiling" in err


def test_equisat_fuzz_replays_counterexamples(tmp_path, capsys, monkeypatch):
    phi = parse_formula("[a1]p1 -> <a1*>p2", Dialect.PDL)

    def one_failure(count, seed, max_size, max_vars, max_atoms):
        report = fuzzing.FuzzReport("complete", Dialect.PDL, seed, total=1, checked=1)
        report.failures.append(fuzzing.FuzzFailure(phi, "verdict mismatch"))
        return report

    monkeypatch.setattr(fuzzing, "run_complete_fuzz", one_failure)
    replay = tmp_path / "replay.jsonl"
    code, _, err = run(
        capsys, "equisat-fuzz", "--dialect", "pdl", "--count", "1", "--replay", str(replay),
    )
    assert code == 1
    assert err.startswith("counterexample: ") and "verdict mismatch" in err
    [line] = replay.read_text().splitlines()
    record = json.loads(line)
    assert parse_formula(record["formula"], Dialect.PDL) == phi
    assert record["mode"] == "complete" and record["detail"] == "verdict mismatch"


def test_complete_fuzz_records_a_verdict_mismatch(capsys, monkeypatch):
    corpus = fuzzing.formula_corpus(3, 4, Dialect.PDL, 12, 3, 2)
    groundings = {embedding.embed(phi, Dialect.PDL) for phi in corpus}
    pdl_sat, Verdict = decision.pdl_sat, decision.Verdict
    flipped = {Verdict.SATISFIABLE: Verdict.UNSATISFIABLE,
               Verdict.UNSATISFIABLE: Verdict.SATISFIABLE}

    def other_verdict_for_groundings(formula, max_nodes):
        result = pdl_sat(formula, max_nodes)
        if formula in groundings:
            return decision.SatResult(flipped[result.verdict])
        return result

    monkeypatch.setattr(decision, "pdl_sat", other_verdict_for_groundings)
    report = fuzzing.run_complete_fuzz(4, 3)
    assert report.passed is False
    assert report.failures == [
        fuzzing.FuzzFailure(phi, f"verdict mismatch: {verdict.value} for input, "
                                 f"{flipped[verdict].value} for its grounding")
        for phi in corpus
        for verdict in [pdl_sat(phi).verdict]
    ]
    code, _, err = run(capsys, "equisat-fuzz", "--dialect", "pdl", "--count", "4", "--seed", "3")
    assert code == 1 and err.count("counterexample: ") == 4


def test_witness_fuzz_records_a_false_grounding(capsys, monkeypatch):
    monkeypatch.setattr(fuzzing.semantics, "check", lambda *args: False)
    report = fuzzing.run_witness_fuzz(Dialect.IPDL, 3, 3)
    assert report.passed is False and report.checked == 3
    assert [failure.detail for failure in report.failures] == [
        "grounding false at the witness state after gadget attachment"] * 3
    code, _, err = run(capsys, "equisat-fuzz", "--dialect", "ipdl", "--count", "3", "--seed", "3")
    assert code == 1 and err.count("counterexample: ") == 3


def test_equisat_fuzz_complete_mode_needs_pdl(capsys):
    code, _, err = run(
        capsys, "equisat-fuzz", "--dialect", "ipdl", "--mode", "complete",
        "--count", "2",
    )
    assert code == 2 and "PDL" in err


def test_gadget_command(tmp_path, capsys):
    out_path = tmp_path / "gadget.json"
    code, out, _ = run(
        capsys, "gadget", "2", "1", "--format", "lines",
        "--out-model", str(out_path),
    )
    assert code == 0
    record = json.loads(out)
    assert record["m"] == 2 and record["model"]["states"] == 4
    saved = load_model(out_path)
    assert saved.num_states == 4
    assert parse_formula(record["A"], Dialect.PDL) is not None
    code, _, err = run(capsys, "gadget", "0", "1")
    assert code == 2


def test_unknown_dialect_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sat", "--dialect", "xpdl", "p1"])
    assert err.value.code == 2


def test_deep_input_translates(capsys):
    code, out, err = run(capsys, "translate", "--dialect", "pdl", "~" * 5000 + "p1")
    assert (code, err) == (0, "")
    grounded = parse_formula(out.splitlines()[0], Dialect.PDL)
    assert metrics(grounded).variables == frozenset()


def test_too_deep_input_is_an_input_error(capsys, monkeypatch):
    def too_deep(phi, dialect):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(embedding, "translate", too_deep)
    code, _, err = run(capsys, "translate", "--dialect", "pdl", "p1")
    assert code == 2 and err.startswith("error: input nested too deeply")
    assert "Traceback" not in err


def test_capacity_error_is_an_input_error(capsys, monkeypatch):
    def over_capacity(phi):
        raise decision.CapacityError("more than 1 types needed")

    monkeypatch.setattr(decision, "pdl_sat", over_capacity)
    code, _, err = run(capsys, "sat", "--dialect", "pdl", "p1")
    assert code == 2 and err.startswith("error: more than 1 types needed")
    assert "Traceback" not in err
