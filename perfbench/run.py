"""pdlkit benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all     # every workload, one process each
    python3 perfbench/run.py --selfcheck        # counts repeat exactly across two runs

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics untraced,
the per-layer metrics traced. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: keep numpy's BLAS pool from starting workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Wrong  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 21
PINS = HERE / "expected.json"
OUT = HERE / "out"

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}
SELF_TIMES = (
    "syntax.parse_formula", "syntax.print_formula", "syntax.metrics",
    "syntax.normalize_variables", "syntax.equal",
    "embedding.build_context", "embedding.hat", "embedding.ground",
    "embedding.attach_gadgets",
    "decision.pdl_sat.input", "decision.pdl_sat.grounded",
    "decision.bounded_sat.hit", "decision.bounded_sat.unknown",
    "decision.fl_closure",
    "semantics.truth_set", "semantics.relation_of", "semantics.check",
    "semantics.model_from_json",
)
COUNTS = (
    "decision.pdl_sat.witness_states", "decision.fl_closure.members",
    "decision.bounded_sat.hits", "decision.bounded_sat.unknown",
    "decision.bounded_sat.bound_used",
    "semantics.truth_set.true_states", "semantics.relation_of.pairs",
    "embedding.ground.out_nodes",
)
MODULES = ("syntax", "embedding", "decision", "semantics")
# Failures an operation may meet on valid input today; anything else
# raised by pdlkit also fails the operation and marks the run incorrect.
KNOWN_FAILURES = ("RecursionError", "CapacityError", "ModelError")


def self_metric(span: str) -> str:
    """decision.pdl_sat.input -> decision.pdl_sat.input_self_s;
    syntax.metrics -> syntax.metrics.self_s."""
    return f"{span}_self_s" if span.count(".") == 2 else f"{span}.self_s"


PER_LAYER = {self_metric(s): "s" for s in SELF_TIMES}
PER_LAYER.update({c: "count" for c in COUNTS})
PER_LAYER.update({f"{m}.errors": "count" for m in MODULES})
PER_LAYER.update({
    "deep_slice.failed": "count",
    "decision.bounded_sat.hit_ratio": "frac",
    "trace.ops": "count", "trace.op_total_s": "s", "trace.layer_share": "frac",
    "trace.overhead_ops_per_s": "1/s",
})


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "machine": platform.platform(), "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
    }


def import_pdlkit():
    """A fresh import of pdlkit from the checkout's src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "pdlkit" or m.startswith("pdlkit.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    P = importlib.import_module("pdlkit")
    if src not in Path(P.__file__).resolve().parents:
        raise ImportError(f"pdlkit was found at {P.__file__}, outside {src}")
    return P


class Tally:
    """Outcome of every operation a run attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.failures: dict[str, int] = {}

    def fail(self, kind: str, detail: str, wrong: bool) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if wrong:
            self.incorrect.append(detail)


def execute(wl, P, tracer, item, op_id, tally, pinned=False):
    """One operation, then its untimed checks. Returns (latency in seconds,
    summary); summary is None when the operation failed."""
    tally.attempted += 1
    tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        result = wl.op(P, tracer, item)
    except Exception as err:  # an operation's failure must not end the run
        error = err
    else:
        error = None
    latency = time.perf_counter() - start
    tracer.end_op()
    if error is None:
        try:
            return latency, wl.verify(item, result, pinned)
        except Wrong as err:
            error = err
    if isinstance(error, Wrong):
        tally.fail("wrong", str(error), wrong=True)
        tracer.count(f"{error.module}.errors")
    else:
        kind = type(error).__name__
        tally.fail(kind, f"{kind} on {item.text[:80]}: {error}"[:300],
                   wrong=kind not in KNOWN_FAILURES)
    return latency, None


def run_pass(wl, P, tracer, rounds, tally, pinned=False):
    """Every item of the given rounds; returns latencies and summaries."""
    latencies, summaries = [], []
    for r, items in rounds:
        for i, item in enumerate(items):
            latency, summary = execute(wl, P, tracer, item, (r, i), tally, pinned)
            latencies.append(latency)
            summaries.append(summary)
    return latencies, summaries


def setup(wl_class, seed: int, traced: bool):
    """Import pdlkit, build the fixed inputs and the pinned rounds, load the
    models; SETUP_REPS times. Returns the last set-up and the median time."""
    times = []
    for rep in range(SETUP_REPS):
        tracer = Tracer() if traced and rep == SETUP_REPS - 1 else NullTracer()
        gc.collect()
        start = time.perf_counter()
        P = import_pdlkit()
        wl = wl_class(seed)
        wl.setup(P, tracer)
        rounds = [(r, wl.round(P, r)) for r in range(wl.trace_rounds)]
        times.append(time.perf_counter() - start)
    return P, wl, rounds, statistics.median(times), tracer


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


def check_pins(wl, summaries, tally) -> None:
    """At the default seed, compare the pinned rounds' answers with expected.json."""
    if wl.seed != DEFAULT_SEED:
        return
    got = wl.pins(summaries)
    print("pins " + json.dumps({wl.name: got}))
    expected = json.loads(PINS.read_text()).get(wl.name) if PINS.exists() else None
    if expected != got:
        tally.incorrect.append(f"pinned answers differ: expected {expected}, got {got}")


def run_deep(wl, P, tracer, tally) -> int:
    """The deep slice, once, outside the timed loop and outside the run's
    attempted and failed operations: it probes the recursion limit, where
    failures are known today, and is reported on its own line and in
    deep_slice.failed. An unexpected error or wrong answer there still
    marks the run incorrect. Returns the number of deep items that failed."""
    deep = Tally()
    run_pass(wl, P, tracer, [("deep", wl.deep)], deep)
    tally.incorrect.extend(deep.incorrect)
    if deep.attempted:
        print(f"deep slice: {deep.failed} of {deep.attempted} failed "
              f"({deep.failures or 'none'})")
    return deep.failed


def run_untraced(wl, P, rounds, seconds, tally):
    """Whole rounds until `seconds` have passed; the pinned rounds come first."""
    gc.collect()
    start = time.perf_counter()
    latencies, summaries = run_pass(wl, P, NullTracer(), rounds, tally, pinned=True)
    check_pins(wl, summaries, tally)
    r = len(rounds)
    while time.perf_counter() - start < seconds:
        lat, _ = run_pass(wl, P, NullTracer(), [(r, wl.round(P, r))], tally)
        latencies.extend(lat)
        r += 1
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The deep slice runs outside the timed loop: today it fails fast, and
    # a fix that makes it succeed must not read as a slowdown.
    run_deep(wl, P, NullTracer(), tally)
    return latencies, peak_rss


def run_traced(wl, P, rounds, seconds, tally, setup_tracer):
    """Untraced and traced passes over the pinned rounds, alternating until
    `seconds` have passed. Per-layer metrics come from the first traced pass."""
    timed = {False: [0, 0.0], True: [0, 0.0]}
    traced_counts = []
    first = None
    deep_failed = 0
    deep_tracer = Tracer()
    start = time.perf_counter()
    traced = False
    while not (timed[True][0] and time.perf_counter() - start >= seconds):
        tracer = Tracer() if traced else NullTracer()
        gc.collect()
        latencies, summaries = run_pass(wl, P, tracer, rounds, tally, pinned=True)
        timed[traced][0] += len(latencies)
        timed[traced][1] += sum(latencies)
        if traced:
            traced_counts.append((dict(tracer.counts), summaries))
            if first is None:
                first = tracer
                deep_failed = run_deep(wl, P, deep_tracer, tally)
        elif timed[False][0] == len(latencies):
            check_pins(wl, summaries, tally)
        traced = not traced
    if len(traced_counts) > 1 and traced_counts[0] != traced_counts[1]:
        tally.incorrect.append("counts differ between two traced passes")
    rate = {k: n / busy for k, (n, busy) in timed.items()}
    metrics = layer_metrics(first, deep_tracer, setup_tracer, rate[True] - rate[False])
    metrics["deep_slice.failed"] = deep_failed
    return metrics, first


def layer_metrics(tracer, deep_tracer, setup_tracer, overhead) -> dict:
    selfs = tracer.self_times()
    for name, value in setup_tracer.self_times().items():
        selfs[name] += value
    metrics = {self_metric(s): selfs[s] for s in SELF_TIMES}
    metrics.update({c: tracer.counts[c] for c in COUNTS})
    for m in MODULES:
        metrics[f"{m}.errors"] = sum(
            t.errors_by_module()[m] + t.counts[f"{m}.errors"] for t in (tracer, deep_tracer))
    hits, unknown = metrics["decision.bounded_sat.hits"], metrics["decision.bounded_sat.unknown"]
    metrics["decision.bounded_sat.hit_ratio"] = hits / (hits + unknown) if hits + unknown else 0.0
    ops = [end - start for name, start, end, *_ in tracer.spans if name == "op"]
    metrics["trace.ops"] = len(ops)
    metrics["trace.op_total_s"] = sum(ops)
    metrics["trace.layer_share"] = 1 - selfs["op"] / sum(ops)
    metrics["trace.overhead_ops_per_s"] = overhead
    return metrics


def run_one(args) -> int:
    wl_class = WORKLOADS[args.workload]
    try:
        P, wl, rounds, setup_s, setup_tracer = setup(wl_class, args.seed, args.trace)
    except ImportError as err:
        print(f"cannot import pdlkit from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    tally = Tally()
    env = environment()
    print("env " + json.dumps(env))
    if args.trace:
        metrics, first_tracer = run_traced(wl, P, rounds, args.seconds, tally, setup_tracer)
        units = PER_LAYER
    else:
        latencies, peak_rss = run_untraced(wl, P, rounds, args.seconds, tally)
        p50 = statistics.median(latencies)
        tail_value, beyond = tail(latencies, wl.tail_pct)
        metrics = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": p50 * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "ok_frac": 1 - tally.failed / tally.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
        print(f"workload {wl.name} seed {args.seed}: {len(latencies)} timed ops, "
              f"closed loop, 1 client; tail = p{wl.tail_pct:g} with {beyond} "
              f"samples beyond it")
        print(f"fail_frac {tally.failed / tally.attempted:.6f} "
              f"({tally.failed} of {tally.attempted}; {tally.failures or 'none'})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for detail in tally.incorrect[:10]:
        print(f"INCORRECT {detail}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        header = {"workload": wl.name, "seed": args.seed, "env": env}
        first_tracer.write(path, header)
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_children(names, seed, seconds, trace) -> list[dict]:
    results = []
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(done.returncode)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def selfcheck(seconds) -> int:
    """Run every workload traced twice with the default seed; every count
    metric must repeat exactly."""
    names = list(WORKLOADS)
    first = run_children(names, DEFAULT_SEED, seconds, 1)
    second = run_children(names, DEFAULT_SEED, seconds, 1)
    bad = []
    for name, a, b in zip(names, first, second):
        for metric, unit in PER_LAYER.items():
            if unit == "count" and a["metrics"][metric] != b["metrics"][metric]:
                bad.append(f"{name} {metric}: {a['metrics'][metric]} vs {b['metrics'][metric]}")
    print("\n".join(bad) or "selfcheck: every count metric repeated exactly")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.seconds)
    if args.workload == "all":
        results = run_children(list(WORKLOADS), args.seed, args.seconds, args.trace)
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {n: r["metrics"] for n, r in zip(WORKLOADS, results)},
        }))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
