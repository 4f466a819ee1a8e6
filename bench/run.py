"""Benchmark of `lurestab analyze`: time every verdict and check it independently.

    python3 bench/run.py --workload {paper,ladder,corpus} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  One process analyses one input at a time (a closed loop) in whole
rounds over the workload's inputs until the next round would overrun
--seconds; at least one round always runs.  Each report is checked by
checker.py, which does not use the program.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
spans.py with --trace 1.  Spans and results are written under
bench/results/.  See README.md for the workloads and the metrics.
"""

import os

# One BLAS thread: on a 2-core host OpenBLAS' second thread costs about 1 s
# of start-up and slows the mid-size solves (README.md).  Set before numpy
# is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("paper", "ladder", "corpus", "corpus_full")
SETUP_PROBES = 4  # fresh processes that set up again, besides this one
VERDICTS = ("absolutely_stable", "not_absolutely_stable", "inconclusive", "error")
REASONS = (
    "sign",
    "rank",
    "slope_check",
    "equilibrium_check",
    "dual_not_feasible",
    "no_dual_outside_reduced_band",
    "degenerate",
    "other",
)


def setup(workload):
    """Import the program, make the inputs and warm up.

    Returns (seconds taken, the lurestab package, cases, systems by case name).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lurestab
    import lurestab.cli

    import workloads

    cases = workloads.WORKLOADS[workload]()
    systems = {c.name: to_system(lurestab, c) for c in cases if c.path is None}
    warm = workloads.paper()[-1]
    lurestab.report.analyze(to_system(lurestab, warm)).to_json()
    return time.perf_counter() - t0, lurestab, cases, systems


def to_system(lurestab, case):
    cls = lurestab.NonlinearityClass.SLOPE_ODD if case.odd else lurestab.NonlinearityClass.SLOPE
    return lurestab.StateSpaceSystem(
        case.A, case.B, case.C, case.D, lurestab.SlopeBand(case.mu, case.nu), cls
    )


def probe_setup(workload, seed):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def analyse(lurestab, case, system):
    """One timed operation: (seconds, report text or None, exit code, error)."""
    if case.path is not None:
        buf = io.StringIO()
        t = time.perf_counter()
        with redirect_stdout(buf):
            code = lurestab.cli.main(["analyze", str(case.path)])
        dt = time.perf_counter() - t
        text = buf.getvalue() or None
        return dt, text, code, None if text else f"exit code {code}"
    t = time.perf_counter()
    try:
        text = lurestab.report.analyze(system).to_json()
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        return time.perf_counter() - t, None, None, type(exc).__name__
    return time.perf_counter() - t, text, None, None


def outcome(checker, case, result):
    """(verdict, reason or error, failed, check problems) of one operation."""
    _, text, code, error = result
    if text is None:
        return "error", error, True, []
    report = json.loads(text)
    problems = checker.check(case, report)
    if case.expect_exit is not None and code != case.expect_exit:
        problems.append(f"exit code {code}, expected {case.expect_exit}")
    verdict = report["verdict"]
    reason = None
    if verdict == "inconclusive":
        reason = report["diagnostics"]["pipeline"].get("inconclusive_reason")
        reason = reason if reason in REASONS else "other"
    return verdict, reason, bool(problems), problems


def run_round(lurestab, checker, cases, systems, order, tracer=None):
    """Analyse every input once; per-input seconds and outcomes, in input order."""
    times, outcomes = [0.0] * len(cases), [None] * len(cases)
    for i in order:
        case = cases[i]
        if tracer is not None:
            tracer.op = case.name
        result = analyse(lurestab, case, systems.get(case.name))
        times[i] = result[0]
        outcomes[i] = outcome(checker, case, result)
    return times, outcomes


def round_plan(seconds, seed, n_cases, run_one):
    """Run whole rounds until the next one would overrun `seconds`."""
    rng = random.Random(seed)
    start = time.perf_counter()
    rounds = []
    while True:
        order = list(range(n_cases))
        rng.shuffle(order)
        t = time.perf_counter()
        rounds.append(run_one(order))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return rounds


def histogram(outcomes):
    hist = {f"verdict.{v}": 0 for v in VERDICTS}
    hist.update({f"inconclusive.{r}": 0 for r in REASONS})
    for verdict, reason, _, _ in outcomes:
        hist[f"verdict.{verdict}"] += 1
        if verdict == "inconclusive":
            hist[f"inconclusive.{reason}"] += 1
    return hist


def summarize(cases, rounds, setup_s):
    """End-to-end metrics from the untraced rounds."""
    per_case = [statistics.median(r[0][i] for r in rounds) for i in range(len(cases))]
    round_s = statistics.median(sum(r[0]) for r in rounds)
    decided = min(
        sum(1 for v, _, failed, _ in r[1] if not failed and v in VERDICTS[:2])
        for r in rounds
    )
    return {
        "setup_s": (setup_s, "s"),
        "throughput_sps": (len(cases) / round_s, "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(per_case), "ms"),
        "latency_p90_ms": (1000.0 * statistics.quantiles(per_case, n=10, method="inclusive")[-1], "ms"),
        "decided": (decided, "count"),
    }, per_case


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lurestab" / "__init__.py").is_file():
        print(f"no program source at {SRC}/lurestab; run from a checkout", file=sys.stderr)
        return 2

    secs, lurestab, cases, systems = setup(args.workload)
    if args.setup_probe:
        print(repr(secs))
        return 0
    if not Path(lurestab.__file__).resolve().is_relative_to(SRC):
        print(f"imported {lurestab.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    setup_s = statistics.median(
        [secs] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    )

    import checker
    import spans

    tracers = []

    def run_one(order):
        untraced = run_round(lurestab, checker, cases, systems, order)
        if not args.trace:
            return untraced, None
        tracer = spans.Tracer()
        with tracer.patched(lurestab):
            traced = run_round(lurestab, checker, cases, systems, order, tracer)
        tracers.append(tracer)
        return untraced, traced

    plan = round_plan(args.seconds, args.seed, len(cases), run_one)
    rounds = [u for u, _ in plan]
    metrics, per_case = summarize(cases, rounds, setup_s)

    checked = [(c, o) for r in rounds for c, o in zip(cases, r[1])]
    if args.trace:
        traced = [t for _, t in plan]
        layer = [t.layer_metrics() for t in tracers]
        metrics = {}
        for name, (_, _, unit) in spans.LAYER_METRICS.items():
            values = [m[name] for m in layer]
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = (value, unit)
            if unit == "count" and len(set(values)) > 1:
                print(f"warning: {name} differs between rounds: {values}", file=sys.stderr)
        metrics["conic.s_per_iter"] = (statistics.median(m["conic.s_per_iter"] for m in layer), "s")
        for name, value in histogram(traced[0][1]).items():
            metrics[name] = (value, "count")
        overhead = statistics.median(sum(t[0]) for t in traced) - statistics.median(
            sum(u[0]) for u in rounds
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        checked += [(c, o) for t in traced for c, o in zip(cases, t[1])]

    attempted = len(checked)
    failed = sum(1 for _, o in checked if o[2])
    problems = sorted({f"{c.name}: {p}" for c, o in checked for p in o[3]})
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for c, o in checked[: len(cases)]:
        if o[0] == "error" and o[1] != c.expect_error:
            print(f"unexpected failure: {c.name}: {o[1]}", file=sys.stderr)
    correct = not problems

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=len(rounds), cases={
        c.name: {"median_s": t, "verdict": o[0], "reason": o[1], "failed": o[2]}
        for c, t, o in zip(cases, per_case, rounds[0][1])
    })
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if args.trace:
        fields = ("id", "parent", "op", "layer", "start", "end", "self_s")
        spans_out = [dict(zip(fields, s), round=k) for k, t in enumerate(tracers) for s in t.spans]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans_out))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
