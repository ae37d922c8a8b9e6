"""Benchmark for asmkit: one workload, one process, one thread.

    python3 bench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the run sets up its inputs several times (``setup_s`` is
the median), then calls the workload's checks in a closed loop with one
caller, pass after pass over the same list, for ``--seconds`` seconds, and
prints the end-to-end metrics.  Times are scaled to a reference speed by a
calibration loop run between the checks (see ``calibrate``).  With
``--trace 1`` it makes one untraced pass, then the same pass with a span
around every call of a traced function (see ``spans.py``), and prints the
per-layer metrics and the tracing overhead instead.

Every outcome is checked against its known answer, and against the pairwise
reference where the closure is small enough; the last line of output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run, with every value behind each median, goes to
``bench/runs/``; a traced run also writes its spans there.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

SETUP_REPEATS = 7
MIN_PASSES = 3

# Time the calibration loop takes at the reference speed: the median on the
# 2 GHz Xeon the baseline was taken on.  Reported times are "seconds at the
# reference speed", so on that machine they read as wall time does on
# average.
CALIBRATION_REFERENCE_S = 0.00065

# workload name -> (builder, size): checks taken evenly from the default
# suite's 370, suite instances, or carrier-4 algorithms.  A pass over each
# list takes 4 to 8 seconds on a 2 GHz Xeon, so a 30-second run times every
# check four times or more.
WORKLOADS = {
    "suite-default": ("suite_default", 100),
    "universe-sweep": ("universe_sweep", 4),
    "naturality": ("naturality", 100),
}

END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_asmkit():
    """Import the package afresh from ``src/`` and return it."""
    for name in [n for n in sys.modules if n == "asmkit" or n.startswith("asmkit.") or n == "oracle"]:
        del sys.modules[name]
    import asmkit
    import asmkit.cli  # not imported by the package itself

    return asmkit


def build(workload: str, asmkit, seed: int, size: int) -> list:
    import workloads

    builder = getattr(workloads, WORKLOADS[workload][0])
    if workload == "universe-sweep":
        return builder(asmkit, seed, size, ROOT)
    return builder(asmkit, seed, size)


def calibrate() -> float:
    """Seconds a fixed piece of dict and tuple work takes right now.

    The 2 GHz Xeon the baseline was taken on runs the same Python code up to
    1.8 times slower in spells of under a second to minutes, and the
    calibration loop slows with it (CPU time as wall time).  Dividing a check's time by the
    calibration times taken just before and just after it removes most of
    that.  The loop allocates and frees its own objects with the collector
    off, so the program's heap does not change its time.
    """
    gc.disable()
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        key = (i % 97, i // 97, i * 7 % 13)
        table[key] = table.get(key, 0) + 1
    del table, key
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the calibrations around it."""
    return elapsed * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def passes(checks: list, seconds: float, at_least: int = 1) -> list[tuple[list, list, list]]:
    """Call every check in order, pass after pass, with one caller.

    Stops before a pass that would end after ``seconds`` by the length of
    the last one, but makes at least ``at_least`` passes.  Returns
    (latencies, outcomes, calibrations) per pass, with a calibration before
    the first check, between each two checks and after the last.  An
    exception is an outcome.
    """
    clock = time.perf_counter
    done = []
    start = clock()
    while True:
        latencies, outcomes, calibrations = [], [], [calibrate()]
        pass_start = clock()
        for check in checks:
            t0 = clock()
            try:
                outcome = check.run()
            except Exception as exc:  # a crashing check counts as failed
                outcome = ("error", f"{type(exc).__name__}: {exc}")
            latencies.append(clock() - t0)
            outcomes.append(outcome)
            calibrations.append(calibrate())
        wall = clock() - pass_start
        done.append((latencies, outcomes, calibrations))
        if len(done) >= at_least and clock() - start + wall > seconds:
            return done


def scaled(latencies: list[float], calibrations: list[float]) -> list[float]:
    """A pass's check times at the reference speed."""
    return [scale(t, calibrations[i], calibrations[i + 1]) for i, t in enumerate(latencies)]


def judge(checks: list, outcome_passes: list[list]) -> list[str]:
    """Labels of the executions whose outcome is wrong, one entry each."""
    references = {
        i: check.reference() for i, check in enumerate(checks) if check.reference is not None
    }
    wrong = []
    for outcomes in outcome_passes:
        base = {
            check.group[0]: outcome
            for check, outcome in zip(checks, outcomes)
            if check.group is not None and check.group[1] == 0
        }
        for i, (check, outcome) in enumerate(zip(checks, outcomes)):
            ok = not (isinstance(outcome, tuple) and outcome[:1] == ("error",))
            ok = ok and check.known(outcome)
            if ok and i in references:
                ok = check.agrees(outcome, references[i])
            if ok and check.group is not None:
                ok = outcome == base[check.group[0]]
            if not ok:
                wrong.append(check.label)
    return wrong


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": model,
    }


def untraced_run(workload, seed, seconds, size, inject=None):
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        asmkit = _import_asmkit()
        checks = build(workload, asmkit, seed, size)
        setup_wall.append(time.perf_counter() - t0)
        setup_times.append(scale(setup_wall[-1], before, calibrate()))
    if inject:
        inject(asmkit)
    done = passes(checks, seconds, at_least=MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = judge(checks, [outcomes for _, outcomes, _ in done])
    times = [scaled(lat, cal) for lat, _, cal in done]
    # A check's time to a verdict is its median over the passes; the
    # quantiles are taken over the list's checks.
    per_check = [statistics.median(check_times) for check_times in zip(*times)]
    attempted = len(checks) * len(done)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "checks_per_s": attempted / sum(map(sum, times)),
        "check_p50_ms": 1e3 * statistics.median(per_check),
        "check_p90_ms": 1e3 * quantile(per_check, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    wall_per_check = [statistics.median(t) for t in zip(*(lat for lat, _, _ in done))]
    record = {
        "setup_repeats_s": setup_times,
        "setup_repeats_wall_s": setup_wall,
        "passes": len(done),
        "checks_per_pass": len(checks),
        "pass_s": [sum(t) for t in times],
        "pass_wall_s": [sum(lat) for lat, _, _ in done],
        "wall_metrics": {
            "setup_s": statistics.median(setup_wall),
            "checks_per_s": attempted / sum(sum(lat) for lat, _, _ in done),
            "check_p50_ms": 1e3 * statistics.median(wall_per_check),
            "check_p90_ms": 1e3 * quantile(wall_per_check, 90),
        },
        "latencies_s_per_pass": times,
        "wall_latencies_s_per_pass": [lat for lat, _, _ in done],
        "calibrations_s_per_pass": [cal for _, _, cal in done],
        "labels": [check.label for check in checks],
        "error_ratio": len(wrong) / attempted,
        "wrong": wrong,
    }
    return metrics, {k: END_TO_END[k] for k in metrics}, attempted, wrong, record


def traced_run(workload, seed, size, write_spans):
    """One untraced pass, then the same pass traced."""
    import spans

    asmkit = _import_asmkit()
    checks = build(workload, asmkit, seed, size)
    [(plain_times, plain_outcomes, plain_cal)] = passes(checks, 0.0)

    tracer = spans.Tracer()
    tracer.install(asmkit)
    try:
        checks = build(workload, asmkit, seed, size)
        [(traced_times, outcomes, traced_cal)] = passes(checks, 0.0)
    finally:
        tracer.uninstall()
    wrong = judge(checks, [plain_outcomes, outcomes])
    plain_s, traced_s = sum(scaled(plain_times, plain_cal)), sum(scaled(traced_times, traced_cal))

    metrics, units = {}, {}
    self_times = tracer.self_times()
    for name_id, name in enumerate(tracer.names):
        metrics[f"{name}.calls"], units[f"{name}.calls"] = tracer.calls[name_id], "count"
        metrics[f"{name}.self_s"], units[f"{name}.self_s"] = self_times[name_id], "s"
    metrics["postulates.closure.copies"] = tracer.closure_copies
    metrics["postulates.closure.dedup_ratio"] = (
        tracer.closure_copies / tracer.closure_tried if tracer.closure_tried else 0.0
    )
    metrics["harness.replayed_chains"] = sum(
        out[3] for out in outcomes if workload == "suite-default" and len(out) == 4
    )
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    units.update({
        "postulates.closure.copies": "count",
        "postulates.closure.dedup_ratio": "ratio",
        "harness.replayed_chains": "count",
        "trace.overhead_ratio": "ratio",
    })
    record = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "labels": [check.label for check in checks],
        "wrong": wrong,
    }
    if write_spans:
        RUNS.mkdir(exist_ok=True)
        span_file = RUNS / f"{workload}-seed{seed}.spans"
        tracer.write(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, units, 2 * len(checks), wrong, record


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None,
        inject=None, write_record: bool = True) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    size = WORKLOADS[workload][1] if size is None else size
    if trace:
        metrics, units, attempted, wrong, record = traced_run(workload, seed, size, write_record)
    else:
        metrics, units, attempted, wrong, record = untraced_run(workload, seed, seconds, size, inject)
    if write_record:
        RUNS.mkdir(exist_ok=True)
        record.update(
            workload=workload, seed=seed, seconds=seconds, trace=int(trace), size=size,
            setup_repeats=SETUP_REPEATS, metrics=metrics, **machine(),
        )
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = RUNS / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "asmkit" / "__init__.py").is_file():
        print(f"error: no asmkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} error_ratio {result['failed'] / result['attempted']} ratio"
              f" ({result['failed']}/{result['attempted']} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
