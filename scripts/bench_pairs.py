"""Alternate the benchmark between a parent tree and a change tree, in pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload suite-default --pairs 10 --seed 1001 --seconds 30 --out BENCH.json

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, from that tree's root, with one seed per pair
(``--seed``, ``--seed + 1``, ...); which side runs first alternates from pair
to pair.  Every run compiles the package from source: it starts with
``PYTHONDONTWRITEBYTECODE=1`` and a fresh empty ``PYTHONPYCACHEPREFIX``, so
``__pycache__`` bytecode lying in one tree does not bias ``setup_s``.
``--workload`` may be given several times; the workloads run one after the
other.  The runs are sequential, one process at a time.

The output file records the machine, the Python version, the seeds and the
repeats, each tree's commit and the paths where it differs from that commit
(``git rev-parse HEAD`` and ``git status --porcelain``, taken before the
first run; null for a tree that is not the root of a git checkout), every
run's metrics, and per workload and end-to-end metric the
median and quartiles of each side and the pairs the change won (ties count
for neither side).  The script prints the same summary as a Markdown table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import machine  # noqa: E402  (the benchmark's own record of the machine)

# End-to-end metrics of bench/run.py, and whether higher is better.
METRICS = {
    "checks_per_s": True,
    "check_p50_ms": False,
    "check_p90_ms": False,
    "peak_rss_mb": False,
    "setup_s": False,
}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``, compiled from source; the JSON
    object it prints last.  Bytecode is read only from an empty temporary
    cache, deleted after the run, and none is written."""
    command = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_state(tree: Path) -> dict | None:
    """The commit ``tree`` is at and the paths where its files differ from
    that commit, or None when ``tree`` is not the root of a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=tree, capture_output=True, text=True, check=True
        ).stdout
    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD").split()
        status = git("status", "--porcelain")
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None
    if Path(top).resolve() != tree:
        return None
    return {"head": head, "dirty": [line[3:] for line in status.splitlines()]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    summary = {}
    for metric, higher in METRICS.items():
        parent = [r["parent"]["metrics"][metric]["value"] for r in runs]
        change = [r["change"]["metrics"][metric]["value"] for r in runs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        summary[metric] = {
            "unit": runs[0]["parent"]["metrics"][metric]["unit"],
            "higher_is_better": higher,
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "ratio": cm / pm if pm else None,
            "change_won": won,
            "pairs": len(runs),
        }
    return summary


def table(results: dict) -> str:
    """The summary as a Markdown table, values to three significant digits."""
    rows = [
        "| workload | metric | parent | change | ratio | change better |",
        "|---|---|---|---|---|---|",
    ]
    for workload, entry in results.items():
        for metric, s in entry["summary"].items():
            p, c = s["parent"], s["change"]
            ratio = f"{s['ratio']:.2f}x" if s["ratio"] is not None else "n/a"
            rows.append(
                f"| {workload} | {metric} "
                f"| {p['median']:.3g} [{p['q1']:.3g}, {p['q3']:.3g}] "
                f"| {c['median']:.3g} [{c['q1']:.3g}, {c['q3']:.3g}] "
                f"| {ratio} | {s['change_won']}/{s['pairs']} |"
            )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the change tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {tree}")

    git = {side: git_state(tree) for side, tree in trees.items()}
    results = {}
    seed = args.seed
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            entry = {"seed": seed, "first": order[0]}
            for side in order:
                entry[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} {side}: "
                      f"checks_per_s {entry[side]['metrics']['checks_per_s']['value']:.4g}, "
                      f"correct {entry[side]['correct']}, failed {entry[side]['failed']}",
                      file=sys.stderr, flush=True)
            runs.append(entry)
            seed += 1
        results[workload] = {"runs": runs, "summary": summarize(runs)}

    record = {
        "host": platform.node(),
        **machine(),
        "date": time.strftime("%Y-%m-%d"),
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": {w: [r["seed"] for r in e["runs"]] for w, e in results.items()},
        "git": git,
        "repeats": (
            "one run per tree per seed; first side alternates per pair; every run compiles "
            "from source (PYTHONDONTWRITEBYTECODE=1, a fresh empty PYTHONPYCACHEPREFIX)"
        ),
        "all_correct": all(
            r[side]["correct"] and r[side]["failed"] == 0
            for e in results.values() for r in e["runs"] for side in ("parent", "change")
        ),
        "workloads": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(table(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
