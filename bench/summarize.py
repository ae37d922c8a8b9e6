"""Summarise untraced run records into a baseline.

    python3 bench/summarize.py > bench/baseline.json

Reads every ``bench/runs/*-trace0-*.json`` record and prints, per workload
and end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) over the runs, with the
seeds and the machine the runs came from.  The same figures for the
unscaled wall times go under ``wall_metrics``.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parent / "runs"


def _figures(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        metrics = {name: _figures([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
        wall = {name: _figures([r["wall_metrics"][name] for r in runs])
                for name in runs[0]["wall_metrics"]}
        out[workload] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"],
            "machine": {k: runs[0][k] for k in ("cpu", "nproc", "python")},
            "error_ratio": max(r["error_ratio"] for r in runs),
            "metrics": metrics,
            "wall_metrics": wall,
        }
    return out


def main() -> int:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RUNS.glob("*-trace0-*.json"))]
    if not records:
        print(f"no run records under {RUNS}", file=sys.stderr)
        return 1
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
