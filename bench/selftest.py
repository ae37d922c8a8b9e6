"""Self-test of the benchmark on a tiny configuration.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that an injected wrong verdict raises the error ratio above 0, and that the
benchmark refuses to run without the package sources.  Exits 0 on success.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from workloads import Check

TINY = {"suite-default": 2, "universe-sweep": 1, "naturality": 2}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def _lie(module, name: str, verdict=lambda passed: not passed) -> None:
    """Make ``module.name`` return ``verdict(true verdict)`` instead."""
    original = getattr(module, name)

    def lying(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, passed=verdict(report.passed))

    setattr(module, name, lying)


def metrics_are_emitted(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run.run(workload, seed=0, seconds=0.5, trace=bool(trace),
                             size=TINY[workload], write_record=False)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == wanted[trace], f"{workload} trace={trace} emits {sorted(got)}")
            _expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} failed")


def wrong_verdicts_count() -> None:
    def new_be_lies(asmkit):
        _lie(asmkit.harness, "check_new_be")

    def both_fail(asmkit):
        # The verdicts still agree and verify_equivalence passes; only the
        # pairwise reference sees that the second of three checks (i66/w3,
        # a small closure) should pass both.
        _lie(asmkit.harness, "check_old_be", lambda passed: False)
        _lie(asmkit.harness, "check_new_be", lambda passed: False)

    def abstract_state_lies(asmkit):
        _lie(asmkit.postulates, "check_abstract_state")

    for workload, size, inject in (("suite-default", 2, new_be_lies),
                                   ("suite-default", 3, both_fail),
                                   ("naturality", 2, abstract_state_lies)):
        result = run.run(workload, seed=0, seconds=1.0, trace=False, size=size,
                         inject=inject, write_record=False)
        _expect(result["failed"] > 0 and not result["correct"],
                f"{workload}: an injected wrong verdict went unnoticed")

    # A verdict above headroom that differs from the one at headroom is wrong.
    base = Check("u11", lambda: True, known=lambda out: True, group=("g", 0))
    above = Check("u12", lambda: False, known=lambda out: True, group=("g", 1))
    _expect(run.judge([base, above], [[True, False]]) == ["u12"],
            "a universe-dependent verdict went unnoticed")


def refuses_without_sources(spec: dict) -> None:
    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("runs", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        argv = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                  "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        _expect(done.returncode != 0, "ran without the package sources")
        _expect('"metrics"' not in done.stdout, "printed a result without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_are_emitted(spec)
    wrong_verdicts_count()
    refuses_without_sources(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
