"""Acceptance suite: one test per criterion, each printing a verdict line.

Runtime bounds are part of the criteria and asserted alongside the checks.
Criteria 4, 5 and 7 share the session-scoped default generated suite.
"""
import time
from collections import Counter
from contextlib import contextmanager

from asmkit import (
    apply_rule,
    check_abstract_state,
    check_lemma_identity,
    check_new_be,
    check_old_be,
    check_sequential_time,
    closure,
    run_scenario_example,
    run_scenario_remark,
    update_set,
    verify_equivalence,
)
from cases import generate_monotonicity_cases, generate_similar_pairs, witness_monotonicity


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if outcome["ok"] and elapsed < budget_seconds else "FAIL"
        print(f"[acceptance {number}] {name}: {verdict} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_remark_reproduction():
    with criterion(1, "remark reproduction", 1.0):
        report = run_scenario_remark()
        assert report.passed
        by_label = {c.label: c for c in report.checks}
        assert by_label["remark.t-similar"].passed
        assert by_label["remark.similarity-function"].detail == "sigma = {1->1, 2->3}"
        assert (
            by_label["remark.partial-isomorphism-fails"].detail
            == "sigma(f_X(1)) = 3 != 2 = f_Y(sigma(1))"
        )


def test_criterion_2_example_reproduction():
    with criterion(2, "example reproduction", 5.0):
        report = run_scenario_example(7)
        assert report.passed
        labels = [c.label for c in report.checks]
        for prefix in ("requirement-i-fails", "requirement-ii-holds", "old-be-fails"):
            assert sum(1 for l in labels if l.startswith(f"example.{prefix}")) == 16
        by_label = {c.label: c for c in report.checks}
        detail = by_label["example.fresh-pair-deltas"].detail
        assert "delta X = {(f, (), b)}" in detail
        assert "{(f, (), c)} = delta Y" in detail


def test_criterion_3_lemma_property(default_config):
    with criterion(3, "homomorphism identity on 1000 similar pairs", 60.0):
        failures = 0
        count = 0
        for x, y, terms in generate_similar_pairs(default_config, 1000):
            if not check_lemma_identity(x, y, terms).passed:
                failures += 1
            count += 1
        assert count == 1000
        assert failures == 0


def test_criterion_4_equivalence_on_default_suite(default_config, default_suite):
    with criterion(4, "verdict agreement across the default suite", 300.0):
        checked = 0
        replay = Counter()
        for instance in default_suite:
            for terms in instance.witnesses:
                report = verify_equivalence(
                    instance.algorithm, terms, default_config.universe_size
                )
                assert report.passed, (instance.index, sorted(map(str, terms)), report)
                checked += 1
                replay.update(
                    {name: value for name, value in report.stats.items() if isinstance(value, int)}
                )
        assert len(default_suite) == 100
        assert checked >= 300
        # every default witness holds a logical constant term, so each pair
        # shares a logical value and every replayed chain takes case 2
        assert replay == {
            "replayed-chains": 5402,
            "case1": 0,
            "case2": 5402,
            "direct": 0,
            "coincident-pairs": 6399,
        }


def test_criterion_5_naturality_across_suite(default_config, default_suite):
    with criterion(5, "step commutes with every renaming", 300.0):
        for instance in default_suite:
            assert check_sequential_time(instance.algorithm).passed, instance.index
            report = check_abstract_state(instance.algorithm, default_config.universe_size)
            assert report.passed, (instance.index, report)


def test_criterion_6_witness_monotonicity(default_config):
    with criterion(6, "passing witnesses stay passing under growth", 300.0):
        count = 0
        for algorithm, small, large in generate_monotonicity_cases(default_config, 50):
            universe = default_config.universe_size
            assert check_old_be(algorithm, small, universe).passed
            assert check_new_be(algorithm, small, universe).passed
            assert witness_monotonicity(algorithm, small, large, universe).passed
            count += 1
        assert count == 50


def test_criterion_7_delta_cross_validation(default_config, default_suite):
    with criterion(7, "rule-derived deltas equal diff-derived deltas", 300.0):
        instances = 0
        states = 0
        for instance in default_suite:
            algorithm = instance.algorithm
            if not algorithm.rule_based:
                continue
            instances += 1
            for copy in closure(algorithm, default_config.universe_size):
                states += 1
                assert update_set(algorithm, copy.state) == apply_rule(
                    copy.state, algorithm.program
                ), (instance.index, copy.state)
        assert instances > 0
        assert states > 0
