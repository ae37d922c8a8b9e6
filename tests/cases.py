"""Seeded test cases that only the tests draw, and the witness-monotonicity
property, which runs both bounded-exploration checkers on them.

The draws use ``asmkit.generate``'s own streams and helpers: each case takes
a ``random.Random`` seeded by the config's seed and a tag naming the case
("pair:<attempt>", "mono:<index>"), so a config names one sequence of
cases, as it names one suite.
"""
import random

from asmkit.errors import PreconditionError
from asmkit.generate import (
    LOGICAL_CONSTANT_TERMS,
    _carrier_size,
    _random_algorithm,
    _random_state,
    _random_term,
    _random_vocabulary,
    _rng,
)
from asmkit.kernel import LOGICAL_IDS, Renaming, State, apply_renaming, is_subterm_closed, subterm_closure
from asmkit.postulates import check_new_be, check_old_be
from asmkit.report import CheckReport
from asmkit.similarity import t_similar
from asmkit.transition import rule_terms


def _random_renaming(rng: random.Random, base: frozenset[int], universe_size: int) -> Renaming:
    sources = sorted(e for e in base if e not in LOGICAL_IDS)
    targets = rng.sample(range(3, universe_size), k=len(sources))
    return Renaming(dict(zip(sources, targets)))


def generate_similar_pairs(cfg, count):
    """Seeded stream of (state, state, closed witness) triples that are similar.

    Odd draws are renamed copies (similar over any witness); even draws are
    rejection-sampled independent states, falling back to a copy when no
    similar partner shows up.
    """
    attempt = 0
    produced = 0
    while produced < count:
        rng = _rng(cfg.seed, f"pair:{attempt}")
        attempt += 1
        vocabulary = _random_vocabulary(rng, cfg)
        carrier = _carrier_size(rng, cfg)
        x = _random_state(rng, vocabulary, carrier)
        terms = subterm_closure(
            _random_term(rng, vocabulary, cfg.max_term_depth)
            for _ in range(rng.randint(1, 4))
        )
        y: State | None = None
        if attempt % 2 == 0:
            for _ in range(40):
                candidate = _random_state(rng, vocabulary, carrier)
                if t_similar(x, candidate, terms):
                    y = candidate
                    break
        if y is None:
            y = apply_renaming(x, _random_renaming(rng, x.base, cfg.universe_size))
        produced += 1
        yield x, y, terms


def generate_monotonicity_cases(cfg, count):
    """Rule-based algorithms with the rule-term closure as a passing witness,
    paired with a strictly larger closed witness."""
    for index in range(count):
        rng = _rng(cfg.seed, f"mono:{index}")
        algorithm = _random_algorithm(rng, cfg, "rule")
        small = subterm_closure(rule_terms(algorithm.program)) | LOGICAL_CONSTANT_TERMS
        extras = [
            _random_term(rng, algorithm.vocabulary, cfg.max_term_depth)
            for _ in range(rng.randint(1, 3))
        ]
        large = small | subterm_closure(extras)
        yield algorithm, small, large


def witness_monotonicity(algorithm, small, large, universe_size) -> CheckReport:
    """A passing witness must keep passing after growing the term set.

    A failure here is an implementation-bug signal, not a property of the
    algorithm.
    """
    label = "witness-monotonicity"
    small = frozenset(small)
    large = frozenset(large)
    if not small <= large:
        raise PreconditionError("the first witness must be a subset of the second")
    if not (is_subterm_closed(small) and is_subterm_closed(large)):
        raise PreconditionError("both witnesses must be subterm-closed")
    notes = []
    for name, checker in (("old-be", check_old_be), ("new-be", check_new_be)):
        small_report = checker(algorithm, small, universe_size)
        if not small_report.passed:
            notes.append(f"{name}: vacuous (small witness fails)")
            continue
        large_report = checker(algorithm, large, universe_size)
        if not large_report.passed:
            return CheckReport(
                False,
                label,
                f"{name} passes on the small witness but fails on the superset",
                witness={
                    "postulate": name,
                    "small": small,
                    "large": large,
                    "large_report": large_report,
                },
            )
        notes.append(f"{name}: pass -> pass")
    return CheckReport(True, label, notes=tuple(notes))
