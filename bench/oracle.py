"""Pairwise reference verdicts for the two bounded-exploration postulates.

The reference enumerates the universe closure itself and tests every ordered
pair of states against the postulate's definition, as the brute-force
oracles of the test suite do.  It imports nothing from ``asmkit.postulates``,
so it shares none of the checkers' grouping.  Its cost grows with the square
of the closure, so ``affordable`` decides where it runs at all.
"""
from __future__ import annotations

import itertools
import math

from asmkit.kernel import Renaming, apply_renaming, evaluate_term, sorted_terms
from asmkit.transition import update_set

# Largest closure whose ordered pairs the reference walks: 300 states are
# 90,000 ordered pairs.
MAX_STATES = 300


def closure_bound(algorithm, universe_size: int) -> int:
    """Renamings of all canonical states into the universe, before dedup."""
    return sum(
        math.perm(universe_size - 3, len(s.nonlogical_elements()))
        for s in algorithm.canonical_states
    )


def affordable(algorithm, universe_size: int) -> bool:
    return closure_bound(algorithm, universe_size) <= MAX_STATES


def _states(algorithm, universe_size: int) -> list:
    seen = {}
    for canonical in algorithm.canonical_states:
        sources = canonical.nonlogical_elements()
        for targets in itertools.permutations(range(3, universe_size), len(sources)):
            state = apply_renaming(canonical, Renaming(dict(zip(sources, targets))))
            seen.setdefault(state, None)
    return list(seen)


def _accessible(delta, values) -> frozenset:
    return frozenset(u for u in delta if u.value in values and all(a in values for a in u.args))


def _similarity(vx: tuple, vy: tuple) -> dict | None:
    """The value map x -> y over the witness, if it is a bijection."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for a, b in zip(vx, vy):
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return None
    return forward


def verdicts(algorithm, terms, universe_size: int) -> tuple[bool, bool]:
    """(old-BE passes, new-BE passes) by walking every ordered pair of states."""
    order = sorted_terms(terms)
    states = _states(algorithm, universe_size)
    vectors = [tuple(evaluate_term(s, t) for t in order) for s in states]
    deltas = [update_set(algorithm, s) for s in states]

    old_ok = all(
        deltas[i] == deltas[j]
        for i, j in itertools.product(range(len(states)), repeat=2)
        if vectors[i] == vectors[j]
    )

    accessible = [_accessible(d, set(v)) for d, v in zip(deltas, vectors)]
    new_ok = all(acc == d for acc, d in zip(accessible, deltas))
    if new_ok:
        for i, j in itertools.product(range(len(states)), repeat=2):
            sigma = _similarity(vectors[i], vectors[j])
            if sigma is None:
                continue
            moved = frozenset(
                (u.symbol, tuple(sigma[a] for a in u.args), sigma[u.value])
                for u in accessible[i]
            )
            if moved != frozenset((u.symbol, u.args, u.value) for u in accessible[j]):
                new_ok = False
                break
    return old_ok, new_ok

