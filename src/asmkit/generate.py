"""Seeded generators of the suites' algorithms and witnesses.

Everything here is deterministic in ``GeneratorConfig.seed``: each stream
draws from its own ``random.Random`` seeded by the config's seed and a tag
naming the stream and the draw, so a config names one suite, and the golden
``suites`` group of ``scripts/golden.py`` pins the suites' bytes.

Nothing here verifies anything, and nothing imports a checker: the module
reads only ``kernel``, ``symmetry`` and ``transition``.
Explicit successors are drawn until they are natural, as decided by
``transition.first_unnatural_successor``, the decision the abstract-state
check makes on explicit algorithms; so that check passes on generated
explicit instances by construction, and its tests compare it with a
reference that steps every copy instead.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .kernel import (
    FALSE_TERM,
    LOGICAL_IDS,
    TRUE_TERM,
    UNDEF_TERM,
    AND_SYMBOL,
    EQ_SYMBOL,
    NOT_SYMBOL,
    OR_SYMBOL,
    State,
    Symbol,
    Term,
    Vocabulary,
    sorted_terms,
    subterm_closure,
)
from .symmetry import first_isomorphic
from .transition import Algorithm, Assign, Cond, Par, Rule, first_unnatural_successor, rule_terms


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds for the seeded algorithm and witness generators."""

    max_canonical_states: int = 3
    max_carrier_size: int = 4
    max_nonlogical_symbols: int = 3
    max_arity: int = 2
    max_term_depth: int = 2
    seed: int = 0
    instances: int = 100

    def __post_init__(self) -> None:
        for name in (
            "max_canonical_states",
            "max_carrier_size",
            "max_nonlogical_symbols",
            "max_term_depth",
            "instances",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_arity < 0:
            raise ValueError("max_arity must be non-negative")

    @property
    def universe_size(self) -> int:
        return 2 * self.max_carrier_size + 3


@dataclass
class SuiteInstance:
    index: int
    description: str
    algorithm: Algorithm
    witnesses: tuple[frozenset[Term], ...]


def flip_algorithm(extra_symbols: tuple[Symbol, ...] = ()) -> Algorithm:
    """Two-element dynamics that always moves a nullary constant to the other
    nonlogical element; its transformation is not expressible by ground terms."""
    vocabulary = Vocabulary((Symbol("f", 0),) + extra_symbols)
    carrier = {0, 1, 2, 3, 4}
    low = State(vocabulary, carrier, {"f": {(): 3}})
    high = State(vocabulary, carrier, {"f": {(): 4}})
    return Algorithm(vocabulary, (low, high), (True, True), successors=(high, low))


_SYMBOL_POOL = ("f", "g", "h", "k", "m")  # symbols past these are named f5, f6, ...


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _random_vocabulary(rng: random.Random, cfg: GeneratorConfig) -> Vocabulary:
    count = rng.randint(1, cfg.max_nonlogical_symbols)
    arity_pool = list(range(cfg.max_arity + 1)) + [0]
    symbols = [
        Symbol(_SYMBOL_POOL[i] if i < len(_SYMBOL_POOL) else f"f{i}", rng.choice(arity_pool))
        for i in range(count)
    ]
    return Vocabulary(symbols)


def _carrier_size(rng: random.Random, cfg: GeneratorConfig) -> int:
    # Weighted towards small carriers; every size up to the bound can be drawn.
    pool = [c for c in (1, 1, 2, 2, 2, 2, 3, 3, 3, 4) if c <= cfg.max_carrier_size]
    pool.extend(range(5, cfg.max_carrier_size + 1))
    return rng.choice(pool)


def _random_state_over(
    rng: random.Random, vocabulary: Vocabulary, base: frozenset[int]
) -> State:
    elements = sorted(base)
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for sym in vocabulary.nonlogical:
        entries: dict[tuple[int, ...], int] = {}
        budget = rng.randint(0, 1 if sym.arity == 0 else 2)
        for _ in range(budget):
            args = tuple(rng.choice(elements) for _ in range(sym.arity))
            entries[args] = rng.choice(elements)
        if entries:
            tables[sym.name] = entries
    return State(vocabulary, base, tables)


def _random_state(rng: random.Random, vocabulary: Vocabulary, carrier: int) -> State:
    base = frozenset(range(3, 3 + carrier)) | frozenset(LOGICAL_IDS)
    return _random_state_over(rng, vocabulary, base)


def _random_term(rng: random.Random, vocabulary: Vocabulary, max_depth: int) -> Term:
    leaves = [Term(s) for s in vocabulary.nonlogical if s.arity == 0]
    leaves += [TRUE_TERM, FALSE_TERM, UNDEF_TERM]
    composites = [s for s in vocabulary.nonlogical if s.arity >= 1]
    composites += [EQ_SYMBOL, NOT_SYMBOL, AND_SYMBOL, OR_SYMBOL]

    def build(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        sym = rng.choice(composites)
        return Term(sym, tuple(build(depth - 1) for _ in range(sym.arity)))

    return build(max_depth)


def _random_rule(rng: random.Random, vocabulary: Vocabulary, cfg: GeneratorConfig) -> Rule:
    # Distinct target symbols per parallel member keep the rule clash-free on
    # every state; guards are equality-rooted so they are always Boolean.
    nonlogical = list(vocabulary.nonlogical)
    count = rng.randint(1, min(3, len(nonlogical)))
    targets = rng.sample(nonlogical, count)
    members: list[Rule] = []
    for sym in targets:
        def assignment() -> Assign:
            args = tuple(
                _random_term(rng, vocabulary, cfg.max_term_depth - 1)
                for _ in range(sym.arity)
            )
            value = _random_term(rng, vocabulary, cfg.max_term_depth)
            return Assign(sym, args, value)

        member: Rule = assignment()
        if rng.random() < 0.35:
            guard = Term(
                EQ_SYMBOL,
                (
                    _random_term(rng, vocabulary, cfg.max_term_depth - 1),
                    _random_term(rng, vocabulary, cfg.max_term_depth - 1),
                ),
            )
            member = Cond(guard, member, assignment())
        members.append(member)
    return members[0] if len(members) == 1 else Par(tuple(members))


def _initial_flags(rng: random.Random, count: int) -> tuple[bool, ...]:
    flags = [rng.random() < 0.8 for _ in range(count)]
    if not any(flags):
        flags[0] = True
    return tuple(flags)


def _random_algorithm(rng: random.Random, cfg: GeneratorConfig, kind: str) -> Algorithm:
    """A random algorithm of ``kind``: "rule" draws a rule, "identity" keeps
    every state, and "explicit" draws successors over each state's carrier
    until they are coherent, keeping every state after 30 draws."""
    vocabulary = _random_vocabulary(rng, cfg)
    count = rng.randint(1, cfg.max_canonical_states)
    states = [_random_state(rng, vocabulary, _carrier_size(rng, cfg)) for _ in range(count)]
    flags = _initial_flags(rng, count)
    if kind == "rule":
        return Algorithm(vocabulary, states, flags, program=_random_rule(rng, vocabulary, cfg))
    if kind == "explicit":
        first = first_isomorphic(states)
        for _ in range(30):
            successors = [
                s if rng.random() < 0.25 else _random_state_over(rng, vocabulary, s.base)
                for s in states
            ]
            if first_unnatural_successor(states, successors, first) is None:
                return Algorithm(vocabulary, states, flags, successors=tuple(successors))
    return Algorithm(vocabulary, states, flags, successors=tuple(states))


def ground_terms_up_to(
    vocabulary: Vocabulary, max_depth: int, cap: int = 64
) -> list[Term]:
    """Ground terms over the nonlogical symbols with logical-constant leaves.

    Connective-rooted terms are excluded to keep the set small; the result is
    the first ``cap`` terms of depth at most ``max_depth`` in (depth, text)
    order, which preserves subterm closure, sorted by text.

    Only the terms of that result are built.  Round d applies each symbol to
    held terms, at least one of them built by round d - 1; these are exactly
    the terms of depth d, as a term is one deeper than its deepest child.
    The rounds so add the terms in order of depth, and once ``cap`` or more
    are held no later round can enter the first ``cap``: the rounds stop
    there, and a round stops after the terms it can keep, which are its
    smallest texts since each round runs in text order.

    A round runs symbols in name order, and for each, ``itertools.product``
    over the held terms in text order.  That is text order because the text
    f(a1, ..., an) sorts as the tuple (f, a1, ..., an) of texts.  A text that
    is a proper prefix of another is a name extended by identifier
    characters: symbol names are identifiers, unique in the vocabulary, and
    arities are fixed, so no term's text is a nullary name followed by "(",
    and a composite text ends at its root's closing parenthesis.  Identifier
    characters sort after "(", ")" and ",", which follow a name or a child.
    The same facts make a text name exactly one term, so held terms are keyed
    by their text.
    """
    held = {str(t): t for t in (TRUE_TERM, FALSE_TERM, UNDEF_TERM)}
    held.update((s.name, Term(s)) for s in vocabulary.nonlogical if s.arity == 0)
    ordered = sorted(held.values(), key=str)
    newest = set(held)
    builders = [s for s in vocabulary.nonlogical if s.arity >= 1]
    for _ in range(max_depth):
        if len(held) >= cap:
            break
        snapshot = sorted(held)
        candidates = (
            (sym, combo)
            for sym in builders
            for combo in itertools.product(snapshot, repeat=sym.arity)
            if not newest.isdisjoint(combo)
        )
        fresh = [
            Term(sym, tuple([held[c] for c in combo]))
            for sym, combo in itertools.islice(candidates, cap - len(held))
        ]
        if not fresh:
            break
        newest = {str(t) for t in fresh}
        held.update((str(t), t) for t in fresh)
        ordered += fresh
    return sorted_terms(ordered[:cap])


LOGICAL_CONSTANT_TERMS = frozenset({TRUE_TERM, FALSE_TERM, UNDEF_TERM})


def _candidate_witnesses(
    algorithm: Algorithm, cfg: GeneratorConfig, rng: random.Random
) -> tuple[frozenset[Term], ...]:
    # Every candidate carries the logical constant terms: without them the
    # coincidence-based and accessibility-based checks can genuinely diverge
    # (an update writing a logical element is invisible to coincidence but
    # fails accessibility), so the per-witness agreement the suite asserts
    # only holds above this floor.
    full = ground_terms_up_to(algorithm.vocabulary, cfg.max_term_depth)
    candidates: list[frozenset[Term]] = [LOGICAL_CONSTANT_TERMS, frozenset(full)]
    if algorithm.rule_based:
        candidates.append(
            subterm_closure(rule_terms(algorithm.program)) | LOGICAL_CONSTANT_TERMS
        )
    for _ in range(2):
        k = rng.randint(1, max(1, len(full) // 3))
        sample = subterm_closure(rng.sample(full, k=min(k, len(full))))
        candidates.append(sample | LOGICAL_CONSTANT_TERMS)
    unique: list[frozenset[Term]] = []
    for c in candidates:
        if c not in unique:
            unique.append(c)
    return tuple(unique)


def generate_algorithm_suite(cfg: GeneratorConfig) -> list[SuiteInstance]:
    """Deterministic stream of rule-based and explicit algorithms with witnesses."""
    instances: list[SuiteInstance] = []
    kinds = ["rule", "rule", "rule", "explicit", "explicit", "identity", "flip"]
    for index in range(cfg.instances):
        rng = _rng(cfg.seed, f"suite:{index}")
        if index == 0 and cfg.max_carrier_size >= 2:
            description = "flip"
            algorithm = flip_algorithm()
        else:
            description = rng.choice(kinds)
            if description == "flip" and cfg.max_carrier_size < 2:
                description = "explicit"  # no room for the flip's two elements
            if description == "flip":
                extras = tuple(
                    Symbol(_SYMBOL_POOL[i + 1], 0)
                    for i in range(rng.randint(0, min(1, cfg.max_nonlogical_symbols - 1)))
                )
                algorithm = flip_algorithm(extras)
            else:
                algorithm = _random_algorithm(rng, cfg, description)
        witnesses = _candidate_witnesses(algorithm, cfg, rng)
        instances.append(SuiteInstance(index, description, algorithm, witnesses))
    return instances
