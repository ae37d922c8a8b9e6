import random
from pathlib import Path
from typing import Callable

import pytest

from asmkit import (
    FALSE_TERM,
    AsmError,
    GeneratorConfig,
    State,
    Symbol,
    TRUE_TERM,
    Term,
    UNDEF_TERM,
    Vocabulary,
    flip_algorithm,
    generate_algorithm_suite,
    remark_states,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_EXAMPLE_SPEC = REPO_ROOT / "specs" / "paper-example.spec"
RING6_SPEC = REPO_ROOT / "specs" / "ring6.spec"
DIRECT_ROUTE_SPEC = REPO_ROOT / "specs" / "direct-route.spec"


@pytest.fixture(scope="session")
def default_config() -> GeneratorConfig:
    return GeneratorConfig()


@pytest.fixture(scope="session")
def default_suite(default_config):
    return generate_algorithm_suite(default_config)


@pytest.fixture
def flip():
    return flip_algorithm()


@pytest.fixture
def remark():
    return remark_states()


@pytest.fixture
def simple_vocab() -> Vocabulary:
    return Vocabulary((Symbol("a", 0), Symbol("b", 0), Symbol("f", 1), Symbol("g", 2)))


def mk(symbol: Symbol, *children: Term) -> Term:
    return Term(symbol, tuple(children))


def random_state(rng: random.Random, vocabulary: Vocabulary, carrier: int) -> State:
    base = sorted(set(range(3, 3 + carrier)) | {0, 1, 2})
    tables = {}
    for sym in vocabulary.nonlogical:
        entries = {}
        for _ in range(rng.randint(0, 2)):
            args = tuple(rng.choice(base) for _ in range(sym.arity))
            entries[args] = rng.choice(base)
        if entries:
            tables[sym.name] = entries
    return State(vocabulary, base, tables)


def random_term(rng: random.Random, vocabulary: Vocabulary, depth: int) -> Term:
    leaves = [Term(s) for s in vocabulary.nonlogical if s.arity == 0]
    leaves += [TRUE_TERM, FALSE_TERM, UNDEF_TERM]
    builders = [s for s in vocabulary.nonlogical if s.arity >= 1]
    if depth <= 0 or not builders or rng.random() < 0.35:
        return rng.choice(leaves)
    sym = rng.choice(builders)
    return Term(sym, tuple(random_term(rng, vocabulary, depth - 1) for _ in range(sym.arity)))


def outcome(run: Callable[[], object]) -> object:
    """What ``run`` returns, or the type and text of the ``AsmError`` it raises."""
    try:
        return run()
    except AsmError as exc:
        return type(exc), str(exc)
