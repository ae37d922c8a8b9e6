import random
from pathlib import Path
from typing import Callable

import pytest

from asmkit import (
    FALSE,
    FALSE_TERM,
    TRUE,
    UNDEF,
    AsmError,
    GeneratorConfig,
    State,
    Symbol,
    TRUE_TERM,
    Term,
    UNDEF_TERM,
    Vocabulary,
    VocabularyMismatchError,
    flip_algorithm,
    generate_algorithm_suite,
    remark_states,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_EXAMPLE_SPEC = REPO_ROOT / "specs" / "paper-example.spec"
RING6_SPEC = REPO_ROOT / "specs" / "ring6.spec"


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


def _connective(name: str, args: tuple[int, ...]) -> int:
    """The logical symbols' fixed meaning, written apart from ``asmkit``'s."""
    constants = {"true": TRUE, "false": FALSE, "undef": UNDEF}
    if name in constants:
        return constants[name]
    if name == "eq":
        return TRUE if args[0] == args[1] else FALSE
    truth = {TRUE: True, FALSE: False}
    if any(a not in truth for a in args):
        return UNDEF
    operands = [truth[a] for a in args]
    result = {"not": lambda p: not p, "and": lambda p, q: p and q, "or": lambda p, q: p or q}[name](*operands)
    return TRUE if result else FALSE


def reference_evaluator(vocabulary: Vocabulary, tables) -> Callable[[Term], int]:
    """Recursive evaluation of ground terms over normalized tables, the
    reference the compiled ``TermProgram`` is checked against: a node's
    symbol is checked before its children are evaluated, and values are
    memoized by node identity, so the terms must outlive the evaluator."""
    values: dict[int, int] = {}

    def value(term: Term) -> int:
        v = values.get(id(term))
        if v is None:
            if term.root not in vocabulary:
                raise VocabularyMismatchError(
                    f"term symbol {term.root} is not in the state's vocabulary"
                )
            args = tuple(value(child) for child in term.children)
            if term.root.kind == "nonlogical":
                v = tables.get(term.root.name, {}).get(args, UNDEF)
            else:
                v = _connective(term.root.name, args)
            values[id(term)] = v
        return v

    return value


def outcome(run: Callable[[], object]) -> object:
    """What ``run`` returns, or the type and text of the ``AsmError`` it raises."""
    try:
        return run()
    except AsmError as exc:
        return type(exc), str(exc)
