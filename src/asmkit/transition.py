"""Algorithms as canonical state families with a one-step transformation.

Two interchangeable transition backends are supported: a small rule language
(assignment, parallel block, conditional) whose semantics is isomorphism
natural by construction, and explicit per-state successor tables, which can
encode dynamics that no ground-term program expresses.  The state family is
the closure of the canonical states under renamings into a bounded universe;
the transformation on a renamed copy is the transported one.

An ``Algorithm`` compiles its rule once, into a ``CompiledRule``; that
compile is where the rule's symbols are checked against the vocabulary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    ClashError,
    GuardError,
    UnknownStateError,
    ValidationError,
    VocabularyMismatchError,
)
from .kernel import (
    FALSE,
    KIND_NONLOGICAL,
    TRUE,
    UNDEF,
    Renaming,
    State,
    Symbol,
    Term,
    TermProgram,
    Vocabulary,
    apply_renaming,
    rename_tables,
)
from .symmetry import first_isomorphism, isomorphism_maps


@dataclass(frozen=True)
class Update:
    """A location/value triple describing one changed table entry."""

    symbol: Symbol
    args: tuple[int, ...]
    value: int

    def __post_init__(self) -> None:
        if self.symbol.kind != KIND_NONLOGICAL:
            raise ValidationError(f"update targets logical symbol {self.symbol.name}")
        if len(self.args) != self.symbol.arity:
            raise ValidationError(
                f"update for {self.symbol} carries {len(self.args)} arguments"
            )

    def encoded(self) -> tuple[str, tuple[int, ...], int]:
        return (self.symbol.name, self.args, self.value)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"({self.symbol.name}, ({inner}), {self.value})"


# An update as ``Update.encoded`` gives it: (symbol name, args, value), the form
# the checkers compute on.  Symbol names are unique in a vocabulary, so over one
# vocabulary encoded updates are equal exactly when the updates are.
Encoded = tuple[str, tuple[int, ...], int]


def within(update: Encoded, values: Container[int]) -> bool:
    """Accessibility over witness values: the update's value and arguments all lie in ``values``."""
    return update[2] in values and all(a in values for a in update[1])


def decoded(vocabulary: Vocabulary, update: Encoded) -> Update:
    """The ``Update`` an encoded update over ``vocabulary`` stands for."""
    return Update(vocabulary.symbol(update[0]), update[1], update[2])


@dataclass(frozen=True)
class Assign:
    """``f(t1, ..., tj) := t0`` over ground terms; the target is nonlogical."""

    symbol: Symbol
    args: tuple[Term, ...]
    value: Term

    def __post_init__(self) -> None:
        if self.symbol.kind != KIND_NONLOGICAL:
            raise ValidationError(f"assignment to logical symbol {self.symbol.name}")
        if len(self.args) != self.symbol.arity:
            raise ValidationError(f"assignment to {self.symbol} with {len(self.args)} arguments")


@dataclass(frozen=True)
class Par:
    """Parallel composition; clashing member updates are an error."""

    rules: tuple["Rule", ...]


@dataclass(frozen=True)
class Cond:
    """Guarded choice; the guard must evaluate to a Boolean element."""

    guard: Term
    then_rule: "Rule"
    else_rule: "Rule"


Rule = Union[Assign, Par, Cond]


def _walk_terms(rule: Rule) -> Iterator[Term]:
    """The terms the rule evaluates, composed left-hand sides included, in the
    order the rule tree is walked."""
    if isinstance(rule, Assign):
        yield Term(rule.symbol, rule.args)
        yield from rule.args
        yield rule.value
    elif isinstance(rule, Par):
        for sub in rule.rules:
            yield from _walk_terms(sub)
    else:
        yield rule.guard
        yield from _walk_terms(rule.then_rule)
        yield from _walk_terms(rule.else_rule)


def rule_terms(rule: Rule) -> frozenset[Term]:
    """Every ground term the rule evaluates, including composed left-hand sides."""
    return frozenset(_walk_terms(rule))


# Instruction kinds of a compiled rule.
_ASSIGN, _COND, _JUMP = range(3)


class CompiledRule:
    """A rule compiled over one vocabulary: ``program``, a ``TermProgram`` of
    the terms it evaluates (``rule_terms``), and ``code``, its Par/Cond/Assign
    tree as flat instructions over the program's slots, in the order the tree
    is walked.  Compiling checks every symbol of the rule, assignment targets
    included, against the vocabulary once; an unknown one raises
    ``VocabularyMismatchError``.

    An assignment is (_ASSIGN, name, argument slots, value slot, slot of the
    composed left-hand side, whose value is the location's current one).  A
    conditional is (_COND, guard slot, index of the else branch, guard term),
    followed by the then branch, a (_JUMP, index past the else branch) and
    the else branch.
    """

    __slots__ = ("vocabulary", "rule", "program", "code")

    def __init__(self, vocabulary: Vocabulary, rule: Rule) -> None:
        program = TermProgram(vocabulary, _walk_terms(rule), "rule uses unknown symbol {}")
        slots = iter(program.outputs)  # walked in the order _walk_terms yields
        code: list[tuple] = []

        def emit(r: Rule) -> None:
            if isinstance(r, Assign):
                lhs = next(slots)
                args = tuple([next(slots) for _ in r.args])
                code.append((_ASSIGN, r.symbol.name, args, next(slots), lhs))
            elif isinstance(r, Par):
                for sub in r.rules:
                    emit(sub)
            else:
                guard, at = next(slots), len(code)
                code.append(())
                emit(r.then_rule)
                jump = len(code)
                code.append(())
                emit(r.else_rule)
                code[at] = (_COND, guard, jump + 1, r.guard, None)
                code[jump] = (_JUMP, len(code), None, None, None)

        emit(rule)
        self.vocabulary = vocabulary
        self.rule = rule
        self.program = program
        self.code = tuple(code)


def apply_rule(state: State, rule: Rule | CompiledRule) -> frozenset[Update]:
    """The set of nontrivial updates the rule produces in ``state`` (see
    ``rule_updates``).  A ``Rule``, or a rule compiled for another
    vocabulary, is compiled for the state's first, so every symbol of the
    rule is checked, on every branch."""
    vocabulary = state.vocabulary
    if not isinstance(rule, CompiledRule):
        rule = CompiledRule(vocabulary, rule)
    elif rule.vocabulary is not vocabulary and rule.vocabulary != vocabulary:
        rule = CompiledRule(vocabulary, rule.rule)
    return frozenset(
        decoded(vocabulary, (name, args, value))
        for (name, args), value in rule_updates(rule, state.interpretations).items()
    )


def rule_updates(
    rule: CompiledRule, tables: Mapping[str, Mapping[tuple[int, ...], int]]
) -> dict[tuple[str, tuple[int, ...]], int]:
    """The nontrivial updates a compiled rule produces over the normalized
    tables of a state over its vocabulary, as {(name, args): value}.

    Assignments whose right-hand side already holds contribute nothing; two
    surviving updates on one location with different values clash
    (``ClashError``), and a guard reached with a non-Boolean value raises
    ``GuardError``.  Every term of the rule is evaluated first, in one run
    of its program, untaken branches included: on a vocabulary the rule was
    checked against, evaluation is total, so this changes no result, and
    the instructions then run in the order the rule tree is walked.
    """
    values = rule.program.run(tables)
    collected: dict[tuple[str, tuple[int, ...]], int] = {}
    code = rule.code
    pc, end = 0, len(code)
    while pc < end:
        kind, a, b, c, d = code[pc]
        pc += 1
        if kind == _ASSIGN:  # a: name, b: argument slots, c: value slot, d: left-hand side slot
            value = values[c]
            if values[d] == value:
                continue
            loc = (a, tuple([values[i] for i in b]))
            existing = collected.get(loc)
            if existing is not None and existing != value:
                raise ClashError(
                    f"clashing parallel updates at {a}{loc[1]}: {existing} vs {value}"
                )
            collected[loc] = value
        elif kind == _COND:  # a: guard slot, b: else branch, c: guard term
            guard = values[a]
            if guard == FALSE:
                pc = b
            elif guard != TRUE:
                raise GuardError(f"guard {c} evaluated to non-Boolean element {guard}")
        else:
            pc = a
    return collected


class Algorithm:
    """Canonical states with initial flags and a one-step transformation.

    Degenerate inputs (no states, no initial state, base-set-violating
    successors) are representable on purpose; the postulate checkers are the
    place where they are rejected.

    An Algorithm is immutable after construction: no attribute but ``cache``
    is ever assigned again, and states are immutable.  ``cache`` is None
    until the checkers store there, on first use, what they derive from the
    canonical states alone (``postulates.CanonicalFacts``); that cache
    relies on the immutability, and is freed with the Algorithm.
    """

    __slots__ = ("vocabulary", "canonical_states", "initial", "program", "compiled", "successors", "cache")

    def __init__(
        self,
        vocabulary: Vocabulary,
        canonical_states: Iterable[State],
        initial: Iterable[bool],
        *,
        program: Rule | None = None,
        successors: Iterable[State] | None = None,
    ) -> None:
        states = tuple(canonical_states)
        flags = tuple(bool(b) for b in initial)
        if len(flags) != len(states):
            raise ValidationError("initial flags do not match the canonical states")
        for s in states:
            if s.vocabulary != vocabulary:
                raise VocabularyMismatchError("canonical state over a different vocabulary")
        if (program is None) == (successors is None):
            raise ValidationError("exactly one transition backend must be given")
        succ: tuple[State, ...] | None = None
        if successors is not None:
            succ = tuple(successors)
            if len(succ) != len(states):
                raise ValidationError("successor list does not match the canonical states")
            for s in succ:
                if s.vocabulary != vocabulary:
                    raise VocabularyMismatchError("successor over a different vocabulary")
        self.vocabulary = vocabulary
        self.canonical_states = states
        self.initial = flags
        self.program = program
        self.compiled = None if program is None else CompiledRule(vocabulary, program)
        self.successors = succ
        self.cache = None

    @property
    def rule_based(self) -> bool:
        return self.program is not None

    def max_nonlogical_carrier(self) -> int:
        return max((len(s.nonlogical_elements()) for s in self.canonical_states), default=0)

    def __repr__(self) -> str:
        backend = "rule" if self.rule_based else "explicit"
        return f"Algorithm({len(self.canonical_states)} canonical states, {backend})"


def locate(algorithm: Algorithm, state: State) -> tuple[int, Renaming]:
    """First canonical state and renaming producing ``state``, in the search order."""
    found = first_isomorphism(algorithm.canonical_states, state)
    if found is None:
        raise UnknownStateError("state is not in the algorithm's family")
    return found[0], Renaming(found[1])


def first_unnatural_successor(
    states: Sequence[State], successors: Sequence[State], first: Sequence[int]
) -> int | None:
    """The first state si with an isomorphism from sj, j = ``first[i]`` the
    first state isomorphic to it, that does not carry succj's tables onto
    succi's, each successor being over its state's carrier; None when there
    is none.  Then every isomorphism t: sk -> si carries succk's tables onto
    succi's: for any u: sj -> sk, t u is an isomorphism sj -> si, so
    t(succk) = t(u(succj)) = succi.  The abstract-state check and the suite
    generator both decide explicit naturality with it."""
    for i, j in enumerate(first):
        for tau in isomorphism_maps(states[j], states[i]):
            if rename_tables(successors[j].interpretations, tau) != successors[i].interpretations:
                return i
    return None


def canonical_step(algorithm: Algorithm, index: int) -> State:
    """Successor of the canonical state at ``index``."""
    source = algorithm.canonical_states[index]
    if algorithm.rule_based:
        return apply_updates(source, apply_rule(source, algorithm.compiled))
    return algorithm.successors[index]


def encoded_rule_deltas(algorithm: Algorithm) -> tuple[frozenset[Encoded], ...]:
    """The update set of every canonical state of a rule-based algorithm,
    encoded straight from ``rule_updates``; all are computed afresh, first."""
    rule = algorithm.compiled
    found = [rule_updates(rule, state.interpretations) for state in algorithm.canonical_states]
    return tuple([frozenset([(name, args, v) for (name, args), v in updates.items()]) for updates in found])


def step(algorithm: Algorithm, state: State) -> State:
    """One step of the algorithm; the carrier never changes."""
    index, renaming = locate(algorithm, state)
    if algorithm.rule_based:
        return apply_updates(state, apply_rule(state, algorithm.compiled))
    return apply_renaming(algorithm.successors[index], renaming)


def update_set(algorithm: Algorithm, state: State) -> frozenset[Update]:
    """Nontrivial updates of ``state``: the diff of its tables against the successor's."""
    return table_diff(state, step(algorithm, state))


def apply_updates(state: State, updates: Iterable[Update]) -> State:
    """The state obtained by writing every update into the tables."""
    locations: dict[tuple[str, tuple[int, ...]], int] = {}
    for u in updates:
        if u.symbol not in state.vocabulary:
            raise VocabularyMismatchError(f"update symbol {u.symbol} not in vocabulary")
        if any(a not in state.base for a in u.args) or u.value not in state.base:
            raise ValidationError(f"update {u} leaves the carrier")
        loc = (u.symbol.name, u.args)
        if locations.get(loc, u.value) != u.value:
            raise ClashError(f"inconsistent update set at {loc}")
        locations[loc] = u.value
    tables = {name: dict(table) for name, table in state.interpretations.items()}
    for (name, args), value in locations.items():
        table = tables.setdefault(name, {})
        if value == UNDEF:
            table.pop(args, None)
        else:
            table[args] = value
    return State(state.vocabulary, state.base, tables)


def table_diff(before: State, after: State) -> frozenset[Update]:
    """Locations whose value differs between two states over one carrier."""
    if before.vocabulary != after.vocabulary:
        raise VocabularyMismatchError("diff of states over different vocabularies")
    if before.base != after.base:
        raise ValidationError("diff of states with different base sets")
    updates: list[Update] = []
    names = set(before.interpretations) | set(after.interpretations)
    for name in names:
        sym = before.vocabulary.symbol(name)
        old = before.interpretations.get(name, {})
        new = after.interpretations.get(name, {})
        for args in set(old) | set(new):
            old_value = old.get(args, UNDEF)
            new_value = new.get(args, UNDEF)
            if old_value != new_value:
                updates.append(Update(sym, args, new_value))
    return frozenset(updates)


def lift_update(mapping: Renaming | Mapping[int, int], update: Update) -> Update:
    """Element-wise application of a renaming, or of an element map such as
    a similarity function's dict, to one update; an element outside it
    raises ``DomainError`` from a ``Renaming`` and ``KeyError`` from a
    dict."""
    return Update(
        update.symbol,
        tuple(mapping[a] for a in update.args),
        mapping[update.value],
    )


def lift_update_set(renaming: Renaming, updates: Iterable[Update]) -> frozenset[Update]:
    """Element-wise application of a renaming to an update set."""
    return frozenset(lift_update(renaming, u) for u in updates)


def lift_encoded(mapping: Mapping[int, int], update: Encoded) -> Encoded:
    """``lift_update`` on an encoded update, through an element map such as
    a similarity function's dict; an element outside it raises
    ``KeyError``."""
    name, args, value = update
    return name, tuple([mapping[a] for a in args]), mapping[value]


def lift_encoded_set(mapping: Mapping[int, int], updates: Iterable[Encoded]) -> frozenset[Encoded]:
    """``lift_update_set`` on encoded updates, through a renaming's element map."""
    return frozenset([(name, tuple([mapping[a] for a in args]), mapping[v]) for name, args, v in updates])
