"""Algorithms as canonical state families with a one-step transformation.

Two interchangeable transition backends are supported: a small rule language
(assignment, parallel block, conditional) whose semantics is isomorphism
natural by construction, and explicit per-state successor tables, which can
encode dynamics that no ground-term program expresses.  The state family is
the closure of the canonical states under renamings into a bounded universe;
the transformation on a renamed copy is the transported one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Union

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
    InjectiveMap,
    Renaming,
    State,
    Symbol,
    Term,
    Vocabulary,
    apply_renaming,
    isomorphisms_between,
    table_evaluator,
)


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

    def within(self, values: Container[int]) -> bool:
        """Whether all components lie in ``values``: accessibility, over witness values."""
        return self.value in values and all(a in values for a in self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"({self.symbol.name}, ({inner}), {self.value})"


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


def rule_terms(rule: Rule) -> frozenset[Term]:
    """Every ground term the rule evaluates, including composed left-hand sides."""
    acc: set[Term] = set()

    def walk(r: Rule) -> None:
        if isinstance(r, Assign):
            acc.add(Term(r.symbol, r.args))
            acc.update(r.args)
            acc.add(r.value)
        elif isinstance(r, Par):
            for sub in r.rules:
                walk(sub)
        else:
            acc.add(r.guard)
            walk(r.then_rule)
            walk(r.else_rule)

    walk(rule)
    return frozenset(acc)


def rule_symbols(rule: Rule) -> frozenset[Symbol]:
    syms: set[Symbol] = set()
    for t in rule_terms(rule):
        for sub in t.subterms():
            syms.add(sub.root)
    return frozenset(syms)


def apply_rule(state: State, rule: Rule) -> frozenset[Update]:
    """The set of nontrivial updates the rule produces in ``state`` (see
    ``rule_updates``)."""
    symbol = state.vocabulary.symbol
    return frozenset(
        Update(symbol(name), args, value)
        for (name, args), value in rule_updates(state.vocabulary, state.interpretations, rule).items()
    )


def rule_updates(
    vocabulary: Vocabulary, tables: Mapping[str, Mapping[tuple[int, ...], int]], rule: Rule
) -> dict[tuple[str, tuple[int, ...]], int]:
    """The nontrivial updates the rule produces over a state's normalized
    tables, as {(name, args): value}.

    Assignments whose right-hand side already holds contribute nothing; two
    surviving updates on one location with different values clash.
    """
    collected: dict[tuple[str, tuple[int, ...]], int] = {}
    evaluate = table_evaluator(vocabulary, tables)

    def walk(r: Rule) -> None:
        if isinstance(r, Assign):
            args = tuple([evaluate(t) for t in r.args])
            value = evaluate(r.value)
            name = r.symbol.name
            table = tables.get(name)
            if (UNDEF if table is None else table.get(args, UNDEF)) == value:
                return
            loc = (name, args)
            existing = collected.get(loc)
            if existing is not None and existing != value:
                raise ClashError(
                    f"clashing parallel updates at {name}{args}: {existing} vs {value}"
                )
            collected[loc] = value
        elif isinstance(r, Par):
            for sub in r.rules:
                walk(sub)
        else:
            guard = evaluate(r.guard)
            if guard == TRUE:
                walk(r.then_rule)
            elif guard == FALSE:
                walk(r.else_rule)
            else:
                raise GuardError(f"guard {r.guard} evaluated to non-Boolean element {guard}")

    walk(rule)
    return collected


class Algorithm:
    """Canonical states with initial flags and a one-step transformation.

    Degenerate inputs (no states, no initial state, base-set-violating
    successors) are representable on purpose; the postulate checkers are the
    place where they are rejected.
    """

    __slots__ = ("vocabulary", "canonical_states", "initial", "program", "successors")

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
        else:
            for sym in rule_symbols(program):  # type: ignore[arg-type]
                if sym not in vocabulary:
                    raise VocabularyMismatchError(f"rule uses unknown symbol {sym}")
        self.vocabulary = vocabulary
        self.canonical_states = states
        self.initial = flags
        self.program = program
        self.successors = succ

    @property
    def rule_based(self) -> bool:
        return self.program is not None

    def max_nonlogical_carrier(self) -> int:
        return max((len(s.nonlogical_elements()) for s in self.canonical_states), default=0)

    def __repr__(self) -> str:
        backend = "rule" if self.rule_based else "explicit"
        return f"Algorithm({len(self.canonical_states)} canonical states, {backend})"


def locate(algorithm: Algorithm, state: State) -> tuple[int, Renaming]:
    """First canonical state and renaming producing ``state``, in fixed order."""
    for index, canonical in enumerate(algorithm.canonical_states):
        for renaming in isomorphisms_between(canonical, state):
            return index, renaming
    raise UnknownStateError("state is not in the algorithm's family")


def canonical_step(algorithm: Algorithm, index: int) -> State:
    """Successor of the canonical state at ``index``."""
    source = algorithm.canonical_states[index]
    if algorithm.rule_based:
        return apply_updates(source, apply_rule(source, algorithm.program))
    return algorithm.successors[index]


def canonical_delta(algorithm: Algorithm, index: int) -> frozenset[Update]:
    """Update set of the canonical state at ``index``."""
    source = algorithm.canonical_states[index]
    if algorithm.rule_based:
        return apply_rule(source, algorithm.program)
    return table_diff(source, algorithm.successors[index])


def step(algorithm: Algorithm, state: State) -> State:
    """One step of the algorithm; the carrier never changes."""
    index, renaming = locate(algorithm, state)
    if algorithm.rule_based:
        return apply_updates(state, apply_rule(state, algorithm.program))
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


def lift_update(mapping: InjectiveMap, update: Update) -> Update:
    """Element-wise application of a renaming or a similarity function to one
    update; an element outside its domain raises that map's error."""
    return Update(
        update.symbol,
        tuple(mapping[a] for a in update.args),
        mapping[update.value],
    )


def lift_update_set(renaming: Renaming, updates: Iterable[Update]) -> frozenset[Update]:
    """Element-wise application of a renaming to an update set."""
    return frozenset(lift_update(renaming, u) for u in updates)
