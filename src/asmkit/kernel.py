"""Finite first-order structures: vocabularies, ground terms, states, renamings.

Element ids are small non-negative integers drawn from a bounded universe.
Ids 0, 1 and 2 are reserved in every state for the three logical elements
interpreting true, false and undef; every carrier contains them.

Nonlogical interpretations are sparse tables with default value undef, and
tables never store an undef-valued entry.  That normalization makes state
equality canonical: two states are equal exactly when they have the same
vocabulary, the same carrier and the same tables.

Ground terms are evaluated by one evaluator, ``TermProgram``: terms are
compiled once, their symbols checked against the vocabulary then, and the
program runs over a state's tables in one flat pass per state.

Code that decides computes on raw element maps, checked by
``renaming_map``; ``Renaming``, the one map class, wraps such a map for
what a report or a caller names.  A similarity function is a plain element
map too (``similarity.similarity_map``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import (
    DomainError,
    InvalidRenamingError,
    ValidationError,
    VocabularyMismatchError,
)

TRUE, FALSE, UNDEF = 0, 1, 2
LOGICAL_IDS = (TRUE, FALSE, UNDEF)
LOGICAL_LABELS = {TRUE: "TRUE", FALSE: "FALSE", UNDEF: "UNDEF"}

KIND_LOGICAL = "logical"
KIND_NONLOGICAL = "nonlogical"

MAX_ARITY = 3


class lazy_property:
    """``functools.cached_property`` as Python 3.12 has it: the value is
    computed on first read and stored in the instance's ``__dict__``, which
    later reads find first.  On Python 3.10 and 3.11 ``cached_property``
    also takes a lock on every first read, which makes a first read of a
    trivial value about three times as slow (0.8 us against 0.25 us, Python
    3.11.7 on a 2-vCPU x86-64 Xeon), and the proof replay makes thousands of
    first reads per check.  No instance here is shared between threads."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _is_identifier(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        ch.isalnum() or ch == "_" for ch in name
    )


@dataclass(frozen=True, order=True)
class Symbol:
    """An arity-tagged function symbol; relations are Boolean-valued functions."""

    name: str
    arity: int
    kind: str = KIND_NONLOGICAL
    # Read from the name's UTF-8 bytes as an integer, never from a str hash,
    # so it is the same in every process and on every Python: so are the
    # hashes of terms and updates, and the order their sets print in.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_identifier(self.name):
            raise ValidationError(f"bad symbol name {self.name!r}")
        if self.arity < 0:
            raise ValidationError(f"negative arity for symbol {self.name}")
        if self.kind not in (KIND_LOGICAL, KIND_NONLOGICAL):
            raise ValidationError(f"bad symbol kind {self.kind!r}")
        name = int.from_bytes(self.name.encode(), "big")
        object.__setattr__(self, "_hash", hash((name, self.arity, self.kind == KIND_LOGICAL)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


TRUE_SYMBOL = Symbol("true", 0, KIND_LOGICAL)
FALSE_SYMBOL = Symbol("false", 0, KIND_LOGICAL)
UNDEF_SYMBOL = Symbol("undef", 0, KIND_LOGICAL)
EQ_SYMBOL = Symbol("eq", 2, KIND_LOGICAL)
NOT_SYMBOL = Symbol("not", 1, KIND_LOGICAL)
AND_SYMBOL = Symbol("and", 2, KIND_LOGICAL)
OR_SYMBOL = Symbol("or", 2, KIND_LOGICAL)

LOGICAL_SYMBOLS = (
    TRUE_SYMBOL,
    FALSE_SYMBOL,
    UNDEF_SYMBOL,
    EQ_SYMBOL,
    NOT_SYMBOL,
    AND_SYMBOL,
    OR_SYMBOL,
)


class Vocabulary:
    """A finite set of function symbols; the logical symbols are always present."""

    __slots__ = ("_by_name", "_symbols")

    def __init__(self, nonlogical: Iterable[Symbol] = ()) -> None:
        by_name = {sym.name: sym for sym in LOGICAL_SYMBOLS}
        for sym in nonlogical:
            if sym.kind != KIND_NONLOGICAL:
                raise ValidationError(f"symbol {sym.name} must be declared nonlogical")
            if sym.arity > MAX_ARITY:
                raise ValidationError(
                    f"arity {sym.arity} of {sym.name} exceeds the limit {MAX_ARITY}"
                )
            if sym.name in by_name:
                raise ValidationError(f"duplicate or reserved symbol name {sym.name!r}")
            by_name[sym.name] = sym
        self._by_name = by_name
        self._symbols = frozenset(by_name.values())

    @property
    def symbols(self) -> frozenset[Symbol]:
        return self._symbols

    @property
    def nonlogical(self) -> tuple[Symbol, ...]:
        return tuple(sorted(s for s in self._symbols if s.kind == KIND_NONLOGICAL))

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise VocabularyMismatchError(f"unknown symbol {name!r}") from None

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def __contains__(self, sym: Symbol) -> bool:
        known = self._by_name.get(sym.name)
        return known is sym or known == sym

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        names = ", ".join(str(s) for s in self.nonlogical)
        return f"Vocabulary({names})"


@dataclass(frozen=True, slots=True)
class Term:
    """A ground term; the toolkit has no variables."""

    root: Symbol
    children: tuple["Term", ...] = ()
    # Rendered once per term: witness sets are sorted by this text.
    _text: str = field(init=False, repr=False, compare=False)
    # Hashed once per term, as the generated hash would, so a hash costs no
    # walk of the subtree; it reads only symbol hashes, so no process salts it.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.children) != self.root.arity:
            raise ValidationError(
                f"symbol {self.root.name}/{self.root.arity} applied to "
                f"{len(self.children)} arguments"
            )
        text = self.root.name
        if self.children:
            text = f"{text}({', '.join([c._text for c in self.children])})"
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_hash", hash((self.root, self.children)))

    def __hash__(self) -> int:
        return self._hash

    def subterms(self) -> Iterator["Term"]:
        yield self
        for child in self.children:
            yield from child.subterms()

    @property
    def depth(self) -> int:
        return 1 + max((c.depth for c in self.children), default=0) if self.children else 0

    def __str__(self) -> str:
        return self._text


TRUE_TERM = Term(TRUE_SYMBOL)
FALSE_TERM = Term(FALSE_SYMBOL)
UNDEF_TERM = Term(UNDEF_SYMBOL)


def subterm_closure(terms: Iterable[Term]) -> frozenset[Term]:
    """Least superset closed under subterms; idempotent and extensive."""
    closed: set[Term] = set()
    for t in terms:
        closed.update(t.subterms())
    return frozenset(closed)


def is_subterm_closed(terms: Iterable[Term]) -> bool:
    """Whether every subterm of a member is a member.

    Only direct children are looked up.  That suffices, by induction on
    depth: a subterm of t is t itself or a subterm of a child c of t; c is a
    member, of smaller depth, so every subterm of c is a member.  Conversely
    a child is a subterm, so a set closed under subterms is closed under
    children.
    """
    terms = frozenset(terms)
    return all(c in terms for t in terms for c in t.children)


def sorted_terms(terms: Iterable[Term]) -> list[Term]:
    """Deterministic term order: lexicographic on the rendered form."""
    return sorted(terms, key=str)


class State:
    """A finite first-order structure over a fixed vocabulary.

    ``tables`` maps nonlogical symbol names to sparse interpretation tables
    from argument tuples to values; absent tuples take the value undef.
    """

    __slots__ = ("vocabulary", "base", "_tables", "_nonlogical", "_key", "_hash")

    def __init__(
        self,
        vocabulary: Vocabulary,
        base: Iterable[int],
        tables: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
    ) -> None:
        carrier = frozenset(base) | frozenset(LOGICAL_IDS)
        for e in carrier:
            if not isinstance(e, int) or e < 0:
                raise ValidationError(f"bad element id {e!r}")
        normalized: dict[str, dict[tuple[int, ...], int]] = {}
        for name, table in (tables or {}).items():
            sym = vocabulary.get(name)
            if sym is None:
                raise VocabularyMismatchError(f"table for unknown symbol {name!r}")
            if sym.kind == KIND_LOGICAL:
                raise ValidationError(f"logical symbol {name} has a fixed interpretation")
            entries: dict[tuple[int, ...], int] = {}
            for args, value in table.items():
                args = tuple(args)
                if len(args) != sym.arity:
                    raise ValidationError(
                        f"{name}/{sym.arity} table entry with {len(args)} arguments"
                    )
                if any(a not in carrier for a in args) or value not in carrier:
                    raise ValidationError(
                        f"table entry {name}{args} = {value} leaves the carrier"
                    )
                if value != UNDEF:
                    entries[args] = value
            if entries:
                normalized[name] = entries
        self.vocabulary = vocabulary
        self.base = carrier
        self._tables = normalized
        self._nonlogical = tuple(sorted(carrier - frozenset(LOGICAL_IDS)))
        self._key = state_key(carrier, normalized)
        self._hash = hash(self._key)

    @property
    def interpretations(self) -> dict[str, dict[tuple[int, ...], int]]:
        """Normalized tables; treat as read-only."""
        return self._tables

    def value(self, name: str, args: tuple[int, ...]) -> int:
        table = self._tables.get(name)
        if table is None:
            return UNDEF
        return table.get(args, UNDEF)

    def nonlogical_elements(self) -> tuple[int, ...]:
        return self._nonlogical

    def key(self) -> tuple:
        """Canonical, sortable encoding used for deterministic enumeration."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._key == other._key and self.vocabulary == other.vocabulary

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tables = "; ".join(
            f"{name}={{{', '.join(f'{args}->{v}' for args, v in sorted(t.items()))}}}"
            for name, t in sorted(self._tables.items())
        )
        return f"State(base={sorted(self.base)}, {tables or 'all default'})"


def state_key(carrier: Iterable[int], tables: Mapping[str, Mapping[tuple, int]]) -> tuple:
    """The key of the state with this carrier and these normalized tables."""
    return (
        tuple(sorted(carrier)),
        tuple((name, tuple(sorted(tables[name].items()))) for name in sorted(tables)),
    )


def _boolean(x: int) -> bool:
    return x == TRUE or x == FALSE


def interpret(state: State, symbol: Symbol, args: tuple[int, ...]) -> int:
    """Apply one symbol's interpretation in ``state`` to already-evaluated args.

    Logical symbols have fixed built-in interpretations: equality compares
    element ids, the connectives act classically on the two Boolean elements
    and yield undef on any non-Boolean operand.
    """
    if symbol.kind == KIND_NONLOGICAL:
        return state.value(symbol.name, args)
    return _logical_value(symbol.name, args)


def _logical_value(name: str, args: tuple[int, ...]) -> int:
    if name == "true":
        return TRUE
    if name == "false":
        return FALSE
    if name == "undef":
        return UNDEF
    if name == "eq":
        return TRUE if args[0] == args[1] else FALSE
    if name == "not":
        a = args[0]
        if not _boolean(a):
            return UNDEF
        return FALSE if a == TRUE else TRUE
    a, b = args
    if not (_boolean(a) and _boolean(b)):
        return UNDEF
    if name == "and":
        return TRUE if a == TRUE and b == TRUE else FALSE
    if name == "or":
        return TRUE if a == TRUE or b == TRUE else FALSE
    raise VocabularyMismatchError(f"unknown logical symbol {name!r}")


# Step kinds of a term program's composite slots.
_LOOKUP1, _LOOKUP2, _LOOKUPN, _EQ, _CONNECTIVE = range(5)
# Slots hold the folded constants first, then the nullary lookups, then the rest.
_SLOT_GROUP = {int: 0, str: 1, type(None): 2}
# The truth tables of not, and, or over Boolean (first, last) operands; not
# reads its one operand twice, and any non-Boolean operand gives undef.
_TRUTH_TABLES = {
    name: {
        (p, q): _logical_value(name, (p, q)[:arity]) for p in (TRUE, FALSE) for q in (TRUE, FALSE)
    }
    for name, arity in (("not", 1), ("and", 2), ("or", 2))
}


class TermProgram:
    """Ground terms compiled over one vocabulary into a flat evaluation program.

    The program lists the distinct subterms of ``terms``, deduplicated by
    equality, one slot each: first the subterms without a nonlogical symbol
    (``not(undef)``, ``and(false, false)``), folded to their constant values,
    then the nullary nonlogical lookups, then the composite subterms, children
    before parents.  Every symbol is checked against the vocabulary here,
    once: terms are visited in the given order, each node before its
    children, and the first unknown symbol raises ``VocabularyMismatchError``
    with ``unknown`` formatted by it.  ``outputs`` holds the slot of each of
    ``terms``, and ``size`` counts the slots, the distinct subterms of
    ``terms``.

    ``run`` evaluates every slot over a state's normalized tables in one pass,
    with no recursion, memo or symbol check; the tables must be those of a
    state over ``vocabulary``.  ``evaluate`` reads the values of ``terms`` off
    a state; a state over another vocabulary is evaluated by a program
    compiled, and checked, afresh for it.
    """

    __slots__ = ("vocabulary", "terms", "outputs", "_constants", "_leaves", "_steps")

    def __init__(
        self,
        vocabulary: Vocabulary,
        terms: Iterable[Term],
        unknown: str = "term symbol {} is not in the state's vocabulary",
    ) -> None:
        self.vocabulary = vocabulary
        self.terms = tuple(terms)
        # Equal terms have one root and equal children, and symbol names are
        # unique in a vocabulary, so a subterm is keyed by its root's name and
        # its children's nodes.  A node is (root, children's nodes, value):
        # the folded constant, the name of a nullary lookup, or None.
        nodes: list[tuple[Symbol, tuple[int, ...], int | str | None]] = []
        keys: dict[tuple[str, tuple[int, ...]], int] = {}
        seen: dict[int, int] = {}  # id(term) -> node; self.terms keeps each term alive

        def visit(term: Term) -> int:
            node = seen.get(id(term))
            if node is None:
                root = term.root
                if root not in vocabulary:
                    raise VocabularyMismatchError(unknown.format(root))
                kids = tuple([visit(child) for child in term.children])
                node = keys.get((root.name, kids))
                if node is None:
                    if root.kind == KIND_NONLOGICAL:
                        value = None if kids else root.name
                    elif all(isinstance(nodes[k][2], int) for k in kids):
                        value = _logical_value(root.name, tuple(nodes[k][2] for k in kids))
                    else:
                        value = None
                    node = keys[(root.name, kids)] = len(nodes)
                    nodes.append((root, kids, value))
                seen[id(term)] = node
            return node

        top = [visit(term) for term in self.terms]
        order = sorted(range(len(nodes)), key=lambda n: _SLOT_GROUP[type(nodes[n][2])])
        slot = [0] * len(nodes)
        for i, n in enumerate(order):
            slot[n] = i
        self._constants = [nodes[n][2] for n in order if type(nodes[n][2]) is int]
        self._leaves = tuple(nodes[n][2] for n in order if type(nodes[n][2]) is str)
        steps = []
        for root, kids, _ in (nodes[n] for n in order if nodes[n][2] is None):
            kids, name = tuple([slot[k] for k in kids]), root.name
            if root.kind == KIND_NONLOGICAL:
                if len(kids) <= 2:
                    steps.append(((_LOOKUP1, _LOOKUP2)[len(kids) - 1], name, kids[0], kids[-1]))
                else:
                    steps.append((_LOOKUPN, name, kids, None))
            elif name == "eq":
                steps.append((_EQ, None, kids[0], kids[1]))
            else:
                steps.append((_CONNECTIVE, _TRUTH_TABLES[name], kids[0], kids[-1]))
        self._steps = tuple(steps)
        self.outputs = tuple([slot[n] for n in top])

    @property
    def size(self) -> int:
        return len(self._constants) + len(self._leaves) + len(self._steps)

    def run(self, tables: Mapping[str, Mapping[tuple[int, ...], int]]) -> list[int]:
        """The value of every slot over normalized tables, in slot order."""
        values = self._constants.copy()
        append = values.append
        get = tables.get
        for name in self._leaves:
            table = get(name)
            append(UNDEF if table is None else table.get((), UNDEF))
        for kind, name, a, b in self._steps:  # name: a symbol's, or a truth table
            if kind == _LOOKUP1:
                table = get(name)
                append(UNDEF if table is None else table.get((values[a],), UNDEF))
            elif kind == _EQ:
                append(TRUE if values[a] == values[b] else FALSE)
            elif kind == _LOOKUP2:
                table = get(name)
                append(UNDEF if table is None else table.get((values[a], values[b]), UNDEF))
            elif kind == _CONNECTIVE:
                append(name.get((values[a], values[b]), UNDEF))
            else:
                table = get(name)
                append(UNDEF if table is None else table.get(tuple([values[k] for k in a]), UNDEF))
        return values

    def evaluate(self, state: State) -> tuple[int, ...]:
        """The values of ``terms`` in ``state``, in order."""
        return self.evaluate_tables(state.vocabulary, state.interpretations)

    def evaluate_tables(
        self, vocabulary: Vocabulary, tables: Mapping[str, Mapping[tuple[int, ...], int]]
    ) -> tuple[int, ...]:
        """The values of ``terms``, in order, in the state over ``vocabulary``
        with these normalized tables, without building it."""
        if vocabulary is not self.vocabulary and vocabulary != self.vocabulary:
            return TermProgram(vocabulary, self.terms).evaluate_tables(vocabulary, tables)
        values = self.run(tables)
        return tuple([values[i] for i in self.outputs])


def evaluate_terms(state: State, terms: Iterable[Term]) -> list[int]:
    """The values of ground terms in a state, in the given order, by a
    ``TermProgram`` compiled for the state's vocabulary."""
    return list(TermProgram(state.vocabulary, terms).evaluate(state))


def evaluate_term(state: State, term: Term) -> int:
    """The value of a ground term in a state."""
    return evaluate_terms(state, (term,))[0]


def coincides_over(x: State, y: State, terms: Iterable[Term]) -> bool:
    """True iff every term of the set has the same value in both states."""
    if x.vocabulary != y.vocabulary:
        raise VocabularyMismatchError("states have different vocabularies")
    program = TermProgram(x.vocabulary, terms)
    return program.evaluate(x) == program.evaluate(y)


class Renaming:
    """An injective finite element map fixing the three logical elements."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int]) -> None:
        self._map = renaming_map(mapping)

    def __getitem__(self, element: int) -> int:
        try:
            return self._map[element]
        except KeyError:
            raise DomainError(f"element {element} outside renaming domain") from None

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._map.items())

    def __eq__(self, other: object) -> bool:
        return type(other) is Renaming and self._map == other._map

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        moved = ", ".join(f"{k}->{v}" for k, v in self.items() if k != v)
        return f"Renaming({moved or 'identity'})"


def renaming_map(mapping: Mapping[int, int]) -> dict[int, int]:
    """The element map of ``Renaming(mapping)``: a copy of ``mapping`` with the
    logical elements added as fixed points, checked to fix them, to hold no
    negative id, to map no nonlogical element onto a logical one and to be
    injective; the first fault raises ``InvalidRenamingError``.  Code that
    keeps renamings as raw maps checks them here, as ``Renaming`` does."""
    m = dict(mapping)
    for lid in LOGICAL_IDS:
        if m.setdefault(lid, lid) != lid:
            raise InvalidRenamingError(f"renaming moves logical element {lid}")
    for src, dst in m.items():
        if src < 0 or dst < 0:
            raise InvalidRenamingError(f"bad renaming pair {src}->{dst}")
        if dst in LOGICAL_IDS and src != dst:
            raise InvalidRenamingError(
                f"renaming maps nonlogical {src} onto logical element {dst}"
            )
    if len(set(m.values())) != len(m):
        raise InvalidRenamingError("renaming is not injective")
    return m


def apply_renaming(state: State, renaming: Renaming) -> State:
    """The isomorphic copy of ``state`` along ``renaming``."""
    base, tables = _renamed(state, renaming._map)
    return State(state.vocabulary, base, tables)


def renamed_key(state: State, mapping: Mapping[int, int]) -> tuple:
    """``apply_renaming(state, Renaming(mapping)).key()``, building neither."""
    return state_key(*_renamed(state, mapping))


def rename_tables(
    tables: Mapping[str, Mapping[tuple[int, ...], int]], mapping: Mapping[int, int]
) -> dict[str, dict[tuple[int, ...], int]]:
    """Every argument and value of the tables sent through ``mapping``, a
    renaming's element map covering them.  A renaming fixes undef and is
    injective, so normalized tables stay normalized."""
    return {
        name: {tuple([mapping[a] for a in args]): mapping[v] for args, v in table.items()}
        for name, table in tables.items()
    }


def _renamed(state: State, m: Mapping[int, int]) -> tuple[list[int], dict]:
    missing = [e for e in state.base if e not in m]
    if missing:
        raise InvalidRenamingError(f"renaming does not cover carrier elements {sorted(missing)}")
    return [m[e] for e in state.base], rename_tables(state.interpretations, m)


def isomorphism_maps(x: State, y: State, fixing: Iterable[int] = ()) -> Iterator[dict[int, int]]:
    """The element maps of the isomorphisms from ``x`` onto ``y`` that fix
    each element of ``fixing``, unvalidated, in ``asmkit.symmetry``'s search
    order.  Each passes ``renaming_map``'s checks: it fixes the logical ids
    and ``fixing``, members of both carriers, and sends x's other nonlogical
    elements one-to-one onto y's, so it is injective and sends no nonlogical
    element onto a logical one; its ids, a ``State``'s, are not negative."""
    held = frozenset(fixing)
    if x.vocabulary != y.vocabulary or len(x.base) != len(y.base) or not held <= x.base & y.base:
        return
    xt, yt = x.interpretations, y.interpretations
    if set(xt) != set(yt) or any(len(xt[n]) != len(yt[n]) for n in xt):
        return
    sources = [e for e in x.nonlogical_elements() if e not in held]
    targets = [e for e in y.nonlogical_elements() if e not in held]
    fixed = {e: e for e in (*LOGICAL_IDS, *held)}
    for perm in itertools.permutations(targets, len(sources)):
        m = {**fixed, **dict(zip(sources, perm))}
        if all(
            yt[name].get(tuple([m[a] for a in args])) == m[v]
            for name, table in xt.items()
            for args, v in table.items()
        ):
            yield m


def isomorphisms_between(x: State, y: State) -> Iterator[Renaming]:
    """All renamings carrying ``x`` onto ``y``: the ``Renaming`` view of ``isomorphism_maps``."""
    return map(Renaming, isomorphism_maps(x, y))
