"""Executable checkers for the four postulates over a bounded universe.

Quantifiers over "all states" range over the closure of the canonical states
under renamings into the universe.  The bounded-exploration checkers require
universe headroom of twice the largest nonlogical carrier plus the three
logical ids, so that fresh-element constructions are expressible; smaller
universes make the check inconclusive rather than wrong.

A bounded-exploration check works on a ``ClosureIndex``: the compiled
witness, and the witness values and update set of every canonical state.  No
check enumerates the closure: the similarity and coincidence classes stream
their ``Copy``s lazily in key order, one carrier at a time, and no copy is
kept across calls.  What depends on the canonical states alone, and on
neither the universe nor the rule, is kept on the algorithm
(``CanonicalFacts``).  A pairwise property that depends only on the witness
values (coincidence) or their equality pattern (similarity) holds for all
pairs exactly when it is constant on each group of equal data; witnesses
come from the first offending group in a fixed lexicographic order.

Every check is decided on the canonical states, by a symmetry reduction
(``asmkit.symmetry``) that does not appeal to the equivalence of the two
bounded-exploration postulates.  A copy belongs to the first canonical state
it renames, so a canonical state owns copies exactly when it is not
isomorphic to an earlier one (an owner).  The new check reads class streams
only to name a requirement-(ii) witness, the old check only its first
failing coincidence class, and the abstract-state check walks renamings
only to name a failure; each check's docstring gives its argument.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import AsmError, HeadroomError, PreconditionError, VocabularyMismatchError
from .kernel import (
    LOGICAL_IDS,
    Renaming,
    State,
    Term,
    TermProgram,
    Vocabulary,
    apply_renaming,
    is_subterm_closed,
    lazy_property,
    rename_tables,
    renamed_key,
    sorted_terms,
)
from .report import CheckReport
from .similarity import equality_pattern
from .symmetry import (
    automorphisms,
    coset_first,
    first_isomorphic,
    renaming_maps,
)
from .transition import (
    Algorithm,
    Encoded,
    Update,
    canonical_step,
    decoded,
    encoded_rule_deltas,
    first_unnatural_successor,
    lift_encoded_set,
    rule_updates,
    step,
    table_diff,
    within,
)


@dataclass
class Copy:
    """One state of the universe closure, r(c) for the canonical state c at
    ``canonical_index`` in ``index``'s algorithm, remembered by the raw
    element map r (``mapping``, over c's carrier) that made it.  Its key,
    witness values and encoded update set, c's in ``index`` renamed by r,
    are all a check reads.  Its ``Renaming``, ``State`` and ``Update`` set,
    the encoded set decoded in sorted order, are views built only for
    reports and tests.  All are derived on first read.

    Every map a copy is made with passes ``Renaming``'s checks, so the view
    adds no failure: a class stream's map fixes the logical ids and sends
    the nonlogical elements to distinct ids from 3 up, as ``renaming_maps``
    does.
    """

    canonical_index: int
    mapping: dict[int, int]
    index: ClosureIndex = field(repr=False, compare=False)

    @lazy_property
    def key(self) -> tuple:
        return renamed_key(self.index.algorithm.canonical_states[self.canonical_index], self.mapping)

    @lazy_property
    def renaming(self) -> Renaming:
        return Renaming(self.mapping)

    @lazy_property
    def state(self) -> State:
        return apply_renaming(self.index.algorithm.canonical_states[self.canonical_index], self.renaming)

    @lazy_property
    def vector(self) -> tuple[int, ...]:
        m = self.mapping
        return tuple([m[v] for v in self.index.vectors[self.canonical_index]])

    @lazy_property
    def delta(self) -> frozenset[Update]:
        vocabulary = self.index.algorithm.vocabulary
        return frozenset([decoded(vocabulary, u) for u in sorted(self.encoded_delta)])

    @lazy_property
    def encoded_delta(self) -> frozenset[Encoded]:
        return lift_encoded_set(self.mapping, self.index.deltas[self.canonical_index])


# Most renamings of the canonical states into the universe that the closure or
# the abstract-state check will try; they count them first, and refuse a
# universe above it that would exhaust memory or time rather than answer.
MAX_RENAMINGS = 250_000


def required_headroom(algorithm: Algorithm) -> int:
    """Smallest universe size under which the BE checks are conclusive."""
    return 2 * algorithm.max_nonlogical_carrier() + 3


def universe_fits(algorithm: Algorithm, universe_size: int) -> None:
    """Every canonical carrier must live inside the universe."""
    for state in algorithm.canonical_states:
        worst = max(state.base, default=0)
        if worst >= universe_size:
            raise HeadroomError(
                f"universe of size {universe_size} does not contain carrier element {worst}"
            )


def _require_work_budget(algorithm: Algorithm, universe_size: int, count: int | None = None) -> None:
    """Refuse ``count`` renamings, by default all of the canonical states', above the limit."""
    if count is None:
        count = sum(
            math.perm(universe_size - 3, len(state.nonlogical_elements()))
            for state in algorithm.canonical_states
        )
    if count > MAX_RENAMINGS:
        raise PreconditionError(
            f"universe of size {universe_size} needs {count} renamings of the canonical "
            f"states, over the work limit of {MAX_RENAMINGS}"
        )


def _require_headroom(algorithm: Algorithm, universe_size: int) -> None:
    universe_fits(algorithm, universe_size)
    needed = required_headroom(algorithm)
    if universe_size < needed:
        raise HeadroomError(
            f"universe of size {universe_size} is inconclusive for this algorithm; "
            f"need at least {needed} for fresh-element constructions"
        )


def _witness_program(vocabulary: Vocabulary, terms: frozenset[Term]) -> TermProgram:
    """The witness compiled in text order; the compile checks it is ground
    over ``vocabulary``.  An unknown symbol is reported for the first term,
    in that order, that uses one."""
    ordered = sorted_terms(terms)
    try:
        return TermProgram(vocabulary, ordered)
    except VocabularyMismatchError:
        for t in ordered:
            for sub in t.subterms():
                if sub.root not in vocabulary:
                    raise VocabularyMismatchError(
                        f"witness term {t} uses unknown symbol {sub.root}"
                    ) from None
        raise


def _require_subterm_closed(program: TermProgram, terms: frozenset[Term]) -> None:
    # The program's slots are the distinct subterms of the witness, which
    # holds each of its own terms, so it is closed exactly when they are as many.
    if program.size != len(terms):
        raise PreconditionError("the witness for the new postulate must be subterm-closed")


_LOGICAL_FIXED = {e: e for e in LOGICAL_IDS}


def closure(algorithm: Algorithm, universe_size: int, *, index: ClosureIndex | None = None) -> list[Copy]:
    """The closure of the canonical states under renamings into the universe,
    in key order: the owners' class streams merged (``_copies_in_key_order``),
    each copy with the first renaming that makes it and deriving its witness
    values and update set from ``index``, an index over the same universe, by
    default over the empty witness (so the universe needs headroom);
    ``PreconditionError`` above ``MAX_RENAMINGS`` renamings.  No check
    calls it."""
    universe_fits(algorithm, universe_size)
    if index is None:
        index = ClosureIndex(algorithm, (), universe_size)
    _require_work_budget(algorithm, universe_size)
    return list(_copies_in_key_order(index, index.owners))


def _copies_in_key_order(
    index: ClosureIndex, owners: Iterable[int], vector: tuple[int, ...] | None = None
) -> Iterator[Copy]:
    """The distinct copies of ``owners``, lazily and in key order, each with
    the first renaming that makes it in the renaming order
    (``asmkit.symmetry``), and with the first canonical state that makes it:
    no canonical state before a copy's owner is isomorphic to it.  With
    ``vector``, only the copies whose witness values are ``vector``.

    Per owner, the renamings are tried one carrier at a time: the nonlogical
    elements go onto each subset C of 3 .. u-1, in ``itertools.combinations``
    order, by permutations of sorted(C).  A copy's key starts with its sorted
    carrier, the logical ids and C, so the copies of one C are one contiguous
    block of the key order.  The blocks come in key order: two subsets A, B
    of one size compare, as sorted tuples, by whether min(A ^ B) lies in A;
    adding the logical ids to both leaves A ^ B unchanged, and combinations
    come in the subsets' order.  Each owner's stream thus strictly increases.
    Distinct owners are not isomorphic, so their keys are disjoint; with two
    owners or more, ``heapq.merge`` yields the union in key order.

    A block holds only the coset-first orders.  Write m_C,o for the map
    sending the k-th nonlogical element to the o(k)-th least member of C,
    for an order o, and fixing the logical ids.  m_C,o and m_C,o' make one
    copy exactly when a = m_C,o^-1 m_C,o' is an automorphism of the owner,
    and o' = o a.  So a block's keys are constant exactly on the cosets of
    the owner's automorphisms, and by the quotient lemma (``asmkit.symmetry``)
    each key comes from one coset-first order, the least of its orders.  Its
    map is the first the renaming order gives the copy: renamings that make
    one copy have one image C, and in the renaming order the maps with image
    C compare as their orders do.

    Block-order lemma: the orders sorted by their keys in one block are
    sorted by their keys in every block.  Proof: let C, C' be two images and
    phi the increasing bijection of C onto C', extended by the identity on
    the logical ids, which lie below 3 and so below both; phi is increasing
    on its whole domain.  For every order o, m_C',o = phi m_C,o, since both
    send the k-th nonlogical element to the o(k)-th least member of C', and
    so the key of m_C',o is the key of m_C,o with every element sent through
    phi: the carrier and each table's entries stay sorted, since an
    increasing map keeps the lexicographic order of tuples of elements, and
    symbol names do not move.  For the same reason phi keeps every
    comparison between two keys, elementwise and then lexicographically.  So
    the coset-first orders, sorted once by their keys on the image 3 .. n+2,
    are in key order in every block, and a stream builds no key:
    ``CanonicalFacts.block_order`` keeps that order per owner.

    Filter: an automorphism of an owner fixes every witness value
    (``check_old_be``), so the renamings that make one copy agree on the
    witness values, and filtering an owner's stream by ``vector`` keeps
    whole copies, in key order, each with its first renaming.  Each owner's
    stream is filtered before the merge, so the merge keys only copies it
    keeps.  A copy's witness values lie in its carrier, so only the images
    that hold the vector's nonlogical values V are tried, each V with a
    subset of the other targets; those subsets come in combinations order,
    and adding V to both of two leaves their symmetric difference, and so
    their order, unchanged.  An owner's stream thus ends after its last
    block that can hold a copy of the class.

    Laziness is per copy.  A stream builds each copy's map when it is
    pulled, and its key only if the key is read; ``heapq.merge`` reads the
    key of each copy it pulls, once to start and once after each copy of the
    stream that it yields.
    """

    values = set(vector or ())
    held = [e for e in range(3, index.universe_size) if e in values]
    free = [e for e in range(3, index.universe_size) if e not in values]

    def owner_stream(i: int) -> Iterator[Copy]:
        sources = index.algorithm.canonical_states[i].nonlogical_elements()  # sorted
        if len(sources) < len(held):  # no copy of i holds the vector's values
            return
        orders = index.facts.block_order(i)
        for rest in itertools.combinations(free, len(sources) - len(held)):
            image = tuple(heapq.merge(held, rest)) if held else rest
            for order in orders:
                copy = Copy(i, {**_LOGICAL_FIXED, **dict(zip(sources, [image[p] for p in order]))}, index)
                if vector is None or copy.vector == vector:
                    yield copy

    streams = [owner_stream(i) for i in owners]
    if len(streams) == 1:
        return streams[0]
    return heapq.merge(*streams, key=lambda c: c.key)


def check_sequential_time(algorithm: Algorithm) -> CheckReport:
    """Nonempty states, a nonempty initial subset, and a total one-step map.

    The map is total exactly when the rule's updates (``rule_updates``) are
    defined on every canonical state, and no successor is built.  Proof: an
    explicit successor is a lookup, which never fails.  A rule-based
    successor writes the updates, which cannot fail: they do not clash, their
    symbols are the vocabulary's, which the rule was compiled against, and
    each argument and value is a term's value, a table entry or a logical id,
    so inside the carrier.
    """
    label = "sequential-time"
    if not algorithm.canonical_states:
        return CheckReport(False, label, "empty state set", witness={"states": 0})
    if not any(algorithm.initial):
        return CheckReport(
            False, label, "no initial state", witness={"initial_flags": algorithm.initial}
        )
    for index, state in enumerate(algorithm.canonical_states if algorithm.rule_based else ()):
        try:
            rule_updates(algorithm.compiled, state.interpretations)
        except AsmError as exc:
            return CheckReport(
                False,
                label,
                f"one-step transformation undefined on canonical state {index}: {exc}",
                witness={"state": state, "error": str(exc)},
            )
    return CheckReport(
        True,
        label,
        stats={"states": len(algorithm.canonical_states), "initial": sum(algorithm.initial)},
    )


def _unnatural_report(algorithm: Algorithm, index: int, mapping: dict[int, int]) -> CheckReport:
    """The report on canonical state ``index``'s failing renaming ``mapping``:
    its copy stepped, and the canonical successor renamed."""
    state = algorithm.canonical_states[index]
    renaming = Renaming(mapping)
    return CheckReport(
        False,
        "abstract-state",
        f"step does not commute with a renaming of canonical state {index}",
        witness={
            "state": state,
            "renaming": renaming,
            "expected": apply_renaming(canonical_step(algorithm, index), renaming),
            "actual": step(algorithm, apply_renaming(state, renaming)),
        },
    )


def _first_unnatural_rule_map(
    algorithm: Algorithm, state: State, delta: frozenset[Encoded], universe_size: int
) -> dict[int, int] | None:
    """The first map m, in the renaming order, whose copy, the
    canonical tables renamed by m, has a rule update set other than m(D), D
    the canonical update set ``delta``, encoded, or whose rule evaluation
    raises an ``AsmError``, which is raised again: the first failing
    renaming.  A map is settled by its restriction to the support S, a tuple
    over S.  Only the coset-first ones are evaluated, unless a permutation
    of S fixing the tables moves D or one of them fails; then the maps are
    walked in order, each support map evaluated once, by the lemmas in
    ``check_abstract_state``.
    """
    rule, tables = algorithm.compiled, state.interpretations
    mentioned = {e for table in tables.values() for args, v in table.items() for e in (*args, v)}
    mentioned.update(e for _, args, v in delta for e in (*args, v))
    support = tuple(sorted(mentioned.difference(LOGICAL_IDS)))
    settled: dict[tuple[int, ...], bool | AsmError] = {}  # support map -> passes, or what it raised

    def settle(images: tuple[int, ...]) -> bool | AsmError:
        if images not in settled:
            m = {**_LOGICAL_FIXED, **dict(zip(support, images))}
            try:
                updates = rule_updates(rule, rename_tables(tables, m))
            except AsmError as exc:  # raised again if it settles the first failing map
                settled[images] = exc
            else:
                settled[images] = updates == {
                    (name, tuple([m[a] for a in args])): m[v] for name, args, v in delta
                }
        return settled[images]

    group = list(automorphisms(state, fixing=state.base - mentioned))
    maps = itertools.permutations(range(3, universe_size), len(support))
    if all(lift_encoded_set(a, delta) == delta for a in group) and all(
        settle(images) is True for images in coset_first(maps, support, group)
    ):
        return None
    for m in renaming_maps(state.base, universe_size):
        outcome = settle(tuple([m[e] for e in support]))
        if outcome is not True:
            if outcome is not False:
                raise outcome
            return m
    raise AssertionError("a support map failed but no renaming did")


def check_abstract_state(algorithm: Algorithm, universe_size: int) -> CheckReport:
    """Base-set preservation plus naturality of the step under every renaming.

    The rule-based backend checks every renaming: the naturality of rule
    semantics is what this check tests there, so it is not assumed.  Each
    evaluation runs the ``CompiledRule`` built with the ``Algorithm``, its
    symbols checked then, over a copy's raw tables.  It compares update
    sets instead of successors.  Lemma: for a renaming r of canonical state c,
    with update set D, the rule's update set on c (``canonical_delta``), and
    successor succ, c with D written, the copy r(c) steps to r(succ) exactly
    when the rule's update set on r(c) equals r(D).  Proof: ``apply_rule``
    returns only nontrivial updates that do not clash, and a state steps to
    ``apply_updates`` of them, which keeps the base, so no rule-based
    successor changes it.  r(succ) is r(c) with r(D) written, since a
    renaming is a bijection of elements fixing undef; and r(D) is nontrivial
    on r(c).  Two nontrivial, non-clashing update sets on one state give the
    same successor exactly when they are equal: a location in one but not
    the other, or holding two values, takes different values in the two
    successors.  The lemma rests on table writes and renamings only, never
    on the naturality of rule semantics.  Every canonical D is computed
    before any copy is evaluated, so a rule that raises on a canonical state
    raises first.

    The rule runs on renamings of the support only.  Renamings of c are
    ordered by their tuples over c's n sorted nonlogical elements (renaming
    order, ``asmkit.symmetry``).  Let S be the k sorted nonlogical elements
    that c's tables T or D mention, and a support map an injective map s from
    S into 3 .. u-1, ordered by its tuple over S; it passes when the rule's
    update set on the tables s(T) is s(D), and fails or raises otherwise.
    Support lemma: a renaming m passes, fails or raises, with the same
    message, as its restriction m|S does.  Proof: m's copy has the tables
    m(T) = m|S(T), and the rule reads only its tables (the premise that its
    update set is a function of them, not that it is natural); m(D) = m|S(D).
    Every support map is the restriction of a renaming, which sends c's
    other nonlogical elements anywhere else: there is room, since the n of
    them are distinct ids from 3 up that ``universe_fits`` puts below u, so
    n <= u - 3.  So every renaming passes exactly when every support map does.

    Cosets: let G, a group, be the permutations p of S with p(T) = T.
    ``_first_unnatural_rule_map`` finds G as Aut(c) ∩ Fix(R), R c's elements
    outside S, restricted to S: T mentions no nonlogical element outside S,
    so such an a permutes S and keeps T, and each p in G, extended by the
    identity on R, is such an a.  Every support map passes exactly when no
    p in G moves D and every coset-first support map passes.  Only if: s
    and s p get the same tables, so the same update set; if p moves D then
    s(p(D)) != s(D), s being injective, and one of the two fails.  If: s p
    gets s's tables, and, as p(D) = D, s p(D) = s(D); passing is constant on
    cosets (quotient lemma).

    Failure: when some p in G moves D, or a coset-first support map fails or
    raises, the renamings are walked in order and each settled through its
    restriction to S, which is evaluated once; by the support lemma the
    first that fails or raises is the first renaming whose copy, evaluated
    as it is, fails or raises, and a raised error is raised again.

    Count: a passing check evaluates the rule at most once per distinct
    copy.  Renamings give one copy exactly when they differ by an
    automorphism (quotient lemma), so there are P(u - 3, n)/|Aut(c)|
    distinct copies.  When the check passes, every renaming passes, so every
    a in Aut(c) fixes D: m and m a share a copy, so m(D) = m(a(D)).  Then a
    preserves the elements T and D mention, so a(S) = S and a restricts to a
    member of G; each p in G is the restriction of its extension by the
    identity, and the a that fix S pointwise are the (n - k)! permutations
    of c's other nonlogical elements, which neither T nor D mentions.  So
    |Aut(c)| = |G| (n - k)!, and the distinct copies number
    (P(u - 3, k)/|G|) C(u - 3 - k, n - k), at least the P(u - 3, k)/|G|
    coset-first support maps evaluated.

    The explicit-successor backend is decided on the canonical states.  Let
    cj be the first canonical state isomorphic to ci, and succ the successor
    tables.  The step is natural exactly when every isomorphism t: cj -> ci
    carries succj onto succi.  Proof: a copy r(ci) is isomorphic to exactly
    the canonical states isomorphic to ci, so ``locate`` finds cj first, and
    with it rho, the first isomorphism cj -> r(ci) in the search order
    (``asmkit.symmetry``); the copy steps to rho(succj).  Bases are kept by
    then (the base-set loop has run, and renamings are bijections), so
    renaming r passes exactly when rho(succj) = r(succi), that is, when
    t = r^-1 rho carries succj onto succi; t is an isomorphism cj -> ci.
    Every such t arises, as the first map the search tries is increasing.
    Take r sending t(e_k), for cj's k-th least nonlogical element e_k, to
    3 + k; it is a renaming into the universe, because the n nonlogical
    elements of ci are distinct ids from 3 up that ``universe_fits`` puts
    below u, so u - 3 >= n.  Then r t is increasing, so it is that first
    map, and it is an isomorphism cj -> r(ci): rho = r t and r^-1 rho = t.
    So all renamings pass exactly when every t does, and every state before
    the first failing one passes every renaming.

    Order-pattern lemma: whether a renaming r of ci passes depends only on
    the relative order of r's values.  Proof: let o be the increasing map of
    r's image onto 3 .. n+2.  The search order depends only on the order of
    the target's elements, which o keeps, so the isomorphisms cj -> o r(ci)
    are o composed with those cj -> r(ci), in the same order.  The copy
    o r(ci) steps to o rho(succj), and o is injective, so o r passes exactly
    when r does.  At each position o r is no greater than r, since r's k-th
    least value, from k = 0, is at least 3 + k; so the first failing
    renaming is one of the n! onto 3 .. n+2, and the renaming order meets
    those in the same relative order at every universe.  So only those are
    walked, each copy stepped as a ``State``, to name the first failing
    renaming, behind a budget of n! renamings: an explicit-successor
    algorithm answers at any universe when it passes, and when it fails with
    n! within the limit.  The rule-based backend is budgeted for the whole
    closure before any copy is evaluated.  Closure of the family under
    isomorphism holds by construction, because copies are generated on
    demand rather than stored; the report says so.
    """
    universe_fits(algorithm, universe_size)
    states = algorithm.canonical_states
    if algorithm.rule_based:  # every renaming may be walked: refuse first
        _require_work_budget(algorithm, universe_size)
        for index, (state, delta) in enumerate(zip(states, encoded_rule_deltas(algorithm))):
            failing = _first_unnatural_rule_map(algorithm, state, delta, universe_size)
            if failing is not None:
                return _unnatural_report(algorithm, index, failing)
    else:
        for index, (state, successor) in enumerate(zip(states, algorithm.successors)):
            if successor.base != state.base:
                return CheckReport(
                    False,
                    "abstract-state",
                    f"successor of canonical state {index} changes the base set",
                    witness={"state": state, "successor": successor},
                )
        index = first_unnatural_successor(states, algorithm.successors, canonical_facts(algorithm).first)
        if index is not None:
            state, successor = states[index], algorithm.successors[index]
            n = len(state.nonlogical_elements())
            _require_work_budget(algorithm, universe_size, math.factorial(n))
            for m in renaming_maps(state.base, n + 3):
                if step(algorithm, apply_renaming(state, Renaming(m))).key() != renamed_key(successor, m):
                    return _unnatural_report(algorithm, index, m)
            raise AssertionError("an isomorphism moved a successor but no renaming failed")
    return CheckReport(
        True,
        "abstract-state",
        notes=("closure under isomorphism holds by construction (copies are generated)",),
    )


def _accessible_trace(delta: frozenset[Encoded], first: dict[int, int]) -> frozenset[Encoded]:
    """Accessible members of an encoded update set, encoded by witness-term index class."""
    return frozenset((u[0], tuple([first[a] for a in u[1]]), first[u[2]]) for u in delta if within(u, first))


@dataclass(frozen=True)
class CompiledWitness:
    """A witness compiled by ``_witness_program``, with each canonical
    state's witness values, their equality pattern and the map from each
    value to the first index holding it (``equality_pattern``)."""

    program: TermProgram
    vectors: tuple[tuple[int, ...], ...]
    patterns: tuple[tuple[int, ...], ...]
    firsts: tuple[dict[int, int], ...]


class CanonicalFacts:
    """What the checks derive from an algorithm's canonical states and
    explicit successors alone, found on first use and kept: for each state
    the first state isomorphic to it (``first``), the owners, each owner's
    automorphisms and the block order of its class stream, each witness
    compiled, with the canonical states' witness values and patterns, and an
    explicit-successor algorithm's update sets, encoded, the one form a check
    or a report reads.  None of it depends on the universe or on a rule, so
    every ``ClosureIndex`` and check over the algorithm shares it: it lives
    in ``Algorithm.cache`` (``canonical_facts``), and no registry elsewhere
    refers to it.  Sharing is sound because the algorithm and its states are
    immutable.  A failure, such as a witness with an unknown symbol or a
    successor over another carrier, is raised each time and never kept.

    Nothing derived from a rule is kept, here or anywhere: a rule's update
    sets and every trace are computed afresh for each index, since the
    rule's naturality is what the abstract-state check tests, and a kept
    update set would carry one semantics into a later check.  An explicit
    update set is the ``table_diff`` of two immutable states, so it cannot
    change.  The cost is retention, not peak: an owner's automorphisms, n!
    maps for a state with no structure, and its block order, at most n!
    orders, stay alive as long as the algorithm.  A block order is found
    only for an owner whose stream has passed the work budget, so at most
    8! = 40,320 orders, about 5 MB; the walk before it was kept built the
    same list for every stream, so the peak does not rise.
    """

    def __init__(self, algorithm: Algorithm) -> None:
        # The states, successors and vocabulary, not the algorithm, which holds this.
        self._states = algorithm.canonical_states
        self._successors = algorithm.successors
        self._vocabulary = algorithm.vocabulary
        self._automorphisms: dict[int, tuple[dict[int, int], ...]] = {}
        self._block_orders: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._witnesses: dict[frozenset[Term], CompiledWitness] = {}

    @lazy_property
    def first(self) -> tuple[int, ...]:
        """For each canonical state, the first one isomorphic to it."""
        return tuple(first_isomorphic(self._states))

    @lazy_property
    def owners(self) -> tuple[int, ...]:
        """Indices of the canonical states not isomorphic to an earlier one,
        the states that own copies."""
        return tuple(i for i, j in enumerate(self.first) if i == j)

    @lazy_property
    def explicit_encoded(self) -> tuple[frozenset[Encoded], ...]:
        """An explicit-successor algorithm's canonical update sets, encoded,
        each the ``table_diff`` of a canonical state and its successor."""
        diffs = [table_diff(state, succ) for state, succ in zip(self._states, self._successors)]
        return tuple([frozenset([u.encoded() for u in diff]) for diff in diffs])

    def automorphisms(self, i: int) -> tuple[dict[int, int], ...]:
        """Canonical state i's automorphisms' element maps, identity first."""
        if i not in self._automorphisms:
            self._automorphisms[i] = tuple(automorphisms(self._states[i]))
        return self._automorphisms[i]

    def block_order(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Owner i's coset-first orders, over its sorted nonlogical elements
        under its automorphisms, sorted by the keys of the copies they make
        on the image 3 .. n+2: the order of every block of its class
        stream (block-order lemma, ``_copies_in_key_order``)."""
        if i not in self._block_orders:
            state = self._states[i]
            sources = state.nonlogical_elements()
            keyed = []
            for order in coset_first(itertools.permutations(range(len(sources))), sources, self.automorphisms(i)):
                m = {**_LOGICAL_FIXED, **{s: 3 + p for s, p in zip(sources, order)}}
                keyed.append((renamed_key(state, m), order))
            keyed.sort()
            self._block_orders[i] = tuple([order for _, order in keyed])
        return self._block_orders[i]

    def witness(self, terms: frozenset[Term]) -> CompiledWitness:
        """``terms`` compiled, checked ground, and evaluated on every canonical state."""
        found = self._witnesses.get(terms)
        if found is None:
            program = _witness_program(self._vocabulary, terms)
            vectors = tuple([program.evaluate(s) for s in self._states])
            pairs = [equality_pattern(v) for v in vectors]
            found = self._witnesses[terms] = CompiledWitness(
                program, vectors, tuple([p for p, _ in pairs]), tuple([f for _, f in pairs])
            )
        return found


def canonical_facts(algorithm: Algorithm) -> CanonicalFacts:
    """The algorithm's ``CanonicalFacts``, made on first use and kept on it."""
    if algorithm.cache is None:
        algorithm.cache = CanonicalFacts(algorithm)
    return algorithm.cache


class ClosureIndex:
    """The closure of an algorithm for one witness and universe; every copy
    derives the witness values and update set of its canonical state, renamed.
    Construction checks, in order, that the witness is ground, that the
    universe has headroom and, if ``closed``, that the witness is subterm-closed.

    The compiled witness (``program``), the canonical states' witness values
    and patterns, the owners, their automorphisms and block orders, and an
    explicit-successor algorithm's update sets are the algorithm's
    ``CanonicalFacts``, shared with every other index over it.  A rule's
    canonical update sets, and the accessible traces, are computed at
    construction, for this index alone.  ``deltas`` holds them encoded, the
    only form a check reads.  Copies are streamed on each read of
    ``similarity_classes`` and not kept: a copy refers to its index, and the
    index holding its copies would make a cycle.
    """

    def __init__(
        self, algorithm: Algorithm, terms: Iterable[Term], universe_size: int, *, closed: bool = False
    ) -> None:
        self.algorithm = algorithm
        self.terms = frozenset(terms)
        self.universe_size = universe_size
        self.facts = canonical_facts(algorithm)
        witness = self.facts.witness(self.terms)
        _require_headroom(algorithm, universe_size)
        if closed:
            _require_subterm_closed(witness.program, self.terms)
        self.program, self.vectors, self.patterns = witness.program, witness.vectors, witness.patterns
        self.deltas = encoded_rule_deltas(algorithm) if algorithm.rule_based else self.facts.explicit_encoded
        self.traces = [_accessible_trace(d, first) for d, first in zip(self.deltas, witness.firsts)]

    @property
    def owners(self) -> tuple[int, ...]:
        """Indices of the canonical states that own copies (``CanonicalFacts``)."""
        return self.facts.owners

    def similarity_classes(self, limit: int | None = None) -> Iterator[Iterator[Copy]]:
        """The closure's copies grouped by the equality pattern of their
        witness values (their owner's), one lazy stream per pattern in pattern
        order, in key order, each cut after ``limit`` copies when given.

        The work budget comes first.  Uncut, a stream may be read whole, so it
        is budgeted as ``closure`` is.  Cut, an owner with n nonlogical
        elements is budgeted at min(P(u - 3, n), (limit + 1) n!) renamings:
        its stream is pulled once to start and once after each of its at most
        ``limit`` copies yielded, and a pull makes at most one block, of at
        most n! renamings.  The bound is valid but loose: a stream makes one
        copy per pull, and keys its at most n! orders once per algorithm
        (``_copies_in_key_order``).
        """
        states = self.algorithm.canonical_states
        count = None if limit is None else sum(
            min(math.perm(self.universe_size - 3, n), (limit + 1) * math.factorial(n))
            for n in (len(states[i].nonlogical_elements()) for i in self.owners)
        )
        _require_work_budget(self.algorithm, self.universe_size, count)
        owners: dict[tuple[int, ...], list[int]] = {}
        for i in self.owners:
            owners.setdefault(self.patterns[i], []).append(i)
        for pattern in sorted(owners):
            yield itertools.islice(_copies_in_key_order(self, owners[pattern]), limit)


def _requirement_ii_witness(index: ClosureIndex) -> dict:
    """The first copy of a similarity class whose accessible trace differs from
    the class's first copy, with the update that tells them apart; a class is
    read only up to the copy named."""
    for members in index.similarity_classes():
        base = next(members)
        base_trace = index.traces[base.canonical_index]
        for copy in members:
            trace = index.traces[copy.canonical_index]
            if trace == base_trace:
                continue
            name, arg_idx, value_idx = min(trace.symmetric_difference(base_trace))
            u_left = (name, tuple([base.vector[i] for i in arg_idx]), base.vector[value_idx])
            u_right = (name, tuple([copy.vector[i] for i in arg_idx]), copy.vector[value_idx])
            return {
                "requirement": "ii",
                "left": base.state,
                "right": copy.state,
                "update": decoded(index.algorithm.vocabulary, u_left),
                "lifted_update": decoded(index.algorithm.vocabulary, u_right),
                "in_left": u_left in base.encoded_delta,
                "in_right": u_right in copy.encoded_delta,
                "terms": index.terms,
            }
    raise AssertionError("requirement (ii) failed on the canonical states but not on the closure")


def _least_map(vector: tuple[int, ...]) -> dict[int, int]:
    """The element map of the renaming of a vector's values onto the least
    vector of its shape: logical values stay, the others are numbered from 3
    in order of first occurrence."""
    least = dict(_LOGICAL_FIXED)
    for v in vector:
        least.setdefault(v, len(least))
    return least


def _coincidence_class(index: ClosureIndex, vector: tuple[int, ...], owners: list[int]) -> Iterator[Copy]:
    """The copies whose witness values are ``vector``, streamed in key order:
    the class streams of ``owners``, the owners of its shape, filtered by
    ``vector``, each copy with the first renaming that makes it (see
    ``_copies_in_key_order``).  A failing class may be read whole, so it is
    budgeted for the whole closure."""
    _require_work_budget(index.algorithm, index.universe_size)
    return _copies_in_key_order(index, owners, vector)


def check_old_be(
    algorithm: Algorithm, terms: Iterable[Term], universe_size: int, *, index: ClosureIndex | None = None
) -> CheckReport:
    """Coincidence over the witness must force equal update sets.

    Assumes the abstract-state postulate: update sets on renamed copies are
    the transported canonical ones.  ``index`` may share the closure index
    of the same arguments with other checks.

    Decided on the owners, by placements.  Take copies X = r(ci) and
    Y = r'(cj).  Whether they coincide, and whether their update sets are
    equal, depends only on p = r'^-1 r, and at headroom (u - 3 at least
    twice the carrier) every partial injection p is realised.  Coinciding
    forces p on the witness values, vi[t] to vj[t], which is a partial
    injection exactly when the two vectors have the same shape.  If an update
    set mentions a nonlogical element outside its witness values, the
    placement that leaves it out makes the update sets differ; otherwise p
    maps the one set onto the other exactly when both, renamed so that their
    witness values become the shape's least vector, are equal.  Failure thus
    depends only on the shape, and, the closure being closed under
    permutations of {3 .. u-1}, every vector of a failing shape is a failing
    coincidence class.  The first one in the walk's order is the least vector
    of the failing shapes; only it is streamed in key order, behind the work
    budget, and read up to the first copy whose update set differs, to name
    the same copies the walk would.

    A passing check counts in closed form: ``states`` is the sum over owners
    of P(u - 3, ni) / |Aut(ci)|, and ``coincidence-classes`` the sum over the
    owners' distinct shapes of P(u - 3, k), k the shape's nonlogical values.

    A copy's update set is its first renaming's, so an automorphism of an
    owner that moves its update set (the abstract-state postulate fails)
    needs no second path.  An automorphism a of an owner c fixes every
    witness value, since val_t(a(c)) = a(val_t(c)) and a(c) = c; so if a
    moves c's update set, that set mentions a nonlogical element outside the
    witness values, and c's shape fails.  The walk fails on every vector of
    that shape too: a permutation that fixes a copy's witness values and
    sends its other elements outside its carrier (headroom leaves room)
    yields a coinciding copy that lacks an element the first update set
    mentions.  The renamings that produce one copy differ by an automorphism,
    so they agree on the witness values; ``_coincidence_class`` tries them
    in the walk's order and keeps the first, whose update set is the one the
    walk reports.  So the least failing vector and the reported pair are the
    walk's.
    """
    if index is None:
        index = ClosureIndex(algorithm, terms, universe_size)
    # least vector -> (owner, its encoded update set renamed onto the least
    # vector, or None when the set leaves the witness values)
    shapes: dict[tuple[int, ...], list[tuple[int, frozenset[Encoded] | None]]] = {}
    for i in index.owners:
        vector = index.vectors[i]
        least = _least_map(vector)
        inside = all(within(u, least) for u in index.deltas[i])
        shapes.setdefault(tuple([least[v] for v in vector]), []).append(
            (i, lift_encoded_set(least, index.deltas[i]) if inside else None)
        )
    failing = []
    for vector, members in shapes.items():
        deltas = {d for _, d in members}
        if None in deltas or len(deltas) > 1:
            failing.append(vector)
    if failing:
        vector = min(failing)
        group = _coincidence_class(index, vector, [i for i, _ in shapes[vector]])
        left = next(group)
        for right in group:  # read only up to the first whose update set differs
            if right.encoded_delta != left.encoded_delta:
                return CheckReport(
                    False,
                    "old-be",
                    "states coincide over the witness but have different update sets",
                    witness={
                        "terms": index.terms,
                        "left": left.state,
                        "right": right.state,
                        "left_delta": left.delta,
                        "right_delta": right.delta,
                    },
                )
        raise AssertionError("old BE failed on a shape but not on its least coincidence class")

    states = index.algorithm.canonical_states
    free = index.universe_size - 3
    copies = sum(
        math.perm(free, len(states[i].nonlogical_elements())) // len(index.facts.automorphisms(i))
        for i in index.owners
    )
    classes = sum(math.perm(free, len(set(vector).difference(LOGICAL_IDS))) for vector in shapes)
    return CheckReport(True, "old-be", stats={"states": copies, "coincidence-classes": classes})


def check_new_be(
    algorithm: Algorithm, terms: Iterable[Term], universe_size: int, *, index: ClosureIndex | None = None
) -> CheckReport:
    """Accessibility of all update sets plus similarity transport of membership.

    Both requirements are decided on the canonical states.  Requirement one:
    accessibility of an update set is invariant under renaming.  Requirement
    two: two states are similar exactly when the equality patterns of their
    witness values agree, and membership transport holds for a pair exactly
    when their accessible update sets have the same pattern encoding (trace);
    a copy's pattern and trace are its canonical state's.  So it fails exactly
    when two owners (canonical states not isomorphic to an earlier one, which
    at headroom have at least one copy each) share a pattern but not a trace.
    The class streams are read only to name the witness of a requirement-two
    failure that is reported.  The witness must be subterm-closed.  ``index``
    may share the closure index of the same arguments, built with ``closed``,
    with other checks.
    """
    if index is None:  # compile, closedness, then headroom
        terms = frozenset(terms)
        _require_subterm_closed(canonical_facts(algorithm).witness(terms).program, terms)
        index = ClosureIndex(algorithm, terms, universe_size)
    terms = index.terms
    witness_i: dict | None = None
    for i, delta in enumerate(index.deltas):
        accessible = frozenset(index.vectors[i])
        outside = sorted(u for u in delta if not within(u, accessible))
        if outside:
            witness_i = {
                "requirement": "i",
                "state": index.algorithm.canonical_states[i],
                "update": decoded(index.algorithm.vocabulary, outside[0]),
                "accessible": accessible,
                "terms": terms,
            }
            break

    first_trace: dict[tuple[int, ...], frozenset] = {}  # pattern -> its first owner's trace
    requirement_ii_passed = all(
        first_trace.setdefault(index.patterns[i], index.traces[i]) == index.traces[i]
        for i in index.owners
    )

    requirement_i_passed = witness_i is None
    stats = {
        "requirement-i": "pass" if requirement_i_passed else "fail",
        "requirement-ii": "pass" if requirement_ii_passed else "fail",
        "similarity-classes": len(set(index.patterns)),
    }
    if requirement_i_passed and requirement_ii_passed:
        return CheckReport(True, "new-be", stats=stats)
    # Requirement (ii)'s witness is named only when it is the one reported.
    witness = witness_i if witness_i is not None else _requirement_ii_witness(index)
    witness["requirement_i_passed"] = requirement_i_passed
    witness["requirement_ii_passed"] = requirement_ii_passed
    failed = "i" if witness_i is not None else "ii"
    return CheckReport(
        False, "new-be", f"requirement ({failed}) violated", witness=witness, stats=stats
    )


def witness_monotonicity(
    algorithm: Algorithm,
    small: Iterable[Term],
    large: Iterable[Term],
    universe_size: int,
) -> CheckReport:
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
