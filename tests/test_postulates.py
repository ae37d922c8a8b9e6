import gc
import itertools
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asmkit import postulates, transition
from asmkit import (
    Algorithm,
    AsmError,
    Assign,
    Cond,
    FALSE_TERM,
    GeneratorConfig,
    GuardError,
    HeadroomError,
    LOGICAL_IDS,
    PreconditionError,
    Renaming,
    State,
    Symbol,
    TRUE,
    TRUE_TERM,
    Term,
    UNDEF,
    UNDEF_TERM,
    Update,
    Vocabulary,
    VocabularyMismatchError,
    apply_renaming,
    apply_updates,
    canonical_delta,
    check_abstract_state,
    check_new_be,
    check_old_be,
    check_sequential_time,
    closure,
    coincides_over,
    evaluate_terms,
    generate_algorithm_suite,
    is_accessible_update,
    isomorphisms_between,
    lift_update,
    lift_update_set,
    locate,
    parse_spec,
    similarity_function,
    sorted_terms,
    step,
    subterm_closure,
    table_diff,
    update_set,
    verify_equivalence,
    witness_monotonicity,
)
from asmkit.harness import REPLAY_PAIR_LIMIT
from asmkit.kernel import TermProgram, renaming_map
from asmkit.symmetry import automorphisms
from asmkit.transition import encoded_rule_deltas, lift_encoded_set, rule_updates
from conftest import PAPER_EXAMPLE_SPEC, RING6_SPEC, mk, random_state, random_term
import reference


LOGICAL_TERMS = frozenset({TRUE_TERM, FALSE_TERM, UNDEF_TERM})


class TestSequentialTime:
    def test_flip_passes(self, flip):
        assert check_sequential_time(flip).passed

    def test_empty_state_set_fails(self, flip):
        empty = Algorithm(flip.vocabulary, (), (), successors=())
        report = check_sequential_time(empty)
        assert not report.passed
        assert "empty" in report.detail

    def test_no_initial_state_fails(self, flip):
        unflagged = Algorithm(
            flip.vocabulary,
            flip.canonical_states,
            (False, False),
            successors=flip.successors,
        )
        report = check_sequential_time(unflagged)
        assert not report.passed
        assert report.witness is not None

    def test_partial_step_fails(self):
        vocabulary = Vocabulary((Symbol("c", 0), Symbol("f", 0)))
        state = State(vocabulary, {0, 1, 2, 3})
        clashing = Assign(vocabulary.symbol("f"), (), Term(vocabulary.symbol("c")))
        guardless = Algorithm(
            vocabulary,
            (state,),
            (True,),
            program=Cond(Term(vocabulary.symbol("c")), clashing, clashing),
        )
        report = check_sequential_time(guardless)
        assert not report.passed
        assert "undefined" in report.detail


def _base_set_change(flip):
    low = flip.canonical_states[0]
    shrunk = State(flip.vocabulary, {0, 1, 2, 3}, {"f": {(): 3}})
    grown = State(flip.vocabulary, {0, 1, 2, 3, 4}, {"f": {(): 3}})
    return Algorithm(flip.vocabulary, (low, shrunk), (True, True), successors=(shrunk, grown))


def _incoherent(flip):
    """Two isomorphic canonical states whose successors do not correspond."""
    low, high = flip.canonical_states
    return Algorithm(flip.vocabulary, (low, high), (True, True), successors=(high, high))


def _moved_by_automorphism(flip):
    """One canonical state whose automorphism 3<->4 moves its successor."""
    empty = State(flip.vocabulary, {3, 4})
    successor = State(flip.vocabulary, {3, 4}, {"f": {(): 3}})
    return Algorithm(flip.vocabulary, (empty,), (True,), successors=(successor,))


def _still(flip):
    """Flip's two canonical states under the rule f := f: rule-based, so its
    copies are stepped, with flip's renaming count."""
    f = flip.vocabulary.symbol("f")
    return Algorithm(flip.vocabulary, flip.canonical_states, flip.initial, program=Assign(f, (), Term(f)))


def _incoherent_suite(count, seed, max_carrier):
    """Random explicit algorithms, one carrier size each, whose successors
    ignore isomorphism: some canonical states are renamed copies of earlier
    ones, and each successor is the state itself or a random state."""
    rng = random.Random(seed)
    vocabulary = Vocabulary((Symbol("c", 0), Symbol("g", 1)))
    algorithms = []
    for _ in range(count):
        n = rng.randint(0, max_carrier)
        elements = range(3, 3 + n)
        states = []
        for _ in range(rng.randint(1, 3)):
            if states and rng.random() < 0.4:
                shuffle = Renaming(dict(zip(elements, rng.sample(elements, n))))
                states.append(apply_renaming(rng.choice(states), shuffle))
            else:
                states.append(random_state(rng, vocabulary, n))
        successors = [s if rng.random() < 0.5 else random_state(rng, vocabulary, n) for s in states]
        algorithms.append(Algorithm(vocabulary, states, [True] * len(states), successors=successors))
    return algorithms


def _unnatural_semantics(monkeypatch, change):
    """Rule semantics, for the check's loop and the reference alike, that let
    ``change`` edit the update set of a state whose tables do not mention
    element 3, so that naturality fails on copies that move 3.  A change must
    keep the updates nontrivial and inside the carrier, as rule semantics do,
    so that the reference can apply them."""

    def semantics(rule, tables):
        updates = rule_updates(rule, tables)
        if all(3 not in (*args, v) for table in tables.values() for args, v in table.items()):
            change(tables, updates)
        return updates

    monkeypatch.setattr(transition, "rule_updates", semantics)
    monkeypatch.setattr(postulates, "rule_updates", semantics)


def _outcome(checker, algorithm, universe_size):
    try:
        report = checker(algorithm, universe_size)
    except AsmError as exc:
        return type(exc), str(exc)
    return report.passed, report.label, report.detail, repr(report.witness), report.notes


class TestAbstractState:
    def test_flip_passes_small_universe(self, flip):
        assert check_abstract_state(flip, 6).passed

    def test_work_budget_refuses_huge_universe(self, flip):
        with pytest.raises(PreconditionError, match="over the work limit of 250000"):
            check_abstract_state(_still(flip), 100000)

    def test_rule_based_carrier6_ring_over_the_work_budget(self, monkeypatch):
        algorithm, _ = _ring6()
        # nothing may be enumerated
        monkeypatch.setattr(postulates, "renaming_maps", None)
        with pytest.raises(PreconditionError, match="needs 665280 renamings"):
            check_abstract_state(algorithm, 15)

    @pytest.mark.parametrize("paper", [False, True])
    def test_explicit_algorithm_passes_at_huge_universe(self, flip, monkeypatch, paper):
        algorithm = _paper_checks()[0] if paper else flip
        # nothing may be enumerated
        monkeypatch.setattr(postulates, "renaming_maps", None)
        huge = _outcome(check_abstract_state, algorithm, 100000)
        assert huge[0] is True
        assert huge == _outcome(check_abstract_state, algorithm, 7)

    def test_explicit_failure_over_the_work_budget(self, flip, monkeypatch):
        # A base-set change needs no renaming.  A failing renaming is named
        # among the n! onto 3 .. n+2, at any universe, so only a failing
        # state with n! over the limit is refused.
        for fixture in (_base_set_change, _incoherent):
            algorithm = fixture(flip)
            huge = _outcome(check_abstract_state, algorithm, 100000)
            assert huge[0] is False
            assert huge == _outcome(check_abstract_state, algorithm, 7)
        # Nine elements, empty tables, and f set to the largest: every
        # permutation is an automorphism, and most move the successor.
        f = flip.vocabulary.symbol("f")
        nine = State(flip.vocabulary, range(3, 12))
        algorithm = Algorithm(
            flip.vocabulary, (nine,), (True,), successors=(apply_updates(nine, [Update(f, (), 11)]),)
        )
        monkeypatch.setattr(postulates, "renaming_maps", None)  # nothing may be enumerated
        for universe in (12, 100000):
            with pytest.raises(PreconditionError, match="needs 362880 renamings"):
                check_abstract_state(algorithm, universe)

    def test_base_set_change_fails(self, flip):
        report = check_abstract_state(_base_set_change(flip), 7)
        assert not report.passed
        low = flip.canonical_states[0]
        assert report.witness == {
            "state": low,
            "successor": State(flip.vocabulary, {0, 1, 2, 3}, {"f": {(): 3}}),
        }

    def test_incoherent_isomorphic_canonicals_fail(self, flip):
        report = check_abstract_state(_incoherent(flip), 7)
        assert not report.passed
        low, high = flip.canonical_states
        assert report.detail == "step does not commute with a renaming of canonical state 1"
        assert report.witness == {
            "state": high,
            "renaming": Renaming({3: 3, 4: 4}),
            "expected": high,
            "actual": low,
        }

    def test_automorphism_moving_the_successor_fails(self, flip):
        report = check_abstract_state(_moved_by_automorphism(flip), 5)
        assert not report.passed
        assert report.detail == "step does not commute with a renaming of canonical state 0"
        witness = report.witness
        assert witness["state"] == State(flip.vocabulary, {3, 4})
        assert repr(witness["renaming"]) == "Renaming(3->4, 4->3)"
        assert witness["expected"] == State(flip.vocabulary, {3, 4}, {"f": {(): 4}})
        assert witness["actual"] == State(flip.vocabulary, {3, 4}, {"f": {(): 3}})

    def test_universe_too_small(self, flip):
        with pytest.raises(HeadroomError):
            check_abstract_state(flip, 4)

    def test_matches_reference_on_default_suite(self, default_suite, default_config):
        universe = default_config.universe_size
        for instance in default_suite:
            expected = _outcome(reference.abstract_state, instance.algorithm, universe)
            assert _outcome(check_abstract_state, instance.algorithm, universe) == expected

    @pytest.mark.parametrize(
        "fixture, universe",
        [
            (_base_set_change, 7),
            (_incoherent, 7),
            (_incoherent, 9),
            (_moved_by_automorphism, 5),
            (_moved_by_automorphism, 8),
            (lambda flip: flip, 4),
        ],
    )
    def test_matches_reference_on_failing_fixtures(self, flip, fixture, universe):
        algorithm = fixture(flip)
        expected = _outcome(reference.abstract_state, algorithm, universe)
        assert expected[0] is not True
        assert _outcome(check_abstract_state, algorithm, universe) == expected

    def test_steps_each_distinct_copy_once(self, default_suite, default_config, monkeypatch):
        universe = default_config.universe_size
        calls = []

        def evaluated(rule, tables):
            # the copy's tables, as they appear in its key
            calls.append(tuple((name, tuple(sorted(tables[name].items()))) for name in sorted(tables)))
            return rule_updates(rule, tables)

        def stepped(algorithm, state):
            calls.append(state.key())
            return step(algorithm, state)

        # Every D is read, encoded, by one encoded_rule_deltas call, and no
        # successor is built or diffed.
        deltas, rebuilt = [], []

        def delta_read(algorithm):
            deltas.append(algorithm)
            return encoded_rule_deltas(algorithm)

        def spy(name, function):
            def spied(*args):
                rebuilt.append(name)
                return function(*args)
            monkeypatch.setattr(transition, name, spied)

        spy("apply_updates", apply_updates)
        spy("table_diff", table_diff)
        monkeypatch.setattr(postulates, "rule_updates", evaluated)
        monkeypatch.setattr(postulates, "step", stepped)
        monkeypatch.setattr(postulates, "encoded_rule_deltas", delta_read)
        backends, evaluations, copies = set(), 0, 0
        for instance in default_suite[:20]:
            algorithm = instance.algorithm
            backends.add(algorithm.rule_based)
            calls.clear()
            deltas.clear()
            rebuilt.clear()
            assert check_abstract_state(algorithm, universe).passed
            assert rebuilt == []
            if not algorithm.rule_based:  # decided on the canonical states
                assert calls == deltas == []
                continue
            assert deltas == [algorithm]
            expected = []
            for i, state in enumerate(algorithm.canonical_states):
                expected += list(reference.support_copies(algorithm, i, universe))
                maps = reference.renaming_maps(state.base, universe)
                copies += len({reference.copy_key(state, m) for m in maps})
            assert calls == expected
            evaluations += len(calls)
        assert backends == {True, False}
        assert evaluations <= copies

    @pytest.mark.parametrize("change", ["add", "value"])
    def test_unnatural_rule_semantics_fail_as_the_reference_does(self, monkeypatch, change):
        # f = 3, g = 4 under g := f.  The first copy whose tables do not
        # mention 3 renames 3 -> 4, 4 -> 5; there the semantics either add
        # f := undef or turn g := 4 into g := undef.  The second keeps the
        # update set's locations, so a comparison of locations alone passes it.
        f, g = Symbol("f", 0), Symbol("g", 0)
        vocabulary = Vocabulary((f, g))
        state = State(vocabulary, {3, 4}, {"f": {(): 3}, "g": {(): 4}})
        algorithm = Algorithm(vocabulary, (state,), (True,), program=Assign(g, (), Term(f)))
        location = ("f", ()) if change == "add" else ("g", ())
        _unnatural_semantics(monkeypatch, lambda tables, updates: updates.__setitem__(location, UNDEF))
        expected = _outcome(reference.abstract_state, algorithm, 6)
        assert _outcome(check_abstract_state, algorithm, 6) == expected
        report = check_abstract_state(algorithm, 6)
        assert not report.passed
        witness = report.witness
        assert witness["renaming"] == Renaming({3: 4, 4: 5})
        copy = apply_renaming(state, witness["renaming"])
        assert witness["expected"] == State(vocabulary, {4, 5}, {"f": {(): 4}, "g": {(): 4}})
        moved = table_diff(copy, witness["actual"])
        kept = table_diff(copy, witness["expected"])
        locations = [sorted((u.symbol.name, u.args) for u in d) for d in (moved, kept)]
        assert (locations[0] == locations[1]) == (change == "value")

    def test_first_failing_map_need_not_be_coset_first(self, monkeypatch):
        # h swaps 3 and 4, so Aut = {id, swap}.  Under "f := least key of h"
        # the canonical update set is f := 3, which the swap moves.  Map
        # (4, 3) is (3, 4) after the swap, so it is not coset-first, and it
        # fails because the swap moves D.  It is the first map that fails,
        # since its copy is the canonical state.
        f, h = Symbol("f", 0), Symbol("h", 1)
        vocabulary = Vocabulary((f, h))
        state = State(vocabulary, {3, 4}, {"h": {(3,): 4, (4,): 3}})
        algorithm = Algorithm(vocabulary, (state,), (True,), program=Assign(f, (), Term(f)))
        swap = Renaming({3: 4, 4: 3})
        assert list(isomorphisms_between(state, state)) == [Renaming({3: 3, 4: 4}), swap]
        evaluated = []

        def least_key(rule, tables):
            return {("f", ()): min(tables["h"])[0]}

        def counted(rule, tables):
            evaluated.append(tables)
            return least_key(rule, tables)

        monkeypatch.setattr(transition, "rule_updates", least_key)
        monkeypatch.setattr(postulates, "rule_updates", counted)
        for universe in (5, 8):
            expected = _outcome(reference.abstract_state, algorithm, universe)
            assert expected[0] is False
            evaluated.clear()
            assert _outcome(check_abstract_state, algorithm, universe) == expected
            assert check_abstract_state(algorithm, universe).witness["renaming"] == swap
            # The swap fixes the tables and moves D, so the maps are walked
            # without a quotient: (3, x) and (4, 3), once in each of the two checks.
            assert len(evaluated) == 2 * (universe - 3)

    @pytest.mark.parametrize("universe", [7, 8, 9])
    def test_symmetric_support_is_evaluated_once_per_copy(self, monkeypatch, universe):
        # r is the complete relation on 3..6, so every permutation of the
        # support fixes the tables: one evaluation per distinct copy, not one
        # per support map.
        c, r = Symbol("c", 0), Symbol("r", 2)
        vocabulary = Vocabulary((c, r))
        elements = range(3, 7)
        complete = {(x, y): TRUE for x in elements for y in elements if x != y}
        state = State(vocabulary, elements, {"r": complete})
        algorithm = Algorithm(vocabulary, (state,), (True,), program=Assign(c, (), TRUE_TERM))
        assert len(list(isomorphisms_between(state, state))) == 24
        evaluated = []

        def counted(rule, tables):
            evaluated.append(tables)
            return rule_updates(rule, tables)

        monkeypatch.setattr(postulates, "rule_updates", counted)
        assert _outcome(check_abstract_state, algorithm, universe) == _outcome(
            reference.abstract_state, algorithm, universe
        )
        copies = {reference.copy_key(state, m) for m in reference.renaming_maps(state.base, universe)}
        assert len(evaluated) == len(copies) == math.comb(universe - 3, 4)

    @pytest.mark.parametrize("universe", [7, 8, 9])
    @pytest.mark.parametrize(
        "tables", [{}, {"g": {(4,): 5}}, {"g": {(4,): 5, (5,): 4}}], ids=["empty", "one", "swap"]
    )
    @pytest.mark.parametrize("guarded", [False, True])
    def test_literal_update_outside_the_tables_matches_the_reference(
        self, monkeypatch, universe, tables, guarded
    ):
        # The semantics write c := 3 while no table mentions 3, so D mentions
        # an element the tables do not, and, when guarded, raise on tables
        # that mention 6: an error the reference meets at the first such map,
        # unless an earlier map fails.
        c, g = Symbol("c", 0), Symbol("g", 1)
        vocabulary = Vocabulary((c, g))
        state = State(vocabulary, {3, 4, 5}, tables)
        algorithm = Algorithm(vocabulary, (state,), (True,), program=Assign(c, (), Term(c)))

        def literal(tables, updates):
            if guarded and any(6 in (*args, v) for table in tables.values() for args, v in table.items()):
                raise GuardError("the tables mention 6")
            updates[("c", ())] = 3

        _unnatural_semantics(monkeypatch, literal)
        expected = _outcome(reference.abstract_state, algorithm, universe)
        assert expected[0] is not True
        assert _outcome(check_abstract_state, algorithm, universe) == expected

    def test_unnatural_rule_semantics_match_the_reference_on_default_suite(
        self, default_suite, default_config, monkeypatch
    ):
        def undefine_least(tables, updates):
            entries = sorted((name, args) for name, table in tables.items() for args in table)
            if entries:
                updates[entries[0]] = UNDEF

        _unnatural_semantics(monkeypatch, undefine_least)
        universe = default_config.universe_size
        verdicts = []
        for instance in default_suite:
            if instance.algorithm.rule_based:
                expected = _outcome(reference.abstract_state, instance.algorithm, universe)
                assert _outcome(check_abstract_state, instance.algorithm, universe) == expected
                verdicts.append(expected[0])
        assert verdicts.count(False) > 20 and True in verdicts

    def test_locate_reaches_every_isomorphism(self):
        # The lemma behind the explicit backend: at the tightest universe, the
        # maps r^-1 rho over all renamings r, rho being the isomorphism
        # ``locate`` finds for the copy r(ci), are all isomorphisms cj -> ci.
        checked = 0
        for algorithm in _incoherent_suite(60, seed=3, max_carrier=4):
            states = algorithm.canonical_states
            universe = algorithm.max_nonlogical_carrier() + 3
            for i, state in enumerate(states):
                j = next(
                    j for j in range(i + 1)
                    if next(isomorphisms_between(states[j], state), None) is not None
                )
                reached = set()
                for r in reference.renamings(state.base, universe):
                    index, rho = locate(algorithm, apply_renaming(state, r))
                    assert index == j
                    back = r.inverse()
                    reached.add(Renaming({e: back[rho[e]] for e in rho.domain}))
                assert reached == set(isomorphisms_between(states[j], state))
                checked += j != i or len(reached) > 1
        assert checked > 10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_random_incoherent_algorithms(self, seed):
        verdicts = set()
        for algorithm in _incoherent_suite(50, seed, max_carrier=3):
            tight = algorithm.max_nonlogical_carrier() + 3
            for universe in (tight, postulates.required_headroom(algorithm)):
                expected = _outcome(reference.abstract_state, algorithm, universe)
                assert _outcome(check_abstract_state, algorithm, universe) == expected
                verdicts.add(expected[0])
            # A failure, too, is named at any universe (the order-pattern lemma).
            assert _outcome(check_abstract_state, algorithm, 100000) == _outcome(
                check_abstract_state, algorithm, tight
            )
        assert verdicts == {True, False}

    def test_matches_reference_on_carrier5_suite(self):
        # Instance 2 is a rule-based carrier-5 algorithm, whose path this
        # reduction leaves alone; at its headroom both walks take seconds.
        suite = generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=3))
        assert suite[2].algorithm.max_nonlogical_carrier() == 5
        for instance in suite:
            algorithm = instance.algorithm
            universes = [algorithm.max_nonlogical_carrier() + 3]
            if not algorithm.rule_based:
                universes.append(postulates.required_headroom(algorithm))
            for universe in universes:
                expected = _outcome(reference.abstract_state, algorithm, universe)
                assert _outcome(check_abstract_state, algorithm, universe) == expected


def _restless():
    """One canonical state whose automorphism 3<->4 moves its update set: it
    steps by writing g(3) = 4, so a copy's update set depends on which of its
    two renamings comes first."""
    vocabulary = Vocabulary((Symbol("g", 1),))
    state = State(vocabulary, {3, 4})
    successor = State(vocabulary, {3, 4}, {"g": {(3,): 4}})
    return Algorithm(vocabulary, (state,), (True,), successors=(successor,))


def _named_and_unnamed():
    """Two owners of one witness shape: owner 0 names each of its four
    elements by a constant and keeps its tables; owner 1 names four of its
    five elements the same way and writes the fifth into g."""
    vocabulary = Vocabulary(tuple(Symbol(name, 0) for name in ("c1", "c2", "c3", "c4", "g")))
    named = {f"c{k}": {(): 2 + k} for k in range(1, 5)}
    small = State(vocabulary, {3, 4, 5, 6}, named)
    large = State(vocabulary, {3, 4, 5, 6, 7}, named)
    written = State(vocabulary, {3, 4, 5, 6, 7}, {**named, "g": {(): 7}})
    algorithm = Algorithm(vocabulary, (small, large), (True, True), successors=(small, written))
    return algorithm, frozenset(Term(vocabulary.symbol(f"c{k}")) for k in range(1, 5))


def _ring6():
    doc = parse_spec(RING6_SPEC.read_text(encoding="utf-8"))
    return doc.algorithm(), doc.witnesses["W"]


def _restless_suite(count, seed=0):
    """Random explicit algorithms, carrier at most 3, whose successors ignore
    isomorphism, each with a random witness under which an automorphism of an
    owner moves that owner's update set."""
    rng = random.Random(seed)
    vocabulary = Vocabulary((Symbol("c", 0), Symbol("g", 1)))
    cases = []
    while len(cases) < count:
        carriers = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        states = [random_state(rng, vocabulary, n) for n in carriers]
        successors = [random_state(rng, vocabulary, n) for n in carriers]
        algorithm = Algorithm(vocabulary, states, [True] * len(states), successors=successors)
        terms = subterm_closure(random_term(rng, vocabulary, 2) for _ in range(2))
        if rng.random() < 0.5:
            terms |= LOGICAL_TERMS
        index = postulates.ClosureIndex(algorithm, terms, postulates.required_headroom(algorithm))
        if any(
            lift_encoded_set(a, index.deltas[i]) != index.deltas[i]
            for i in index.owners
            for a in isomorphisms_between(states[i], states[i])
        ):
            cases.append((algorithm, terms))
    return cases


def _spy(monkeypatch, name):
    """Records the arguments of every call to ``postulates``' ``name``."""
    calls, function = [], getattr(postulates, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(postulates, name, spy)
    return calls


class TestOldBE:
    def test_work_budget_refuses_huge_universe(self, flip):
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        with pytest.raises(PreconditionError, match="over the work limit of 250000"):
            check_old_be(flip, witness_terms, 100000)

    def test_work_budget_counts_renamings_before_enumerating(self, flip, monkeypatch):
        # Two canonical states with two nonlogical elements: 2 * P(u - 3, 2) renamings.
        monkeypatch.setattr(postulates, "MAX_RENAMINGS", 2 * 8 * 7)
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        assert not check_old_be(flip, witness_terms, 11).passed
        assert check_abstract_state(_still(flip), 11).passed
        # nothing may be enumerated or streamed
        monkeypatch.setattr(postulates, "renaming_maps", None)
        monkeypatch.setattr(postulates, "_copies_in_key_order", None)
        with pytest.raises(PreconditionError, match="needs 144 renamings"):
            check_old_be(flip, witness_terms, 12)
        with pytest.raises(PreconditionError, match="needs 144 renamings"):
            check_abstract_state(_still(flip), 12)

    def test_flip_fails_with_fresh_element_pair(self, flip):
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        report = check_old_be(flip, witness_terms, 7)
        assert not report.passed
        left, right = report.witness["left"], report.witness["right"]
        assert coincides_over(left, right, witness_terms)
        assert update_set(flip, left) != update_set(flip, right)
        assert len(left.base | right.base) == len(left.base) + 1

    def test_constant_algorithm_passes_empty_witness(self, simple_vocab):
        state = State(simple_vocab, {0, 1, 2, 3})
        constant = Algorithm(simple_vocab, (state,), (True,), successors=(state,))
        assert check_old_be(constant, frozenset(), 9).passed

    def test_chasing_rule_passes_with_its_term_closure(self):
        vocabulary = Vocabulary((Symbol("f", 0), Symbol("g", 1)))
        f, g = vocabulary.symbol("f"), vocabulary.symbol("g")
        rule = Assign(f, (), mk(g, Term(f)))
        states = (
            State(vocabulary, {0, 1, 2, 3, 4}, {"f": {(): 3}, "g": {(3,): 4, (4,): 3}}),
        )
        algorithm = Algorithm(vocabulary, states, (True,), program=rule)
        witness_terms = subterm_closure({mk(g, Term(f))})
        assert check_old_be(algorithm, witness_terms, 7).passed

    def test_headroom_error(self, flip):
        with pytest.raises(HeadroomError):
            check_old_be(flip, frozenset(), 6)

    @pytest.mark.parametrize("universe", [11, 12])
    def test_matches_closure_walk_on_default_suite(self, default_suite, universe):
        verdicts = {True: 0, False: 0}
        for instance in default_suite:
            for terms in instance.witnesses:
                expected = _report(reference.old_be(instance.algorithm, terms, universe))
                assert _report(check_old_be(instance.algorithm, terms, universe)) == expected
                verdicts[expected[0]] += 1
        assert verdicts == {True: 266, False: 104}

    def test_matches_closure_walk_on_carrier5_suite(self):
        # Instance 2 is the suite's first carrier-5 algorithm; the walk costs
        # about 0.3 s per carrier-5 check, so the suite stops after it.
        suite = generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=3))
        assert suite[2].algorithm.max_nonlogical_carrier() == 5
        verdicts = []
        for instance in suite:
            algorithm = instance.algorithm
            universe = postulates.required_headroom(algorithm)
            for terms in instance.witnesses:
                expected = _report(reference.old_be(algorithm, terms, universe))
                assert _report(check_old_be(algorithm, terms, universe)) == expected
                verdicts.append(expected[0])
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("universe", [7, 11, 45])
    def test_matches_closure_walk_on_paper_spec(self, universe):
        algorithm, witnesses = _paper_checks()
        for terms in witnesses:
            expected = _report(reference.old_be(algorithm, terms, universe))
            assert _report(check_old_be(algorithm, terms, universe)) == expected

    @pytest.mark.parametrize("universe", [7, 9])
    def test_automorphism_moving_the_update_set_needs_no_closure(self, monkeypatch, universe):
        algorithm = _restless()
        assert not check_abstract_state(algorithm, universe).passed
        calls = _spy(monkeypatch, "closure")
        report = check_old_be(algorithm, LOGICAL_TERMS, universe)
        assert calls == []
        assert not report.passed
        assert _report(reference.old_be(algorithm, LOGICAL_TERMS, universe)) == _report(report)

    def test_matches_closure_walk_when_an_automorphism_moves_the_update_set(self):
        for algorithm, terms in _restless_suite(30):
            headroom = postulates.required_headroom(algorithm)
            for universe in (headroom, headroom + 1):
                expected = _report(reference.old_be(algorithm, terms, universe))
                assert _report(check_old_be(algorithm, terms, universe)) == expected
                assert not expected[0]

    def test_failure_report_runs_the_rule_only_for_its_index(self, default_suite, default_config, monkeypatch):
        # A rule-based check evaluates the rule once per canonical state, for
        # its index's encoded update sets; a failure's report decodes those
        # and evaluates it no more.
        inside, calls = [], []
        rule_updates, encoded = transition.rule_updates, postulates.encoded_rule_deltas

        def spy_rule(*args):
            calls.append(bool(inside))
            return rule_updates(*args)

        def spy_deltas(algorithm):
            inside.append(algorithm)
            try:
                return encoded(algorithm)
            finally:
                inside.pop()

        monkeypatch.setattr(transition, "rule_updates", spy_rule)
        monkeypatch.setattr(postulates, "rule_updates", spy_rule)
        monkeypatch.setattr(postulates, "encoded_rule_deltas", spy_deltas)
        failing = 0
        for instance in default_suite:
            algorithm = instance.algorithm
            if not algorithm.rule_based:
                continue
            for terms in instance.witnesses:
                calls.clear()
                report = check_old_be(algorithm, terms, default_config.universe_size)
                if not report.passed:
                    failing += 1
                    assert report.witness["left_delta"] != report.witness["right_delta"]
                assert calls == [True] * len(algorithm.canonical_states)
        assert failing == 21

    def test_closure_not_enumerated(self, default_suite, default_config, monkeypatch):
        calls = _spy(monkeypatch, "closure")
        passed = 0
        for instance in default_suite:
            for terms in instance.witnesses:
                passed += check_old_be(instance.algorithm, terms, default_config.universe_size).passed
        assert calls == []
        assert passed == 266

    def test_warm_failure_naming_keys_and_searches_nothing(self, default_suite, default_config, monkeypatch):
        # Once an algorithm's block orders are kept, naming a failing
        # coincidence class builds no block key and searches no group, and
        # the merge keys only copies of the class: each owner's stream is
        # filtered before the merge.  Block keys and merge keys are both
        # ``renamed_key`` calls, so a block key would add to the count.
        universe = default_config.universe_size
        merged = _spy(monkeypatch, "renamed_key")
        groups = _spy(monkeypatch, "automorphisms")
        named = keyed = 0
        for instance in default_suite:
            algorithm = instance.algorithm
            for terms in instance.witnesses:
                warm = check_old_be(algorithm, terms, universe)
                if warm.passed:
                    continue
                for calls in (groups, merged):
                    calls.clear()
                report = check_old_be(algorithm, terms, universe)
                assert _report_fields(report) == _report_fields(warm)
                assert groups == []
                index = postulates.ClosureIndex(algorithm, terms, universe)
                vector = tuple(index.program.evaluate(report.witness["left"]))
                assert _keyed_vectors(index, merged) <= {vector}
                named += 1
                keyed += len(merged)
        assert (named, keyed) == (104, 196)

    def test_a_class_stream_tries_only_images_holding_its_values(self, monkeypatch):
        # The least class's first copy is owner 0's only one, on 3 .. 6;
        # owner 1's copies, whose update sets differ from it, all come later.
        # Once the merge has yielded it, owner 0's stream must end after its
        # one block that holds 3 .. 6, not walk the P(10, 4) renamings of
        # the rest of its closure.
        algorithm, terms = _named_and_unnamed()
        expected = _report(reference.old_be(algorithm, terms, 13))
        made, make = [], postulates.Copy

        def counted(i, mapping, index):
            made.append(i)
            return make(i, mapping, index)

        monkeypatch.setattr(postulates, "Copy", counted)
        assert _report(check_old_be(algorithm, terms, 13)) == expected
        assert made.count(0) == math.factorial(4)

    @pytest.mark.parametrize(
        "universe, states, classes",
        [(15, 665280, 132), (100000, math.perm(99997, 6), math.perm(99997, 2))],
    )
    def test_carrier6_ring_passes_both_checks(self, universe, states, classes):
        algorithm, terms = _ring6()
        old = check_old_be(algorithm, terms, universe)
        assert old.passed
        assert old.notes == (f"states={states}", f"coincidence-classes={classes}")
        new = check_new_be(algorithm, terms, universe)
        assert new.passed
        assert new.notes == ("requirement-i=pass", "requirement-ii=pass", "similarity-classes=1")

    @pytest.mark.parametrize("universe", [15, 100000])
    def test_carrier6_ring_replay_answers(self, universe):
        # The replay reads at most 25 copies of the one similarity class, so
        # it is budgeted for 26 carrier blocks of 6! renamings, not P(u - 3, 6).
        algorithm, terms = _ring6()
        report = verify_equivalence(algorithm, terms, universe)
        assert report.passed
        assert report.notes == (
            "old-be=pass",
            "new-be=pass",
            "replayed-chains=24",
            "case1=0",
            "case2=24",
            "direct=0",
            "coincident-pairs=23",
        )

    def test_carrier6_ring_replay_is_budgeted_for_the_renamings_it_can_try(self, monkeypatch):
        # One owner with six nonlogical elements: min(P(12, 6), 26 * 6!) = 18720.
        algorithm, terms = _ring6()
        monkeypatch.setattr(postulates, "MAX_RENAMINGS", 18720)
        assert verify_equivalence(algorithm, terms, 15).passed
        monkeypatch.setattr(postulates, "MAX_RENAMINGS", 18719)
        monkeypatch.setattr(postulates, "_copies_in_key_order", None)  # nothing may be streamed
        with pytest.raises(PreconditionError, match="needs 18720 renamings"):
            verify_equivalence(algorithm, terms, 15)

    def test_old_be_witness_naming_keeps_the_whole_closure_budget(self):
        algorithm, witnesses = _paper_checks()
        with pytest.raises(PreconditionError, match="over the work limit of 250000"):
            check_old_be(algorithm, witnesses[1], 100000)


def _report(report):
    return report.passed, report.label, report.detail, repr(report.witness), report.notes


def _paper_checks():
    doc = parse_spec(PAPER_EXAMPLE_SPEC.read_text(encoding="utf-8"))
    return doc.algorithm(), [doc.witnesses["T0"], doc.witnesses["T1"]]


def _shadowed(swap):
    """Two isomorphic canonical states with different accessible traces: the
    second is the first renamed 3<->4 but steps to itself.  Its copies are the
    first one's, so it owns none and its trace is never seen on the closure."""
    vocabulary = Vocabulary((Symbol("c", 0), Symbol("d", 0), Symbol("f", 0)))
    x1 = State(vocabulary, {3, 4}, {"c": {(): 3}, "d": {(): 4}, "f": {(): 3}})
    x1_next = State(vocabulary, {3, 4}, {"c": {(): 3}, "d": {(): 4}, "f": {(): 4}})
    x2 = apply_renaming(x1, Renaming({3: 4, 4: 3}))
    states, successors = ((x2, x1), (x2, x1_next)) if swap else ((x1, x2), (x1_next, x2))
    algorithm = Algorithm(vocabulary, states, (True, True), successors=successors)
    terms = LOGICAL_TERMS | {Term(vocabulary.symbol(n)) for n in "cdf"}
    return algorithm, terms


class TestNewBE:
    def test_flip_fails_requirement_i(self, flip):
        f = flip.vocabulary.symbol("f")
        witness_terms = LOGICAL_TERMS | {Term(f)}
        report = check_new_be(flip, witness_terms, 7)
        assert not report.passed
        assert report.witness["requirement"] == "i"
        assert report.witness["update"] == Update(f, (), 4)
        assert report.witness["requirement_ii_passed"] is True
        # witness re-checks through the primitives
        state = report.witness["state"]
        assert report.witness["update"] in update_set(flip, state)
        assert not is_accessible_update(state, witness_terms, report.witness["update"])

    def test_constant_algorithm_passes(self, simple_vocab):
        state = State(simple_vocab, {0, 1, 2, 3})
        constant = Algorithm(simple_vocab, (state,), (True,), successors=(state,))
        assert check_new_be(constant, LOGICAL_TERMS, 9).passed

    def test_rejects_unclosed_witness(self, flip):
        f = flip.vocabulary.symbol("f")
        unclosed = {mk(flip.vocabulary.symbol("eq"), Term(f), Term(f))}
        with pytest.raises(PreconditionError):
            check_new_be(flip, unclosed, 7)

    def test_known_divergence_without_logical_constants(self):
        # Writing a logical element is invisible to coincidence but fails
        # accessibility, so a witness without the logical constant terms can
        # pass one check and fail the other.
        vocabulary = Vocabulary((Symbol("f", 0),))
        f = vocabulary.symbol("f")
        rule = Assign(f, (), TRUE_TERM)
        state = State(vocabulary, {0, 1, 2, 3}, {"f": {(): 3}})
        algorithm = Algorithm(vocabulary, (state,), (True,), program=rule)
        bare = frozenset({Term(f)})
        assert check_old_be(algorithm, bare, 5).passed
        assert not check_new_be(algorithm, bare, 5).passed
        rescued = bare | LOGICAL_TERMS
        assert check_old_be(algorithm, rescued, 5).passed
        assert check_new_be(algorithm, rescued, 5).passed

    def test_matches_closure_walk_on_default_suite(self, default_suite, default_config):
        universe = default_config.universe_size
        outcomes = {}
        for instance in default_suite:
            for terms in instance.witnesses:
                expected = _report(reference.new_be(instance.algorithm, terms, universe))
                assert _report(check_new_be(instance.algorithm, terms, universe)) == expected
                requirements = expected[4][:2]
                outcomes[requirements] = outcomes.get(requirements, 0) + 1
        assert outcomes == {
            ("requirement-i=pass", "requirement-ii=pass"): 266,
            ("requirement-i=fail", "requirement-ii=pass"): 64,
            ("requirement-i=pass", "requirement-ii=fail"): 21,
            ("requirement-i=fail", "requirement-ii=fail"): 19,
        }

    @pytest.mark.parametrize("universe", [7, 11])
    def test_matches_closure_walk_on_paper_spec(self, universe):
        algorithm, witnesses = _paper_checks()
        for terms in witnesses:
            expected = _report(reference.new_be(algorithm, terms, universe))
            assert _report(check_new_be(algorithm, terms, universe)) == expected

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("universe", [7, 9])
    def test_isomorphic_state_without_copies_is_ignored(self, swap, universe):
        algorithm, terms = _shadowed(swap)
        first, second = (1, 0) if swap else (0, 1)
        moved = lift_update_set(Renaming({3: 4, 4: 3}), canonical_delta(algorithm, first))
        assert canonical_delta(algorithm, second) != moved
        assert not check_abstract_state(algorithm, universe).passed
        report = check_new_be(algorithm, terms, universe)
        assert report.passed
        assert report.notes == (
            "requirement-i=pass",
            "requirement-ii=pass",
            "similarity-classes=1",
        )
        assert reference.pairwise_new_be(algorithm, terms, universe) is True
        assert _report(reference.new_be(algorithm, terms, universe)) == _report(report)

    def test_closure_enumerated_only_for_a_requirement_ii_witness(
        self, default_suite, default_config, monkeypatch
    ):
        calls = _spy(monkeypatch, "closure")
        algorithm, witnesses = _paper_checks()
        for universe in (7, 20, 45):
            for terms in witnesses:
                check_new_be(algorithm, terms, universe)
        assert calls == []
        universe = default_config.universe_size
        named = 0
        for instance in default_suite:
            for terms in instance.witnesses:
                calls.clear()
                report = check_new_be(instance.algorithm, terms, universe)
                assert calls == []
                if report.notes[:2] == ("requirement-i=pass", "requirement-ii=fail"):
                    assert report.witness["requirement"] == "ii"
                    named += 1
        assert named == 21


class TestBruteForceCrossValidation:
    def _tiny_suite(self):
        cfg = GeneratorConfig(
            max_canonical_states=2,
            max_carrier_size=2,
            max_nonlogical_symbols=2,
            max_arity=1,
            max_term_depth=1,
            seed=42,
            instances=8,
        )
        return cfg, generate_algorithm_suite(cfg)

    def test_old_be_matches_pairwise_enumeration(self):
        cfg, suite = self._tiny_suite()
        compared = 0
        for instance in suite:
            for terms in instance.witnesses:
                expected = reference.pairwise_old_be(instance.algorithm, terms, cfg.universe_size)
                actual = check_old_be(instance.algorithm, terms, cfg.universe_size).passed
                assert actual == expected, (instance.index, sorted(map(str, terms)))
                compared += 1
        assert compared >= 20

    def test_new_be_matches_pairwise_enumeration(self):
        cfg, suite = self._tiny_suite()
        compared = 0
        for instance in suite:
            for terms in instance.witnesses:
                if len(terms) > 6:
                    continue  # keep the exhaustive oracle affordable
                expected = reference.pairwise_new_be(instance.algorithm, terms, cfg.universe_size)
                actual = check_new_be(instance.algorithm, terms, cfg.universe_size).passed
                assert actual == expected, (instance.index, sorted(map(str, terms)))
                compared += 1
        assert compared >= 8

    def test_flip_against_both_oracles(self, flip):
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        assert reference.pairwise_old_be(flip, witness_terms, 7) is False
        assert reference.pairwise_new_be(flip, witness_terms, 7) is False


class TestVerdictInvariance:
    def test_renaming_canonical_states_preserves_verdicts(self, flip):
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        renaming = Renaming({3: 5, 4: 6})
        moved = Algorithm(
            flip.vocabulary,
            tuple(apply_renaming(s, renaming) for s in flip.canonical_states),
            flip.initial,
            successors=tuple(apply_renaming(s, renaming) for s in flip.successors),
        )
        for checker in (check_old_be, check_new_be):
            assert checker(flip, witness_terms, 9).passed == checker(
                moved, witness_terms, 9
            ).passed

    def test_requirement_ii_symmetric(self, remark):
        x, y, witness, _ = remark
        forward = similarity_function(x, y, witness)
        backward = similarity_function(y, x, witness)
        f = x.vocabulary.symbol("f")
        for u in (Update(f, (3,), 4), Update(f, (4,), 3)):
            assert lift_update(
                backward, lift_update(forward, u)
            ) == u


    def test_witness_reprs_do_not_follow_the_hash_seed(self):
        # The witnesses hold frozensets of terms and of updates, which
        # iterate in hash order: no hash may read the salted string hash.
        source = str(Path(postulates.__file__).resolve().parent.parent)
        printed = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", _WITNESS_REPRS, str(PAPER_EXAMPLE_SPEC)],
                capture_output=True, text=True, env=env, check=True,
            )
            printed.add(done.stdout)
        assert len(printed) == 1
        reprs = printed.pop().splitlines()
        assert len(reprs) == 3 and all("frozenset({" in r for r in reprs)


# Prints the witnesses of the paper spec's failing old-BE and new-BE checks
# of T1 at u=7, and of a default-suite old-BE failure with ten updates and
# 28 terms, one repr per line.
_WITNESS_REPRS = """
import sys
from pathlib import Path
from asmkit import GeneratorConfig, check_new_be, check_old_be, generate_algorithm_suite, parse_spec
doc = parse_spec(Path(sys.argv[1]).read_text(encoding="utf-8"))
instance = generate_algorithm_suite(GeneratorConfig())[76]
for check, algorithm, terms, universe in (
    (check_old_be, doc.algorithm(), doc.witnesses["T1"], 7),
    (check_new_be, doc.algorithm(), doc.witnesses["T1"], 7),
    (check_old_be, instance.algorithm, instance.witnesses[2], 11),
):
    report = check(algorithm, terms, universe)
    assert not report.passed
    print(repr(report.witness))
"""


class TestWitnessMonotonicity:
    def test_reflexive_inclusion(self, flip):
        witness_terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        assert witness_monotonicity(flip, witness_terms, witness_terms, 7).passed

    def test_passing_witness_extended(self):
        vocabulary = Vocabulary((Symbol("f", 0), Symbol("g", 1)))
        f, g = vocabulary.symbol("f"), vocabulary.symbol("g")
        rule = Assign(f, (), mk(g, Term(f)))
        state = State(vocabulary, {0, 1, 2, 3, 4}, {"f": {(): 3}, "g": {(3,): 4}})
        algorithm = Algorithm(vocabulary, (state,), (True,), program=rule)
        small = subterm_closure({mk(g, Term(f))}) | LOGICAL_TERMS
        large = small | subterm_closure({mk(g, mk(g, Term(f)))})
        assert check_old_be(algorithm, small, 7).passed
        assert witness_monotonicity(algorithm, small, large, 7).passed

    def test_vacuous_on_failing_witness(self, flip):
        small = LOGICAL_TERMS
        large = small | {Term(flip.vocabulary.symbol("f"))}
        report = witness_monotonicity(flip, small, large, 7)
        assert report.passed
        assert any("vacuous" in note for note in report.notes)

    def test_rejects_non_subset(self, flip):
        f = Term(flip.vocabulary.symbol("f"))
        with pytest.raises(PreconditionError):
            witness_monotonicity(flip, {f}, frozenset(), 7)


def _stream_cases(default_suite):
    """Every default-suite instance at u=11 and u=12, and the first three
    carrier-5 suite instances at headroom, each with its first two witnesses:
    the logical constant terms and every ground term up to the suite's depth."""
    for universe in (11, 12):
        for instance in default_suite:
            yield instance.algorithm, instance.witnesses[:2], universe
    for instance in generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=3)):
        algorithm = instance.algorithm
        yield algorithm, instance.witnesses[:2], postulates.required_headroom(algorithm)


def _triples(copies):
    return [(c.canonical_index, c.renaming, c.key) for c in copies]


def _shape(vector):
    least = postulates._least_map(vector)
    return tuple(least[v] for v in vector)


def _path4():
    """One carrier-4 state with no automorphism besides the identity."""
    vocabulary = Vocabulary((Symbol("s", 1),))
    state = State(vocabulary, {3, 4, 5, 6}, {"s": {(3,): 4, (4,): 5, (5,): 6}})
    return Algorithm(vocabulary, (state,), (True,), successors=(state,))


def _stream_blocks(index, owner, values):
    """An owner's coincidence class, its stream filtered by its witness
    values renamed by ``values``, as blocks of (key, map, its order of
    positions) with their images, read lazily."""
    sources = reference.free_sources(index.algorithm.canonical_states[owner], values)
    vector = tuple(values.get(v, v) for v in index.vectors[owner])
    stream = postulates._copies_in_key_order(index, [owner], vector)
    for carrier, copies in itertools.groupby(stream, key=lambda c: c.key[0]):
        image = tuple(sorted(e for e in carrier if e not in LOGICAL_IDS and e not in values.values()))
        yield image, [(c.key, c.mapping, tuple(image.index(c.mapping[s]) for s in sources)) for c in copies]


def _keyed_vectors(index, calls):
    """The witness values of every copy keyed in ``calls``."""
    states = index.algorithm.canonical_states
    return {
        tuple(renaming[v] for v in index.vectors[next(i for i, s in enumerate(states) if s is state)])
        for state, renaming in calls
    }


def _walked(copies):
    return [(c.canonical_index, c.mapping, c.key) for c in copies]


class TestClosureIndex:
    def test_streams_match_the_per_block_sorted_walk(self, default_suite):
        # Every similarity stream, each merging the owners of one pattern,
        # must walk the copies, maps and keys the per-block sorted walk does:
        # uncut on the default suite at u=11, and elsewhere cut after 150
        # copies, past the replay's REPLAY_PAIR_LIMIT + 1 and across blocks
        # of every carrier here.  So must each owner's coincidence class,
        # its stream filtered by a vector, against the walk with the
        # vector's values fixed: the least vector of the owner's shape and
        # that vector with its k-th nonlogical value moved from 3 + k to
        # 4 + 2k, so that free targets lie below, between and above them.
        cases = [(i.algorithm, i.witnesses, u) for u in (11, 12, 20) for i in default_suite]
        for instance in generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=30)):
            headroom = postulates.required_headroom(instance.algorithm)
            cases += [(instance.algorithm, instance.witnesses, u) for u in (headroom, headroom + 3)]
        compared = set()
        counts = {"unfixed": 0, "merged": 0, "fixed": 0}
        for algorithm, witnesses, universe in cases:
            for terms in witnesses:
                index = postulates.ClosureIndex(algorithm, terms, universe)
                groups = {}
                for i in index.owners:
                    groups.setdefault(index.patterns[i], []).append(i)
                fixed = [{i: {} for i in group} for _, group in sorted(groups.items())]
                for i in index.owners:
                    least = postulates._least_map(index.vectors[i])
                    values = {v: least[v] for v in index.vectors[i] if v not in LOGICAL_IDS}
                    if values:
                        fixed.append({i: values})
                        fixed.append({i: {v: 2 * w - 2 for v, w in values.items()}})
                for owners in fixed:
                    case = (id(algorithm), universe, tuple((i, tuple(v.items())) for i, v in owners.items()))
                    if case in compared:
                        continue
                    compared.add(case)
                    kind = "fixed" if any(owners.values()) else "merged" if len(owners) > 1 else "unfixed"
                    counts[kind] += 1
                    limit = None if universe == 11 else 150
                    if kind == "fixed":
                        ((i, values),) = owners.items()
                        vector = tuple(values.get(v, v) for v in index.vectors[i])
                        stream = postulates._coincidence_class(index, vector, [i])
                    else:
                        stream = postulates._copies_in_key_order(index, list(owners))
                    stream = itertools.islice(stream, limit)
                    walk = reference.block_walk(algorithm, universe, owners)
                    assert _walked(stream) == list(itertools.islice(walk, limit))
        assert counts == {"unfixed": 531, "merged": 275, "fixed": 604}
        # The witness term c has the value 3; fixing it to 5 leaves 5 above
        # the first block, {3, 4}, and below the block {6, 7}, where the two
        # orders of the free elements 4 and 5 compare the other way, so the
        # walk sorts every block, and the filtered stream must agree.
        c = Term(_COSET_VOCABULARY.symbol("c"))
        state = State(_COSET_VOCABULARY, {3, 4, 5}, {"c": {(): 3}, "g": {(5,): 0, (3,): 4}})
        algorithm = Algorithm(_COSET_VOCABULARY, (state,), (True,), successors=(state,))
        index = postulates.ClosureIndex(algorithm, LOGICAL_TERMS | {c}, 9)
        vector = tuple(5 if v == 3 else v for v in index.vectors[0])
        assert 3 in index.vectors[0]
        walk = list(reference.block_walk(algorithm, 9, {0: {3: 5}}))
        assert _walked(postulates._coincidence_class(index, vector, [0])) == walk

    def test_learned_blocks_equal_full_blocks(self, default_suite, monkeypatch):
        # Every owner stream of the similarity classes and of the coincidence
        # classes (the least vector of each owner's shape, as ``check_old_be``
        # streams it), on the default suite at u=11 and the carrier-5 suite at
        # headroom, each on a freshly built algorithm.  Each block, with its
        # keys and first maps, must be the block keyed over all n!
        # permutations of the sources its vector leaves free, and it must
        # hold n!/|Stab| copies, Stab the owner's automorphisms that fix the
        # vector's values.  No block builds a key: the owner's block order,
        # its coset-first orders under all its automorphisms, is keyed once,
        # by the owner's first stream.  Block orders and copies are both keyed
        # by ``renamed_key``, and the blocks below read each copy's key once.
        keys = _spy(monkeypatch, "renamed_key")
        cases = [(instance, 11) for instance in default_suite]
        for instance in generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=6)):
            cases.append((instance, postulates.required_headroom(instance.algorithm)))
        streams = learned = 0
        for instance, universe in cases:
            algorithm = _fresh(instance.algorithm)
            keyed = set()
            fixings = {}
            for terms in instance.witnesses:
                index = postulates.ClosureIndex(algorithm, terms, universe)
                for i in index.owners:
                    least = postulates._least_map(index.vectors[i])
                    values = {v: least[v] for v in index.vectors[i] if v not in LOGICAL_IDS}
                    fixings.setdefault((i, tuple(sorted(values.items()))), (index, i, values))
            for index, i, values in fixings.values():
                state = algorithm.canonical_states[i]
                keys.clear()
                blocks = list(_stream_blocks(index, i, values))
                assert blocks, "every owner has a copy at headroom"
                for image, block in blocks:
                    assert block == reference.full_block(state, values, image)
                n = len(reference.free_sources(state, values))
                per_block = len(blocks[0][1])
                group = list(isomorphisms_between(state, state))
                stab = [a for a in group if all(a[v] == v for v in values)]
                assert per_block == math.factorial(n) // len(stab)
                orders = math.factorial(len(state.nonlogical_elements())) // len(group)
                assert len(keys) == (0 if i in keyed else orders) + sum(len(block) for _, block in blocks)
                keyed.add(i)
                streams += 1
                learned += per_block < math.factorial(n)
        assert (streams, learned) == (280, 99)  # 99 streams key fewer than n! orders a block

    def test_copies_do_not_keep_their_index_alive(self, flip):
        # Copies refer to their index, so an index that kept its copies would
        # leave every check's closure to the cyclic collector.
        terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        gc.disable()
        try:
            index = postulates.ClosureIndex(flip, terms, 9)
            copies = closure(flip, 9, index=index)
            classes = [list(members) for members in index.similarity_classes()]
            for copy in copies + [c for members in classes for c in members]:
                assert (copy.vector, copy.delta, copy.state) is not None
            refs = [weakref.ref(copies[0]), weakref.ref(classes[0][0]), weakref.ref(index)]
            del index, copies, classes, copy
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_keys_and_lazy_states_match_built_states(self, default_suite, default_config):
        universe = default_config.universe_size
        for instance in default_suite:
            algorithm = instance.algorithm
            copies = closure(algorithm, universe)
            assert _triples(copies) == reference.closure(algorithm, universe)
            for copy in copies:
                assert copy.state.key() == copy.key

    def test_class_streams_match_the_sorted_closure(self, default_suite, monkeypatch):
        # As (canonical_index, renaming, key).  Under the logical constant
        # terms every owner has one pattern, so the one similarity stream
        # merges them all and must be the sorted closure.  Under every ground
        # term, the coincidence streams of the least and greatest vectors that
        # hold a nonlogical value must be the sorted closure restricted to
        # them, read from the owners of their shape or from every owner, and
        # the merge must key no copy outside the class.  ``closure`` must be
        # the reference closure, in key order.
        # Every stream map is a renaming's element map, as ``Copy`` claims.
        keyed = _spy(monkeypatch, "renamed_key")
        fixed = 0
        for algorithm, (floor, full), universe in _stream_cases(default_suite):
            copies = reference.closure(algorithm, universe)
            assert _triples(closure(algorithm, universe)) == copies
            index = postulates.ClosureIndex(algorithm, floor, universe)
            classes = [list(members) for members in index.similarity_classes()]
            assert all(renaming_map(copy.mapping) == copy.mapping for members in classes for copy in members)
            assert [_triples(members) for members in classes] == [copies]
            assert [_triples(members) for members in index.similarity_classes(25)] == [copies[:25]]
            index = postulates.ClosureIndex(algorithm, full, universe)
            canonical = [evaluate_terms(state, sorted_terms(full)) for state in algorithm.canonical_states]
            vectors = {}
            for i, r, key in copies:
                vectors.setdefault(tuple(r[v] for v in canonical[i]), []).append((i, r, key))
            fixing = [vector for vector in vectors if set(vector).difference(LOGICAL_IDS)]
            for vector in (min(fixing), max(fixing)) if fixing else ():
                owners = [i for i in index.owners if _shape(index.vectors[i]) == _shape(vector)]
                for members in (owners, index.owners):
                    keyed.clear()
                    stream = list(postulates._coincidence_class(index, vector, members))
                    assert all(renaming_map(copy.mapping) == copy.mapping for copy in stream)
                    assert _triples(stream) == vectors[vector]
                    assert _keyed_vectors(index, keyed) == {vector}
                fixed += 1
        assert fixed == 270

    def test_a_cut_stream_builds_few_keys(self, monkeypatch):
        # Two carrier blocks of 4! renamings give 25 copies, of P(17, 4) =
        # 57120.  The 4! orders are keyed once, on the first index; a second
        # index over the same algorithm keys none.
        algorithm = _path4()
        calls = _spy(monkeypatch, "renamed_key")
        for built in (24, 0):
            calls.clear()
            (members,) = postulates.ClosureIndex(algorithm, LOGICAL_TERMS, 20).similarity_classes(25)
            assert len(list(members)) == 25
            assert len(calls) == built

    def test_replay_tries_at_most_its_budgeted_renamings(
        self, default_suite, default_config, monkeypatch
    ):
        # An owner with n nonlogical elements tries at most
        # min(P(u - 3, n), (REPLAY_PAIR_LIMIT + 2) n!) renamings, each made
        # into a ``Copy`` by its stream.
        universe = default_config.universe_size
        calls = _spy(monkeypatch, "Copy")
        replayed = 0
        for instance in default_suite:
            algorithm = instance.algorithm
            for terms in instance.witnesses:
                calls.clear()
                report = verify_equivalence(algorithm, terms, universe)
                if "new-be=pass" not in report.notes or "old-be=pass" not in report.notes:
                    continue
                sizes = [
                    len(algorithm.canonical_states[i].nonlogical_elements())
                    for i in postulates.ClosureIndex(algorithm, terms, universe).owners
                ]
                assert len(calls) <= sum(
                    min(math.perm(universe - 3, n), (REPLAY_PAIR_LIMIT + 2) * math.factorial(n))
                    for n in sizes
                )
                replayed += 1
        assert replayed == 266

    def test_vectors_and_deltas_match_primitives(self):
        cfg, suite = TestBruteForceCrossValidation()._tiny_suite()
        for instance in suite:
            algorithm = instance.algorithm
            for terms in instance.witnesses:
                index = postulates.ClosureIndex(algorithm, terms, cfg.universe_size)
                order = sorted_terms(terms)
                for copy in closure(algorithm, cfg.universe_size, index=index):
                    assert copy.vector == tuple(evaluate_terms(copy.state, order))
                    assert copy.delta == update_set(algorithm, copy.state)

    def test_verify_equivalence_enumerates_closure_once(self, default_suite, default_config,
                                                        monkeypatch):
        # Never: the replay and new-BE's requirement-(ii) witness read class streams.
        calls = _spy(monkeypatch, "closure")
        replayed = named = 0
        for instance in default_suite[:10]:
            for terms in instance.witnesses:
                new = check_new_be(instance.algorithm, terms, default_config.universe_size)
                calls.clear()
                report = verify_equivalence(
                    instance.algorithm, terms, default_config.universe_size
                )
                assert calls == []
                if report.stats["old-be"] == report.stats["new-be"] == "pass":
                    replayed += report.stats["replayed-chains"]
                elif not new.passed and new.witness["requirement"] == "ii":
                    named += 1
        assert replayed > 0
        assert named > 0

    def test_owners_match_pairwise_isomorphism(self, default_suite, default_config):
        cases = [(i.algorithm, terms) for i in default_suite for terms in i.witnesses[:1]]
        cases += [_shadowed(False), _shadowed(True)]
        for algorithm, terms in cases:
            states = algorithm.canonical_states
            expected = tuple(
                i
                for i, state in enumerate(states)
                if all(next(isomorphisms_between(states[j], state), None) is None for j in range(i))
            )
            index = postulates.ClosureIndex(algorithm, terms, default_config.universe_size)
            assert index.owners == expected

    @pytest.mark.parametrize(
        "terms, universe, expected",
        [
            # unknown symbol, not subterm-closed, universe too small
            ("foreign", 3, (VocabularyMismatchError,) * 3),
            # not subterm-closed, universe too small
            ("unclosed", 3, (HeadroomError, PreconditionError, HeadroomError)),
            # not subterm-closed, universe large enough
            ("unclosed", 7, (None, PreconditionError, PreconditionError)),
            # universe below the headroom but holding the carrier
            ("closed", 6, (HeadroomError,) * 3),
        ],
    )
    def test_error_precedence(self, flip, monkeypatch, terms, universe, expected):
        f = Term(flip.vocabulary.symbol("f"))
        eq = flip.vocabulary.symbol("eq")
        witnesses = {
            "foreign": {mk(eq, f, f), Term(Symbol("zz", 0))},
            "unclosed": {mk(eq, f, f)},
            "closed": LOGICAL_TERMS | {f},
        }
        # a check that got as far as streaming copies would raise TypeError
        monkeypatch.setattr(postulates, "_copies_in_key_order", None)
        for checker, error in zip((check_old_be, check_new_be, verify_equivalence), expected):
            if error is None:
                continue
            with pytest.raises(error):
                checker(flip, witnesses[terms], universe)

    def test_unknown_symbol_names_the_first_failing_term(self, flip, monkeypatch):
        # The compile finds the unknown symbol; the message names the first
        # term, in text order (the compile's), that uses one.  A failed
        # compile is never kept: each check compiles, and fails, again.
        f = Term(flip.vocabulary.symbol("f"))
        eq = flip.vocabulary.symbol("eq")
        foreign = [Term(Symbol(name, 0)) for name in ("zz", "yy", "xx", "ww")]
        terms = frozenset({f, mk(eq, f, f), *foreign, *(mk(eq, f, z) for z in foreign)})
        compiles = _spy(monkeypatch, "TermProgram")
        for checker in (check_old_be, check_new_be, verify_equivalence):
            with pytest.raises(VocabularyMismatchError) as caught:
                checker(flip, terms, 3)
            assert str(caught.value) == "witness term eq(f, ww) uses unknown symbol ww/0"
        assert len(compiles) == 3

    def test_unknown_symbol_message_does_not_follow_the_hash_seed(self):
        # Eight unknown constants q .. x: a frozenset of them iterates v
        # first, under every seed; the message names q, the first in text order.
        source = str(Path(postulates.__file__).resolve().parent.parent)
        messages = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", _UNKNOWN_SYMBOLS], capture_output=True, text=True, env=env, check=True
            )
            messages.add(done.stdout)
        assert messages == {"witness term q uses unknown symbol q/0\n"}


def _fresh(algorithm):
    """A newly built copy of ``algorithm``, sharing its immutable parts but
    not what the checks keep on it."""
    return Algorithm(
        algorithm.vocabulary,
        algorithm.canonical_states,
        algorithm.initial,
        program=algorithm.program,
        successors=algorithm.successors,
    )


def _report_fields(report):
    return report.passed, report.detail, report.stats, report.notes, repr(report.witness)


class TestCanonicalFacts:
    """What the checks keep on an algorithm: its owners, their groups and
    its compiled witnesses, never anything the rule decides."""

    def test_checks_across_universes_search_and_compile_once(self, default_suite, monkeypatch):
        instance = next(
            i for i in default_suite
            if len(postulates.ClosureIndex(i.algorithm, i.witnesses[1], 11).owners) > 1
            and check_old_be(i.algorithm, i.witnesses[1], 11).passed
        )
        algorithm, terms = _fresh(instance.algorithm), instance.witnesses[1]
        searches, groups = _spy(monkeypatch, "first_isomorphic"), _spy(monkeypatch, "automorphisms")
        compiles = _spy(monkeypatch, "TermProgram")
        headroom = postulates.required_headroom(algorithm)
        for universe in (headroom, headroom + 1, headroom + 2):
            assert check_old_be(algorithm, terms, universe).passed
        owners = postulates.ClosureIndex(algorithm, terms, headroom).owners
        assert len(searches) == 1
        assert groups == [(algorithm.canonical_states[i],) for i in owners]
        assert len(compiles) == 1

    def test_warm_reports_equal_fresh_reports(self, default_suite, default_config):
        universe = default_config.universe_size
        for instance in default_suite[::2]:
            warm = instance.algorithm
            for terms in instance.witnesses:
                for checker in (check_old_be, check_new_be, verify_equivalence):
                    checker(warm, terms, universe)
                    expected = _report_fields(checker(_fresh(warm), terms, universe))
                    assert _report_fields(checker(warm, terms, universe)) == expected

    def test_facts_are_freed_with_their_algorithm(self, flip):
        # The facts refer to the states, not to the algorithm that holds
        # them, so no cycle keeps either alive for the cyclic collector.
        algorithm = _fresh(flip)
        terms = LOGICAL_TERMS | {Term(flip.vocabulary.symbol("f"))}
        gc.disable()
        try:
            assert not check_old_be(algorithm, terms, 7).passed
            assert check_abstract_state(algorithm, 7).passed
            facts = weakref.ref(algorithm.cache)
            del algorithm
            assert facts() is None
        finally:
            gc.enable()

    def test_explicit_update_sets_are_found_once(self, default_suite, monkeypatch):
        # An explicit-successor update set is the table_diff of two immutable
        # states: found once per algorithm, across old-BE, new-BE and
        # verify_equivalence at three universes.
        diffs = []

        def spy(before, after):
            diffs.append((before, after))
            return table_diff(before, after)

        monkeypatch.setattr(postulates, "table_diff", spy)
        monkeypatch.setattr(transition, "table_diff", spy)
        explicit = [i for i in default_suite if not i.algorithm.rule_based][:10]
        for instance in explicit:
            algorithm = _fresh(instance.algorithm)
            diffs.clear()
            headroom = postulates.required_headroom(algorithm)
            for universe in (headroom, headroom + 1, headroom + 2):
                for terms in instance.witnesses:
                    for checker in (check_old_be, check_new_be, verify_equivalence):
                        checker(algorithm, terms, universe)
            assert diffs == list(zip(algorithm.canonical_states, algorithm.successors))
        assert len(explicit) == 10

    def test_update_sets_are_not_kept(self, default_suite, default_config, monkeypatch):
        # With no updates anywhere both checks pass; a kept update set would
        # still fail them after the semantics changed.
        universe = default_config.universe_size
        instance = next(
            i for i in default_suite
            if i.algorithm.rule_based and not check_new_be(i.algorithm, i.witnesses[0], universe).passed
        )
        algorithm, terms = instance.algorithm, instance.witnesses[0]
        assert any(postulates.ClosureIndex(algorithm, terms, universe).deltas)
        monkeypatch.setattr(transition, "rule_updates", lambda rule, tables: {})
        assert not any(postulates.ClosureIndex(algorithm, terms, universe).deltas)
        assert check_new_be(algorithm, terms, universe).passed
        assert check_old_be(algorithm, terms, universe).passed


# Prints the message of old-BE on flip with a witness of eight unknown constants.
_UNKNOWN_SYMBOLS = """
from asmkit import Symbol, Term, VocabularyMismatchError, check_old_be, flip_algorithm
try:
    check_old_be(flip_algorithm(), frozenset(Term(Symbol(c, 0)) for c in "qrstuvwx"), 7)
except VocabularyMismatchError as exc:
    print(exc)
"""


_COSET_VOCABULARY = Vocabulary((Symbol("c", 0), Symbol("g", 1), Symbol("r", 2)))


@st.composite
def _states_with_universes(draw):
    """A state of carrier at most 5 over c/0, g/1 and r/2, and a universe
    from its headroom up."""
    n = draw(st.integers(0, 5))
    base = [*LOGICAL_IDS, *range(3, 3 + n)]
    tables = {
        symbol.name: draw(
            st.dictionaries(
                st.tuples(*[st.sampled_from(base)] * symbol.arity), st.sampled_from(base), max_size=3
            )
        )
        for symbol in _COSET_VOCABULARY.nonlogical
    }
    state = State(_COSET_VOCABULARY, base, tables)
    return state, 2 * n + 3 + draw(st.integers(0, 2))


def _least_mentioned(rule, tables):
    """Unnatural semantics: c := the least nonlogical element the tables
    mention, when that changes c; an automorphism that moves that element
    moves the update set."""
    updates = rule_updates(rule, tables)
    mentioned = [e for table in tables.values() for args, value in table.items() for e in (*args, value)]
    least = min((e for e in mentioned if e not in LOGICAL_IDS), default=None)
    if least is not None and tables.get("c", {}).get((), UNDEF) != least:
        updates[("c", ())] = least
    return updates


def _natural_rules():
    c, g, r = (_COSET_VOCABULARY.symbol(name) for name in "cgr")
    return (
        Assign(c, (), Term(c)),
        Assign(c, (), mk(g, Term(c))),
        Assign(g, (Term(c),), mk(r, Term(c), Term(c))),
        Assign(r, (Term(c), mk(g, Term(c))), Term(c)),
    )


_NATURAL_RULES = _natural_rules()


_PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestCosetProperties:
    @_PROPERTY_SETTINGS
    @given(_states_with_universes())
    def test_learned_orders_are_the_key_dedup_orders(self, case):
        # The first three blocks of the owner stream: each block's orders are
        # those that first make each key when all n! permutations are keyed.
        # A coincidence class filters this stream by witness values; the
        # classes are checked against the reference closure by
        # ``test_class_streams_match_the_sorted_closure``.
        state, universe = case
        algorithm = Algorithm(_COSET_VOCABULARY, (state,), (True,), successors=(state,))
        index = postulates.ClosureIndex(algorithm, LOGICAL_TERMS, universe)
        for image, block in itertools.islice(_stream_blocks(index, 0, {}), 3):
            assert block == reference.full_block(state, {}, image)

    @_PROPERTY_SETTINGS
    @given(_states_with_universes(), st.sampled_from(_NATURAL_RULES))
    def test_passing_checks_evaluate_at_most_once_per_copy(self, case, rule):
        # From the tightest universe up to two above it, a passing check
        # evaluates the rule no more often than there are distinct copies.
        state, universe = case
        n = len(state.nonlogical_elements())
        universe -= n
        algorithm = Algorithm(_COSET_VOCABULARY, (state,), (True,), program=rule)
        with pytest.MonkeyPatch.context() as patch:
            renamed = _spy(patch, "rename_tables")
            assert check_abstract_state(algorithm, universe).passed
        copies = {reference.copy_key(state, m) for m in reference.renaming_maps(state.base, universe)}
        assert len(renamed) <= len(copies)

    @_PROPERTY_SETTINGS
    @given(_states_with_universes(), st.booleans())
    def test_coset_first_maps_are_the_renamed_key_dedup(self, case, natural):
        # On the tightest universe or the next, the check renames exactly the
        # first support map of each distinct renaming of the tables, in
        # lexicographic order over the support, while every renaming passes;
        # under unnatural semantics its outcome is the every-map reference's.
        state, _ = case
        universe = len(state.nonlogical_elements()) + 3 + natural
        c = _COSET_VOCABULARY.symbol("c")
        algorithm = Algorithm(_COSET_VOCABULARY, (state,), (True,), program=Assign(c, (), Term(c)))
        with pytest.MonkeyPatch.context() as patch:
            if not natural:
                patch.setattr(transition, "rule_updates", _least_mentioned)
                patch.setattr(postulates, "rule_updates", _least_mentioned)
            expected = _outcome(reference.abstract_state, algorithm, universe)
            renamed = _spy(patch, "rename_tables")
            assert _outcome(check_abstract_state, algorithm, universe) == expected
            if expected[0] is True:
                assert [m for _, m in renamed] == list(reference.support_copies(algorithm, 0, universe).values())
