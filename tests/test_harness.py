import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from asmkit import (
    Algorithm,
    AsmError,
    CaseHypothesisError,
    FALSE_TERM,
    GeneratorConfig,
    HeadroomError,
    NotSimilarError,
    Renaming,
    SimilarityFunction,
    State,
    Symbol,
    TRUE_TERM,
    Term,
    UNDEF_TERM,
    Update,
    Vocabulary,
    VocabularyMismatchError,
    apply_renaming,
    check_abstract_state,
    check_new_be,
    check_old_be,
    check_sequential_time,
    coincides_over,
    construct_case1_state,
    construct_disjoint_copy,
    evaluate_set,
    flip_algorithm,
    generate_algorithm_suite,
    generate_similar_pairs,
    ground_terms_up_to,
    is_subterm_closed,
    lift_update,
    similarity_function,
    similarity_of_vectors,
    sorted_terms,
    subterm_closure,
    t_similar,
    verify_equivalence,
)
from asmkit import harness
from asmkit.kernel import LOGICAL_IDS, rename_tables, renaming_map
from asmkit.postulates import ClosureIndex, Copy
from asmkit.transition import lift_encoded
import reference

LOGICAL_TERMS = frozenset({TRUE_TERM, FALSE_TERM, UNDEF_TERM})
_COMPOSE = harness._compose


def _constants_vocab(count: int) -> Vocabulary:
    return Vocabulary(tuple(Symbol(f"c{i}", 0) for i in range(count)))


def _naming_state(vocabulary: Vocabulary, values: dict[str, int]) -> State:
    base = set(values.values()) | {0, 1, 2}
    return State(vocabulary, base, {name: {(): v} for name, v in values.items()})


class TestCase1Construction:
    def test_replacement_reproduces_target(self):
        vocabulary = _constants_vocab(2)
        x = _naming_state(vocabulary, {"c0": 3, "c1": 4})
        y = apply_renaming(x, Renaming({3: 5, 4: 6}))
        terms = frozenset({Term(vocabulary.symbol("c0")), Term(vocabulary.symbol("c1"))})
        replaced, xi = construct_case1_state(x, y, terms)
        assert replaced == y
        assert xi[3] == 5 and xi[4] == 6

    def test_coincidence_postcondition(self):
        rng = random.Random(17)
        vocabulary = _constants_vocab(3)
        for _ in range(20):
            values = {f"c{i}": 3 + i for i in range(3)}
            x = _naming_state(vocabulary, values)
            targets = rng.sample(range(10, 20), k=3)
            y = apply_renaming(x, Renaming(dict(zip((3, 4, 5), targets))))
            terms = frozenset(Term(s) for s in vocabulary.nonlogical)
            replaced, _ = construct_case1_state(x, y, terms)
            assert coincides_over(replaced, y, terms)

    def test_overlapping_nonlogical_values_rejected(self):
        vocabulary = _constants_vocab(2)
        x = _naming_state(vocabulary, {"c0": 3, "c1": 4})
        y = _naming_state(vocabulary, {"c0": 4, "c1": 5})
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        assert t_similar(x, y, terms)
        with pytest.raises(CaseHypothesisError):
            construct_case1_state(x, y, terms)

    # y's c0 shares x's value 3, or not: either way the vocabularies are
    # checked before any witness value
    @pytest.mark.parametrize("y_value", [4, 3])
    def test_states_of_different_vocabularies_rejected(self, y_value):
        vocabulary = _constants_vocab(1)
        x = _naming_state(vocabulary, {"c0": 3})
        y = _naming_state(_constants_vocab(2), {"c0": y_value})
        with pytest.raises(VocabularyMismatchError, match="^states have different vocabularies$"):
            construct_case1_state(x, y, frozenset({Term(vocabulary.symbol("c0"))}))

    def test_collision_with_untouched_carrier_rejected(self):
        # y's witness value sits inside x's carrier without being a witness
        # value of x, so identity-elsewhere replacement cannot be injective
        vocabulary = _constants_vocab(1)
        x = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 3}})
        y = State(vocabulary, {0, 1, 2, 4, 5}, {"c0": {(): 4}})
        terms = frozenset({Term(vocabulary.symbol("c0"))})
        with pytest.raises(CaseHypothesisError):
            construct_case1_state(x, y, terms)


class TestDisjointCopy:
    def test_already_disjoint_is_identity(self):
        vocabulary = _constants_vocab(1)
        x = _naming_state(vocabulary, {"c0": 3})
        y = _naming_state(vocabulary, {"c0": 5})
        copy, eta = construct_disjoint_copy(x, y, frozenset({Term(vocabulary.symbol("c0"))}), 9)
        assert copy == x
        assert eta.is_identity

    def test_remark_pair_moves_only_shared_elements(self, remark):
        # x's elements 3 and 5 are witness values of y, and move to the least
        # ids outside y's values and x's carrier; 4 stays
        x, y, witness, _ = remark
        copy, eta = construct_disjoint_copy(x, y, witness, 9)
        assert [(k, v) for k, v in eta.items() if k != v] == [(3, 6), (5, 7)]
        values = evaluate_set(copy, witness)
        assert values.isdisjoint(evaluate_set(y, witness))

    def test_generated_pairs_fit_at_twice_the_carrier(self):
        # the fit lemma: at u = 2n + 3, n the larger nonlogical carrier, the
        # copy always fits, and misses y's nonlogical witness values
        moved = 0
        for x, y, terms in generate_similar_pairs(GeneratorConfig(), 200):
            n = max(len(x.nonlogical_elements()), len(y.nonlogical_elements()))
            copy, eta = construct_disjoint_copy(x, y, terms, 2 * n + 3)
            assert evaluate_set(copy, terms).isdisjoint(evaluate_set(y, terms).difference(LOGICAL_IDS))
            moved += not eta.is_identity
        assert moved > 0

    def test_partial_overlap_fits_in_headroom(self):
        vocabulary = _constants_vocab(4)
        x = _naming_state(vocabulary, {f"c{i}": 3 + i for i in range(4)})
        y = _naming_state(vocabulary, {f"c{i}": 6 + i for i in range(4)})
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        copy, _ = construct_disjoint_copy(x, y, terms, 11)
        assert evaluate_set(copy, terms).isdisjoint(evaluate_set(y, terms))

    def test_states_of_different_vocabularies_rejected(self):
        vocabulary = _constants_vocab(1)
        x = _naming_state(vocabulary, {"c0": 3})
        y = _naming_state(_constants_vocab(2), {"c0": 3})
        with pytest.raises(VocabularyMismatchError, match="^states have different vocabularies$"):
            construct_disjoint_copy(x, y, frozenset({Term(vocabulary.symbol("c0"))}), 9)

    def test_insufficient_headroom(self):
        vocabulary = _constants_vocab(2)
        x = _naming_state(vocabulary, {"c0": 3, "c1": 4})
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        with pytest.raises(HeadroomError):
            construct_disjoint_copy(x, x, terms, 5)

    def test_composed_with_replacement_matches_similarity_lift(self, remark):
        x, y, witness, _ = remark
        sigma = similarity_function(x, y, witness)
        copy, eta = construct_disjoint_copy(x, y, witness, 11)
        replaced, xi = construct_case1_state(copy, y, witness)
        assert coincides_over(replaced, y, witness)
        f = x.vocabulary.symbol("f")
        u = Update(f, (3,), 4)
        assert lift_update(xi, lift_update(eta, u)) == lift_update(sigma, u)


class TestVerifyEquivalence:
    def test_notes_render_stats_on_default_suite(self, default_suite):
        reports = []
        for instance in default_suite:
            algorithm = instance.algorithm
            reports.append(check_sequential_time(algorithm))
            for terms in instance.witnesses:
                reports.append(check_old_be(algorithm, terms, 11))
                reports.append(check_new_be(algorithm, terms, 11))
                reports.append(verify_equivalence(algorithm, terms, 11))
        for report in reports:
            assert all(type(v) is int or v in ("pass", "fail") for v in report.stats.values()), report
            assert report.notes == tuple(f"{k}={v}" for k, v in report.stats.items()), report
            assert dataclasses.replace(report, passed=not report.passed).notes == report.notes
        assert all(report.stats for report in reports if report.passed)

    def test_flip_agreement_on_failure(self, flip):
        terms = subterm_closure({Term(flip.vocabulary.symbol("f"))})
        report = verify_equivalence(flip, terms, 7)
        assert report.passed
        assert "old-be=fail" in report.notes
        assert "new-be=fail" in report.notes

    def test_constant_algorithm_replays_chains(self, simple_vocab):
        state = State(simple_vocab, {0, 1, 2, 3, 4}, {"a": {(): 3}})
        constant = Algorithm(simple_vocab, (state,), (True,), successors=(state,))
        report = verify_equivalence(constant, LOGICAL_TERMS | {Term(simple_vocab.symbol("a"))}, 11)
        assert report.passed
        assert "old-be=pass" in report.notes
        assert any(note.startswith("replayed-chains=") for note in report.notes)

    def test_moving_dynamics_replays_transport(self):
        # successor moves a named constant to a named target, so update sets
        # are nonempty and accessible: the replay must carry them across
        moving, vocabulary = _moving_algorithm()
        terms = LOGICAL_TERMS | {Term(s) for s in vocabulary.nonlogical}
        report = verify_equivalence(moving, terms, 7)
        assert report.passed
        assert report.stats["replayed-chains"] > 0
        assert report.stats["case2"] > 0

    def test_witness_without_logical_values_takes_case1(self):
        # a logical constant term has the same value in every state, so only
        # a witness without one can give a pair disjoint value sets
        moving, vocabulary = _moving_algorithm()
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        report = verify_equivalence(moving, terms, 7)
        assert report.notes == (
            "old-be=pass",
            "new-be=pass",
            "replayed-chains=11",
            "case1=2",
            "case2=9",
            "direct=0",
            "coincident-pairs=0",
        )

    def test_replay_similarity_matches_evaluated_similarity(self, default_config, default_suite):
        pairs = 0
        for instance in default_suite[:10]:
            for terms in instance.witnesses:
                index = ClosureIndex(
                    instance.algorithm, terms, default_config.universe_size, closed=True
                )
                order = sorted_terms(terms)
                for members in index.similarity_classes(harness.REPLAY_PAIR_LIMIT + 1):
                    for left, right in harness._sample_pairs(list(members), harness.REPLAY_PAIR_LIMIT):
                        assert similarity_of_vectors(
                            left.vector, right.vector, order
                        ) == similarity_function(left.state, right.state, terms)
                        pairs += 1
        assert pairs > 0


def _moving_algorithm() -> tuple[Algorithm, Vocabulary]:
    vocabulary = _constants_vocab(2)
    x = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 3}, "c1": {(): 4}})
    successor = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 4}, "c1": {(): 4}})
    return Algorithm(vocabulary, (x,), (True,), successors=(successor,)), vocabulary


def _disjoint_pairs(sample):
    """The pair sampler ``sample`` keeping only the pairs with disjoint
    witness values, the pairs that may take case 1."""
    return lambda members, limit: [
        (a, b) for a, b in sample(members, limit) if set(a.vector).isdisjoint(b.vector)
    ]


def _swapping_compose(outer, inner):
    """The composed map, then the copy's two least nonlogical elements
    swapped: still an isomorphic copy, but not the one asked for."""
    composed = _COMPOSE(outer, inner)
    a, b = sorted(v for v in composed.values() if v not in LOGICAL_IDS)[:2]
    swap = {a: b, b: a}
    return {e: swap.get(v, v) for e, v in composed.items()}


class _RouteMap(dict):
    """A route's element map, as ``renaming_map`` checked it, told apart from
    the similarity function's element map by its type."""


def _unlifted_by_route_maps(mapping, update):
    """Lifts through the similarity function only: the route's element maps
    leave the update where it was."""
    return update if isinstance(mapping, _RouteMap) else lift_encoded(mapping, update)


class TestReplayAssertions:
    """Each assertion of the replayed proof fires when the replay's view of a
    primitive is corrupted."""

    def _replay(self, monkeypatch, *, logical: bool, case1_only: bool = False):
        if case1_only:
            monkeypatch.setattr(harness, "_sample_pairs", _disjoint_pairs(harness._sample_pairs))
        moving, vocabulary = _moving_algorithm()
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        return verify_equivalence(moving, terms | LOGICAL_TERMS if logical else terms, 7)

    @pytest.mark.parametrize(
        "case1_only, message",
        [
            (False, "replayed chain broken: composed copy and target disagree on updates"),
            (True, "replayed chain broken: replacement copy and target disagree on updates"),
        ],
    )
    def test_update_sets_must_agree(self, monkeypatch, case1_only, message):
        monkeypatch.setattr(harness, "lift_encoded_set", lambda mapping, updates: frozenset())
        with pytest.raises(AsmError, match=f"^{message}$"):
            self._replay(monkeypatch, logical=not case1_only, case1_only=case1_only)

    @pytest.mark.parametrize(
        "case1_only, message",
        [
            (False, "replayed chain broken: composed transport differs from similarity lift"),
            (True, "replayed chain broken: replacement transport differs from similarity lift"),
        ],
    )
    def test_transport_must_match_similarity_lift(self, monkeypatch, case1_only, message):
        monkeypatch.setattr(harness, "renaming_map", lambda mapping: _RouteMap(renaming_map(mapping)))
        monkeypatch.setattr(harness, "lift_encoded", _unlifted_by_route_maps)
        with pytest.raises(AsmError, match=f"^{message}$"):
            self._replay(monkeypatch, logical=not case1_only, case1_only=case1_only)

    def test_replaced_copy_must_coincide(self, monkeypatch):
        monkeypatch.setattr(harness, "_compose", _swapping_compose)
        with pytest.raises(AsmError, match="^internal: value-replacement copy fails to coincide$"):
            self._replay(monkeypatch, logical=True)

    def test_pairs_must_share_one_pattern(self, monkeypatch):
        # Two classes of one state each: c0 = c1 in the first, c0 != c1 in
        # the second.  The sample pairs the first class's copy with the
        # second's; zipped, their witness values still make an injective
        # map, so only the pattern comparison tells them apart.
        vocabulary = _constants_vocab(2)
        shared = State(vocabulary, {0, 1, 2, 3}, {"c0": {(): 3}, "c1": {(): 3}})
        apart = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 3}, "c1": {(): 4}})
        still = Algorithm(vocabulary, (shared, apart), (True, True), successors=(shared, apart))
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        assert verify_equivalence(still, terms, 7).passed
        firsts = []

        def across_classes(members, limit):
            firsts.append(members[0])
            return [tuple(firsts)] if len(firsts) == 2 else []

        monkeypatch.setattr(harness, "_sample_pairs", across_classes)
        with pytest.raises(NotSimilarError, match="^states are not similar over the witness: terms c0 and c1 share"):
            verify_equivalence(still, terms, 7)
        assert [copy.vector for copy in firsts] == [(3, 3), (3, 4)]

    def test_detached_copy_must_not_share_values(self, monkeypatch):
        # The detached map is never composed in: the copy is x itself.
        monkeypatch.setattr(harness, "_compose", lambda outer, inner: inner)
        with pytest.raises(
            AsmError, match="^internal: disjoint copy still shares nonlogical witness values$"
        ):
            self._replay(monkeypatch, logical=True)


class TestMapLevelRoute:
    """The replay routes pairs on element maps and renamed canonical tables;
    on the copies' materialized states, the paper-literal constructions
    (``reference.state_route``) must take the same route, with the same
    renamings, and build the same tables."""

    @pytest.fixture
    def routed(self, monkeypatch):
        """Records, for every pair the replay routes, the pair, the route's
        name, the copies along it, whether built for this pair or earlier in
        the replay, and the tables each of those copies was evaluated on when
        it was built."""
        pairs, renamed = [], {}
        route = harness._pair_route

        def spy_route(constructions, universe_size, x, y, sigma):
            name, steps = route(constructions, universe_size, x, y, sigma)
            pairs.append((x, y, name, steps, [renamed[id(c.composed)][1] for c in steps]))
            return name, steps

        def spy_rename(tables, mapping):
            # the map is held with its tables, so its id names it for the whole test
            renamed[id(mapping)] = (mapping, rename_tables(tables, mapping))
            return renamed[id(mapping)][1]

        monkeypatch.setattr(harness, "_pair_route", spy_route)
        monkeypatch.setattr(harness, "rename_tables", spy_rename)
        return pairs

    def _compare(self, pairs):
        routes = {}
        for x, y, name, steps, tables in pairs:
            index = x.index
            expected = reference.state_route(x.state, y.state, index.terms, index.universe_size)
            assert (name, [Renaming(c.step) for c in steps]) == expected[:2]
            assert tables == [state.interpretations for state in expected[2]]
            assert [c.vector for c in steps] == [index.program.evaluate(state) for state in expected[2]]
            routes[name] = routes.get(name, 0) + 1
        return routes

    # seed 1 was not used while the replay's memo keys were written
    @pytest.mark.parametrize(
        "config, routes",
        [(GeneratorConfig(), {"case2": 4297}), (GeneratorConfig(seed=1, instances=20), {"case2": 889})],
        ids=["default", "seed1"],
    )
    def test_generated_suite_routes_match_the_state_constructions(self, routed, config, routes):
        for instance in generate_algorithm_suite(config):
            for terms in instance.witnesses:
                assert verify_equivalence(instance.algorithm, terms, config.universe_size).passed
        assert self._compare(routed) == routes

    def test_two_constant_routes_match_the_state_constructions(self, routed):
        moving, vocabulary = _moving_algorithm()
        verify_equivalence(moving, frozenset(Term(s) for s in vocabulary.nonlogical), 7)
        routes = self._compare(routed)
        assert routes["case1"] > 0 and routes["case2"] > 0

    def test_untouched_carrier_routes_match_the_state_constructions(self, routed):
        # One state whose carrier holds 4, an element the witness {c0} does
        # not name, stepping to set f(c0) to c0.  So x may hold y's witness
        # value outside its own: the value sets are disjoint, but the
        # replacement alone is no renaming, and the pair takes case 2
        vocabulary = Vocabulary((Symbol("c0", 0), Symbol("f", 1)))
        x = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 3}})
        successor = State(vocabulary, {0, 1, 2, 3, 4}, {"c0": {(): 3}, "f": {(3,): 3}})
        algorithm = Algorithm(vocabulary, (x,), (True,), successors=(successor,))
        assert verify_equivalence(algorithm, frozenset({Term(vocabulary.symbol("c0"))}), 7).passed
        routes = self._compare(routed)
        disjoint_case2 = [
            pair for pair in routed if pair[2] == "case2" and set(pair[0].vector).isdisjoint(pair[1].vector)
        ]
        assert (routes, len(disjoint_case2)) == ({"case1": 6, "case2": 5}, 3)

    def test_reversed_pairs_route_from_their_own_copies(
        self, routed, monkeypatch, default_suite, default_config
    ):
        # The sample's x is the first member of its canonical state in the
        # class, so one replay never routes two copies of one canonical
        # state as x.  Reversed, the pairs do, often with the same eta.
        sample = harness._sample_pairs
        monkeypatch.setattr(
            harness,
            "_sample_pairs",
            lambda members, limit: [(y, x) for x, y in sample(members, limit)],
        )
        for instance in default_suite[:20]:
            for terms in instance.witnesses:
                assert verify_equivalence(instance.algorithm, terms, default_config.universe_size).passed
        maps = {}  # (replay's index, canonical index) -> the maps of the x's routed
        for x, *_ in routed:
            maps.setdefault((id(x.index), x.canonical_index), set()).add(frozenset(x.mapping.items()))
        assert max(map(len, maps.values())) > 1
        assert self._compare(routed) == {"case2": 608}

    def test_replay_builds_no_state_or_renaming(self, monkeypatch, default_suite, default_config):
        built = []
        monkeypatch.setattr(harness, "apply_renaming", lambda *args: built.append(args))
        monkeypatch.setattr(harness, "Renaming", lambda *args: built.append(args))
        replayed = 0
        for instance in default_suite:
            for terms in instance.witnesses:
                report = verify_equivalence(instance.algorithm, terms, default_config.universe_size)
                if report.passed and "old-be=pass" in report.notes:
                    replayed += 1
        assert replayed == 266
        assert built == []


class TestReportOnlyObjects:
    """The checks and the replay compute on element maps and encoded
    updates; ``Update``, ``Renaming``, ``SimilarityFunction`` and ``State``
    are built only for what a report names."""

    @staticmethod
    def _spy_builds(monkeypatch):
        """The class names of the report-only objects built from now on."""
        built = []
        for cls, name in ((Update, "__post_init__"), (Renaming, "__init__"), (SimilarityFunction, "__init__"),
                          (State, "__init__")):
            def spy(self, *args, _made=getattr(cls, name), **kwargs):
                built.append(type(self).__name__)
                return _made(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, spy)
        return built

    def test_warm_double_pass_checks_build_none(self, monkeypatch, default_suite, default_config):
        # Every double-pass check of the default suite at u=11, run again once
        # its algorithm's canonical facts are kept: no report is made, so
        # none of the four may be constructed.
        universe = default_config.universe_size
        double = []
        for instance in default_suite:
            for terms in instance.witnesses:
                notes = verify_equivalence(instance.algorithm, terms, universe).notes
                if "old-be=pass" in notes and "new-be=pass" in notes:
                    double.append((instance.algorithm, terms))
        built = self._spy_builds(monkeypatch)
        for algorithm, terms in double:
            assert verify_equivalence(algorithm, terms, universe).passed
        assert (len(double), built) == (266, [])

    def test_warm_naturality_checks_build_none(self, monkeypatch, default_suite, default_config):
        # Sequential time and abstract state on every default-suite instance
        # at u=11, run again once the canonical facts are kept: both decide
        # on tables and element maps, and pass, so nothing is built.
        universe = default_config.universe_size
        for instance in default_suite:
            check_abstract_state(instance.algorithm, universe)
        built = self._spy_builds(monkeypatch)
        for instance in default_suite:
            assert check_sequential_time(instance.algorithm).passed
            assert check_abstract_state(instance.algorithm, universe).passed
        assert built == []


def _spied_builds(monkeypatch):
    """The maps ``harness`` renames canonical tables by, one per copy it
    builds, and the copies along every routed pair's route, in call order."""
    renamed, used = [], []
    route = harness._pair_route

    def spy_route(*args):
        name, steps = route(*args)
        used.extend(steps)
        return name, steps

    def spy_rename(tables, mapping):
        renamed.append(mapping)
        return rename_tables(tables, mapping)

    monkeypatch.setattr(harness, "_pair_route", spy_route)
    monkeypatch.setattr(harness, "rename_tables", spy_rename)
    return renamed, used


def _with_updates(copy, updates):
    """A copy with the same canonical state and map but the encoded update
    set ``updates``."""
    tampered = Copy(copy.canonical_index, copy.mapping, copy.index)
    tampered.encoded_delta = updates
    return tampered


class TestReplayConstructions:
    """Each constructed copy is built once per replay, by the pair that first
    needs it; every later pair reuses it and still compares it with its own
    target."""

    def test_default_suite_builds_each_copy_once(self, monkeypatch, default_suite, default_config):
        renamed, used = _spied_builds(monkeypatch)
        similarities = []  # one entry per similarity function the replay computes
        similarity_map = harness.similarity_map
        monkeypatch.setattr(
            harness, "similarity_map", lambda *args: similarities.append(args) or similarity_map(*args)
        )
        builds = uses = chains = 0
        for instance in default_suite:
            for terms in instance.witnesses:
                renamed.clear()
                used.clear()
                report = verify_equivalence(instance.algorithm, terms, default_config.universe_size)
                chains += report.stats.get("replayed-chains", 0)
                # every copy a route used was built exactly once, and nothing else was
                assert sorted(map(id, renamed)) == sorted({id(c.composed) for c in used})
                builds += len(renamed)
                uses += len(used)
        # 8,552 sampled pairs and 4,297 routed ones would compute 12,849
        # similarity functions without the memo
        assert (builds, uses, chains, len(similarities)) == (1311, 2 * 4297, 5402, 2314)

    def test_no_copy_outlives_its_replay(self, monkeypatch, default_suite, default_config):
        renamed, _ = _spied_builds(monkeypatch)
        algorithm, terms = default_suite[2].algorithm, default_suite[2].witnesses[1]
        counts = []
        for _ in range(2):
            renamed.clear()
            assert verify_equivalence(algorithm, terms, default_config.universe_size).stats["case2"] == 79
            counts.append(len(renamed))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize(
        "route, routed, message",
        [
            ("case2", 11, "composed copy and target disagree on updates"),
            ("case1", 2, "replacement copy and target disagree on updates"),
        ],
    )
    def test_a_reused_copy_is_compared_with_each_target(self, monkeypatch, route, routed, message):
        # case 1 is taken only without logical terms, by pairs with disjoint
        # witness values, and the sample keeps only those
        moving, vocabulary = _moving_algorithm()
        terms = frozenset(Term(s) for s in vocabulary.nonlogical)
        sample = harness._sample_pairs
        if route == "case2":
            terms |= LOGICAL_TERMS
        else:
            sample = _disjoint_pairs(sample)
            monkeypatch.setattr(harness, "_sample_pairs", sample)
        renamed, _ = _spied_builds(monkeypatch)
        assert verify_equivalence(moving, terms, 7).stats[route] == routed
        alone = len(renamed)

        def twice(tamper):
            # every pair, then every pair again with its target's update set
            # extended when ``tamper``: the repeats reuse every copy
            def pairs(members, limit):
                first = sample(members, limit)
                return first + [
                    (x, _with_updates(y, y.encoded_delta | {("tampered", (), 0)}) if tamper else y)
                    for x, y in first
                ]
            return pairs

        monkeypatch.setattr(harness, "_sample_pairs", twice(False))
        renamed.clear()
        assert verify_equivalence(moving, terms, 7).stats[route] == 2 * routed
        assert len(renamed) == alone
        monkeypatch.setattr(harness, "_sample_pairs", twice(True))
        with pytest.raises(AsmError, match=f"^replayed chain broken: {message}$"):
            verify_equivalence(moving, terms, 7)


# Names that extend one another by "_", a digit, a lower- and an upper-case
# letter and a letter outside ASCII, so that texts are often prefixes.
_NAMES = ("a", "a_", "a1", "aa", "aB", "aé")


@st.composite
def _generator_inputs(draw):
    """A vocabulary of arity at most 3, a depth at most 3 and a cap from 1 to
    70, with the depth lowered until the reference builds few terms."""
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    arities = [draw(st.integers(0, 3)) for _ in names]
    cap = draw(st.integers(1, 70))
    depth = draw(st.integers(1, 3))
    while reference.ground_terms_work(arities, depth, cap) > 20_000:
        depth -= 1
    return Vocabulary(Symbol(n, a) for n, a in zip(names, arities)), depth, cap


class TestGenerators:
    def test_config_validation_and_derived_universe(self):
        assert GeneratorConfig().universe_size == 11
        assert GeneratorConfig(max_carrier_size=2).universe_size == 7
        with pytest.raises(ValueError):
            GeneratorConfig(instances=0)
        with pytest.raises(ValueError):
            GeneratorConfig(max_carrier_size=0)

    def test_suite_is_deterministic(self):
        cfg = GeneratorConfig(instances=6, seed=5)
        first = generate_algorithm_suite(cfg)
        second = generate_algorithm_suite(cfg)
        for a, b in zip(first, second):
            assert a.description == b.description
            assert [s.key() for s in a.algorithm.canonical_states] == [
                s.key() for s in b.algorithm.canonical_states
            ]
            assert [sorted(map(str, w)) for w in a.witnesses] == [
                sorted(map(str, w)) for w in b.witnesses
            ]

    def test_tight_bounds_include_flip_isomorph(self):
        cfg = GeneratorConfig(
            max_canonical_states=2,
            max_carrier_size=2,
            max_nonlogical_symbols=1,
            max_arity=0,
            max_term_depth=1,
            instances=3,
        )
        suite = generate_algorithm_suite(cfg)
        reference = flip_algorithm()
        first = suite[0].algorithm
        assert first.canonical_states == reference.canonical_states
        assert first.successors == reference.successors

    def test_bounds_respected(self, default_config, default_suite):
        for instance in default_suite:
            algorithm = instance.algorithm
            assert 1 <= len(algorithm.canonical_states) <= default_config.max_canonical_states
            assert algorithm.max_nonlogical_carrier() <= default_config.max_carrier_size
            assert len(algorithm.vocabulary.nonlogical) <= default_config.max_nonlogical_symbols
            for sym in algorithm.vocabulary.nonlogical:
                assert sym.arity <= default_config.max_arity
            for witness in instance.witnesses:
                assert is_subterm_closed(witness)
                for term in witness:
                    assert term.depth <= default_config.max_term_depth

    def test_witnesses_include_floor_and_full_sets(self, default_config, default_suite):
        for instance in default_suite:
            assert LOGICAL_TERMS in instance.witnesses
            full = frozenset(
                ground_terms_up_to(
                    instance.algorithm.vocabulary, default_config.max_term_depth
                )
            )
            assert full in instance.witnesses

    def test_symbols_past_the_name_pool_get_fresh_names(self):
        # The five pooled names come first; the sixth symbol on is f5, f6, ...
        suite = generate_algorithm_suite(GeneratorConfig(max_nonlogical_symbols=9, instances=20))
        counts = []
        for instance in suite:
            names = {s.name for s in instance.algorithm.vocabulary.nonlogical}
            counts.append(len(names))
            assert names == {("f", "g", "h", "k", "m")[i] if i < 5 else f"f{i}" for i in range(len(names))}
        assert max(counts) == 9

    def test_carrier_bound_above_four_is_drawn(self):
        suite = generate_algorithm_suite(GeneratorConfig(max_carrier_size=5, instances=5))
        assert max(i.algorithm.max_nonlogical_carrier() for i in suite) == 5

    def test_ground_terms_closed_and_capped(self, simple_vocab):
        terms = ground_terms_up_to(simple_vocab, 2, cap=40)
        assert len(terms) <= 40
        assert is_subterm_closed(terms)
        assert TRUE_TERM in terms

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_generator_inputs())
    def test_ground_terms_match_building_every_term(self, inputs):
        vocabulary, depth, cap = inputs
        terms = ground_terms_up_to(vocabulary, depth, cap)
        expected = reference.ground_terms(vocabulary, depth, cap)
        assert [str(t) for t in terms] == [str(t) for t in expected]
        assert terms == expected
        for t in terms:
            assert hash(t) == hash((t.root, t.children))

    def test_similar_pair_generator(self):
        cfg = GeneratorConfig(seed=3)
        for x, y, terms in generate_similar_pairs(cfg, 20):
            assert is_subterm_closed(terms)
            assert t_similar(x, y, terms)
