import itertools
import random

import pytest

from asmkit import (
    FALSE_TERM,
    InaccessibleUpdateError,
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
    apply_renaming,
    check_lemma_identity,
    check_partial_isomorphism,
    coincides_over,
    evaluate_set,
    evaluate_terms,
    is_accessible_update,
    lift_update,
    lift_update_set,
    similarity_function,
    similarity_of_vectors,
    sorted_terms,
    subterm_closure,
    t_similar,
)
from asmkit.similarity import equality_pattern
from conftest import mk, random_state, random_term


def pairwise_t_similar(x, y, terms):
    """Similarity by its pairwise definition: every two terms are equal in
    both states or in neither."""
    order = sorted_terms(terms)
    xs = evaluate_terms(x, order)
    ys = evaluate_terms(y, order)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if (xs[i] == xs[j]) != (ys[i] == ys[j]):
                return False
    return True


def first_match_similarity(x, y, terms):
    """The similarity function's pairs, or its NotSimilarError message, from a
    term-by-term scan that reports the first term whose value clashes."""
    order = sorted_terms(terms)
    mapping, seen = {}, {}
    for t, vx, vy in zip(order, evaluate_terms(x, order), evaluate_terms(y, order)):
        if vx in mapping:
            if mapping[vx] != vy:
                return (
                    f"states are not similar over the witness: terms {seen[vx]} and {t} "
                    f"share a value on one side only"
                )
        else:
            mapping[vx] = vy
            seen[vx] = t
    if len(set(mapping.values())) != len(mapping):
        return "states are not similar over the witness: value pattern collapses on one side"
    return sorted(mapping.items())


class TestTSimilar:
    def test_remark_pair_is_similar(self, remark):
        x, y, witness, _ = remark
        assert t_similar(x, y, witness)

    def test_reflexive(self, remark):
        x, _, witness, _ = remark
        assert t_similar(x, x, witness)

    def test_coincidence_implies_similarity(self, simple_vocab):
        rng = random.Random(21)
        for _ in range(20):
            x = random_state(rng, simple_vocab, 3)
            y = random_state(rng, simple_vocab, 3)
            terms = [random_term(rng, simple_vocab, 2) for _ in range(4)]
            if coincides_over(x, y, terms):
                assert t_similar(x, y, terms)
                assert similarity_function(x, y, terms).is_identity

    def test_dissimilar_pair(self, simple_vocab):
        a, b = simple_vocab.symbol("a"), simple_vocab.symbol("b")
        collapsed = State(simple_vocab, {0, 1, 2, 3}, {"a": {(): 3}, "b": {(): 3}})
        split = State(simple_vocab, {0, 1, 2, 3, 4}, {"a": {(): 3}, "b": {(): 4}})
        witness = {Term(a), Term(b)}
        assert not t_similar(collapsed, split, witness)
        with pytest.raises(NotSimilarError):
            similarity_function(collapsed, split, witness)
        with pytest.raises(NotSimilarError):
            similarity_function(split, collapsed, witness)

    def test_matches_pairwise_definition_on_pools(self, simple_vocab):
        kinds = set()
        for seed in (21, 23, 25, 27):
            rng = random.Random(seed)
            terms = subterm_closure(random_term(rng, simple_vocab, 2) for _ in range(4))
            pool = [random_state(rng, simple_vocab, 2) for _ in range(8)]
            for x, y in itertools.product(pool, repeat=2):
                similar = t_similar(x, y, terms)
                assert similar == pairwise_t_similar(x, y, terms)
                try:
                    outcome = similarity_function(x, y, terms).items()
                except NotSimilarError as exc:
                    outcome = str(exc)
                assert outcome == first_match_similarity(x, y, terms)
                assert similar == isinstance(outcome, list)
                if similar:
                    kinds.add("similar")
                else:
                    kinds.add("collapses" if "collapses" in outcome else "clashes")
        assert kinds == {"similar", "clashes", "collapses"}

    def test_equivalence_relation_on_pools(self, simple_vocab):
        rng = random.Random(23)
        terms = subterm_closure(random_term(rng, simple_vocab, 2) for _ in range(3))
        pool = [random_state(rng, simple_vocab, 2) for _ in range(8)]
        for x, y, z in itertools.product(pool, repeat=3):
            assert t_similar(x, x, terms)
            if t_similar(x, y, terms):
                assert t_similar(y, x, terms)
                if t_similar(y, z, terms):
                    assert t_similar(x, z, terms)


class TestSimilarityFunction:
    def test_remark_mapping(self, remark):
        x, y, witness, _ = remark
        sigma = similarity_function(x, y, witness)
        assert sigma.items() == [(3, 3), (4, 5)]

    def test_identity_on_same_state(self, remark):
        x, _, witness, _ = remark
        assert similarity_function(x, x, witness).is_identity

    def test_inverse_is_reverse_direction(self, remark):
        x, y, witness, _ = remark
        forward = similarity_function(x, y, witness)
        backward = similarity_function(y, x, witness)
        assert forward.inverse() == backward

    def test_never_equals_a_renaming_with_the_same_map(self):
        renaming = Renaming({3: 3, 4: 5})
        sigma = SimilarityFunction(dict(renaming.items()))
        assert sigma.items() == renaming.items()
        assert sigma != renaming and renaming != sigma
        assert type(sigma.inverse()) is SimilarityFunction
        assert type(renaming.inverse()) is Renaming
        assert sigma.inverse() == SimilarityFunction({0: 0, 1: 1, 2: 2, 3: 3, 5: 4})

    def test_from_vectors_needs_one_pattern(self, remark):
        _, _, witness, _ = remark
        order = sorted_terms(witness)[:2]
        assert similarity_of_vectors((3, 4), (5, 6), order).items() == [(3, 5), (4, 6)]
        with pytest.raises(NotSimilarError, match="share a value on one side only"):
            similarity_of_vectors((3, 3), (5, 6), order)
        with pytest.raises(NotSimilarError, match="collapses on one side"):
            similarity_of_vectors((3, 4), (5, 5), order)

    def test_from_vectors_with_a_known_pattern(self, remark):
        # The pattern passed in stands for x's: y is checked against it,
        # index by index, before the collapse check, with the same messages.
        _, _, witness, _ = remark
        order = sorted_terms(witness)[:3]
        cases = [((3, 4, 3), (5, 6, 5)), ((3, 3, 4), (5, 6, 7)), ((3, 4, 5), (5, 5, 6)), ((3, 4, 4), (5, 3, 3))]
        for xs, ys in cases:
            outcomes = []
            for pattern in (None, equality_pattern(xs)[0]):
                try:
                    outcomes.append(similarity_of_vectors(xs, ys, order, pattern).items())
                except NotSimilarError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        with pytest.raises(NotSimilarError, match=f"terms {order[0]} and {order[1]} share"):
            similarity_of_vectors((3, 4, 5), (5, 6, 7), order, (0, 0, 2))

    def test_apply_outside_domain(self, remark):
        x, y, witness, _ = remark
        sigma = similarity_function(x, y, witness)
        with pytest.raises(InaccessibleUpdateError):
            sigma.apply(5)


class TestLemmaIdentity:
    def test_remark_vacuous_pass(self, remark):
        x, y, witness, _ = remark
        assert check_lemma_identity(x, y, witness).passed

    def test_same_state_pass(self, remark):
        x, _, _, _ = remark
        f, a = x.vocabulary.symbol("f"), x.vocabulary.symbol("a")
        terms = subterm_closure({mk(f, mk(f, Term(a)))})
        assert check_lemma_identity(x, x, terms).passed

    def test_renamed_pairs_always_pass(self, simple_vocab):
        rng = random.Random(31)
        for _ in range(40):
            x = random_state(rng, simple_vocab, 3)
            targets = rng.sample(range(3, 11), k=len(x.nonlogical_elements()))
            y = apply_renaming(x, Renaming(dict(zip(x.nonlogical_elements(), targets))))
            terms = subterm_closure(random_term(rng, simple_vocab, 2) for _ in range(3))
            assert check_lemma_identity(x, y, terms).passed

    def test_requires_closed_witness(self, remark):
        x, y, _, _ = remark
        f, a = x.vocabulary.symbol("f"), x.vocabulary.symbol("a")
        with pytest.raises(Exception):
            check_lemma_identity(x, y, {mk(f, Term(a))})


class TestPartialIsomorphism:
    def test_remark_violation(self, remark):
        x, y, witness, _ = remark
        report = check_partial_isomorphism(x, y, witness)
        assert not report.passed
        assert report.witness["symbol"].name == "f"
        assert report.witness["args"] == (3,)
        assert report.witness["lhs"] == 5
        assert report.witness["rhs"] == 4

    def test_single_constant_is_vacuous(self, remark):
        x, y, _, _ = remark
        a = Term(x.vocabulary.symbol("a"))
        assert check_partial_isomorphism(x, y, {a}).passed

    def test_identity_pair_passes(self, remark):
        x, _, witness, _ = remark
        assert check_partial_isomorphism(x, x, witness).passed

    def test_full_carrier_witness_passes(self, remark):
        x, _, _, _ = remark
        v = x.vocabulary
        f, a = v.symbol("f"), v.symbol("a")
        a_t = Term(a)
        naming_all = {a_t, mk(f, a_t), mk(f, mk(f, a_t))}
        assert check_partial_isomorphism(x, x, naming_all).passed

    def test_fails_on_symbol_outside_witness(self):
        vocabulary = Vocabulary((Symbol("a", 0), Symbol("g", 0)))
        x = State(vocabulary, {0, 1, 2, 3, 4}, {"a": {(): 3}, "g": {(): 3}})
        y = State(vocabulary, {0, 1, 2, 3, 4}, {"a": {(): 3}, "g": {(): 4}})
        witness = {Term(vocabulary.symbol("a"))}
        assert t_similar(x, y, witness)
        report = check_partial_isomorphism(x, y, witness)
        assert not report.passed
        assert report.witness["symbol"].name == "g"


class TestAccessibility:
    def test_flip_accessible_elements(self, flip):
        low = flip.canonical_states[0]
        f = Term(flip.vocabulary.symbol("f"))
        witness = {TRUE_TERM, FALSE_TERM, UNDEF_TERM, f}
        assert evaluate_set(low, witness) == {0, 1, 2, 3}
        assert evaluate_set(low, ()) == frozenset()

    def test_remark_accessible_elements(self, remark):
        x, _, witness, _ = remark
        assert evaluate_set(x, witness) == {3, 4}

    def test_flip_update_not_accessible(self, flip):
        f = flip.vocabulary.symbol("f")
        low = flip.canonical_states[0]
        witness = {TRUE_TERM, FALSE_TERM, UNDEF_TERM, Term(f)}
        assert not is_accessible_update(low, witness, Update(f, (), 4))

    def test_full_witness_makes_everything_accessible(self, remark):
        x, _, _, _ = remark
        v = x.vocabulary
        a_t = Term(v.symbol("a"))
        f = v.symbol("f")
        naming_all = {a_t, mk(f, a_t), mk(f, mk(f, a_t))}
        for value in (3, 4, 5):
            assert is_accessible_update(x, naming_all, Update(f, (3,), value))

    def test_remark_unary_update_accessible(self, remark):
        x, _, witness, _ = remark
        f = x.vocabulary.symbol("f")
        assert is_accessible_update(x, witness, Update(f, (3,), 4))

    def test_accessibility_invariant_under_renaming(self, remark):
        x, _, witness, _ = remark
        f = x.vocabulary.symbol("f")
        r = Renaming({3: 6, 4: 7, 5: 8})
        moved = apply_renaming(x, r)
        for update in (Update(f, (3,), 4), Update(f, (3,), 5), Update(f, (5,), 3)):
            lifted = next(iter(lift_update_set(r, {update})))
            assert is_accessible_update(x, witness, update) == is_accessible_update(
                moved, witness, lifted
            )


class TestLiftAccessibleUpdate:
    def test_identity(self, remark):
        x, _, witness, _ = remark
        sigma = similarity_function(x, x, witness)
        f = x.vocabulary.symbol("f")
        u = Update(f, (3,), 4)
        assert lift_update(sigma, u) == u

    def test_pointwise(self, remark):
        x, y, witness, _ = remark
        sigma = similarity_function(x, y, witness)
        f = x.vocabulary.symbol("f")
        assert lift_update(sigma, Update(f, (3,), 4)) == Update(f, (3,), 5)

    def test_component_outside_domain(self, remark):
        x, y, witness, _ = remark
        sigma = similarity_function(x, y, witness)
        f = x.vocabulary.symbol("f")
        with pytest.raises(InaccessibleUpdateError):
            lift_update(sigma, Update(f, (5,), 3))
