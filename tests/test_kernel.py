import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import asmkit
from asmkit import (
    FALSE,
    FALSE_TERM,
    TRUE,
    TRUE_TERM,
    UNDEF,
    UNDEF_TERM,
    InvalidRenamingError,
    Renaming,
    State,
    Symbol,
    Term,
    TermProgram,
    ValidationError,
    Vocabulary,
    VocabularyMismatchError,
    apply_renaming,
    coincides_over,
    evaluate_set,
    evaluate_term,
    evaluate_terms,
    is_subterm_closed,
    isomorphisms_between,
    sorted_terms,
    subterm_closure,
)
from asmkit.generate import _random_state, _random_term
from conftest import mk, outcome, random_state, random_term
import reference


class TestSubtermClosure:
    def test_single_application(self, simple_vocab):
        a = Term(simple_vocab.symbol("a"))
        fa = mk(simple_vocab.symbol("f"), a)
        assert subterm_closure({fa}) == {fa, a}

    def test_empty(self):
        assert subterm_closure(()) == frozenset()

    def test_equality_term(self, simple_vocab):
        a = Term(simple_vocab.symbol("a"))
        b = Term(simple_vocab.symbol("b"))
        eq_ab = mk(simple_vocab.symbol("eq"), a, b)
        assert subterm_closure({eq_ab, a}) == {eq_ab, a, b}

    def test_idempotent_extensive_monotone(self, simple_vocab):
        rng = random.Random(7)
        for _ in range(25):
            terms = frozenset(random_term(rng, simple_vocab, 3) for _ in range(4))
            closed = subterm_closure(terms)
            assert terms <= closed
            assert subterm_closure(closed) == closed
            assert is_subterm_closed(closed)
            smaller = frozenset(list(terms)[:2])
            assert subterm_closure(smaller) <= closed

    def test_is_subterm_closed_detects_holes(self, simple_vocab):
        a = Term(simple_vocab.symbol("a"))
        fa = mk(simple_vocab.symbol("f"), a)
        assert not is_subterm_closed({fa})
        assert is_subterm_closed({fa, a})

    def test_children_only_matches_every_subterm(self, default_suite, simple_vocab):
        # The definition: every subterm of a member, at any depth, is a member.
        def closed_by_definition(terms):
            return all(s in terms for t in terms for s in t.subterms())

        cases = [witness for instance in default_suite for witness in instance.witnesses]
        # Holes: each suite witness less one member, and random unclosed sets
        # of deep terms, some missing only a grandchild.
        cases += [witness - {t} for witness in cases[:60] for t in witness]
        rng = random.Random(11)
        for _ in range(40):
            terms = {random_term(rng, simple_vocab, 3) for _ in range(3)}
            closed = set(subterm_closure(terms))
            deep = [s for t in terms for c in t.children for s in c.children]
            if deep:
                closed.discard(rng.choice(deep))
            cases += [frozenset(terms), frozenset(closed)]
        verdicts = [closed_by_definition(frozenset(terms)) for terms in cases]
        assert [is_subterm_closed(terms) for terms in cases] == verdicts
        assert True in verdicts and False in verdicts


# Unpickles a term from stdin; prints whether it is found in a set of the
# same term rebuilt in this process, its hash, the rebuilt term's hash, and
# its repr.
_LOAD_TERM = """
import pickle, sys
from asmkit import Term
term = pickle.load(sys.stdin.buffer)
print(term in frozenset({Term(term.root, term.children)}), hash(term), hash(Term(term.root, term.children)))
print(repr(term))
"""


class TestTermHash:
    def test_unpickled_term_is_rehashed_in_its_process(self, simple_vocab):
        # No hash reads a salted string hash: a term pickled here and loaded
        # under other seeds equals the source term and hashes, carried or
        # rebuilt, as it does here.
        a, f = Term(simple_vocab.symbol("a")), simple_vocab.symbol("f")
        term = mk(simple_vocab.symbol("eq"), mk(f, mk(f, a)), a)
        source = str(Path(asmkit.__file__).resolve().parent.parent)
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", _LOAD_TERM],
                input=pickle.dumps(term), capture_output=True, env=env, check=True,
            )
            assert done.stdout.decode().split("\n") == [f"True {hash(term)} {hash(term)}", repr(term), ""]
        assert pickle.loads(pickle.dumps(term)) == term


class TestEvaluation:
    def test_remark_constant(self, remark):
        x, _, _, labels = remark
        a = Term(x.vocabulary.symbol("a"))
        assert labels[evaluate_term(x, a)] == "1"

    def test_logical_constants(self, remark):
        x, _, _, _ = remark
        assert evaluate_term(x, TRUE_TERM) == TRUE
        assert evaluate_term(x, FALSE_TERM) == FALSE
        assert evaluate_term(x, UNDEF_TERM) == UNDEF

    def test_remark_chained_application(self, remark):
        x, _, _, labels = remark
        f = x.vocabulary.symbol("f")
        a = Term(x.vocabulary.symbol("a"))
        ffa = mk(f, mk(f, a))
        assert labels[evaluate_term(x, ffa)] == "3"

    def test_equality_semantics(self, remark):
        x, _, _, _ = remark
        eq = x.vocabulary.symbol("eq")
        a = Term(x.vocabulary.symbol("a"))
        b = Term(x.vocabulary.symbol("b"))
        assert evaluate_term(x, mk(eq, a, a)) == TRUE
        assert evaluate_term(x, mk(eq, a, b)) == FALSE

    def test_connectives_classical_and_undef(self, remark):
        x, _, _, _ = remark
        v = x.vocabulary
        t, f, u = TRUE_TERM, FALSE_TERM, UNDEF_TERM
        assert evaluate_term(x, mk(v.symbol("not"), t)) == FALSE
        assert evaluate_term(x, mk(v.symbol("not"), f)) == TRUE
        assert evaluate_term(x, mk(v.symbol("not"), u)) == UNDEF
        assert evaluate_term(x, mk(v.symbol("and"), t, t)) == TRUE
        assert evaluate_term(x, mk(v.symbol("and"), t, f)) == FALSE
        assert evaluate_term(x, mk(v.symbol("and"), t, u)) == UNDEF
        assert evaluate_term(x, mk(v.symbol("or"), f, t)) == TRUE
        assert evaluate_term(x, mk(v.symbol("or"), f, f)) == FALSE
        assert evaluate_term(x, mk(v.symbol("or"), u, f)) == UNDEF
        # non-Boolean nonlogical operand
        a = Term(v.symbol("a"))
        assert evaluate_term(x, mk(v.symbol("and"), a, t)) == UNDEF

    def test_unset_symbol_defaults_to_undef(self, simple_vocab):
        state = State(simple_vocab, {0, 1, 2, 3})
        assert evaluate_term(state, Term(simple_vocab.symbol("a"))) == UNDEF

    def test_foreign_symbol_rejected(self, remark):
        x, _, _, _ = remark
        foreign = Symbol("zz", 0)
        with pytest.raises(VocabularyMismatchError):
            evaluate_term(x, Term(foreign))

    def test_evaluate_set_images(self, remark):
        x, y, witness, labels = remark
        assert {labels[v] for v in evaluate_set(x, witness)} == {"1", "2"}
        assert {labels[v] for v in evaluate_set(y, witness)} == {"1", "3"}
        assert evaluate_set(x, ()) == frozenset()

    def test_generated_terms_are_not_confused(self, simple_vocab):
        # Terms made on the fly and dropped at once must not share a memo entry.
        state = State(simple_vocab, {0, 1, 2, 3, 4}, {"a": {(): 3}, "b": {(): 4}})
        names = ["a", "b", "b", "a"] * 3
        values = evaluate_terms(state, (Term(simple_vocab.symbol(n)) for n in names))
        assert values == [3 if n == "a" else 4 for n in names]

    def test_rendering_leaves_equality_and_hash_alone(self, simple_vocab):
        def build():
            a = Term(simple_vocab.symbol("a"))
            return mk(simple_vocab.symbol("g"), mk(simple_vocab.symbol("f"), a), a)

        rendered, fresh = build(), build()
        assert str(rendered) == "g(f(a), a)"
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh)


class TestCoincidence:
    def test_reflexive(self, remark):
        x, _, witness, _ = remark
        assert coincides_over(x, x, witness)

    def test_remark_pair(self, remark):
        x, y, witness, _ = remark
        a = Term(x.vocabulary.symbol("a"))
        assert coincides_over(x, y, {a})
        assert not coincides_over(x, y, witness)

    def test_subset_monotone(self, simple_vocab):
        rng = random.Random(11)
        for _ in range(20):
            x = random_state(rng, simple_vocab, 3)
            y = random_state(rng, simple_vocab, 3)
            terms = [random_term(rng, simple_vocab, 2) for _ in range(5)]
            if coincides_over(x, y, terms):
                assert coincides_over(x, y, terms[:2])

    def test_vocabulary_mismatch(self, remark, simple_vocab):
        x, _, _, _ = remark
        other = State(simple_vocab, {0, 1, 2, 3})
        with pytest.raises(VocabularyMismatchError):
            coincides_over(x, other, ())


def _rebuilt(term: Term) -> Term:
    """An equal term made of new nodes."""
    return Term(term.root, tuple(_rebuilt(child) for child in term.children))


def _program_terms(rng: random.Random, vocabulary: Vocabulary) -> list[Term]:
    """Random terms of depth up to 3 with shared subterms, equal but distinct
    nodes, and subterms holding no nonlogical symbol."""
    terms = [_random_term(rng, vocabulary, rng.randint(0, 3)) for _ in range(6)]
    terms += [_random_term(rng, Vocabulary(), 2) for _ in range(2)]  # logical symbols only
    composites = [s for s in sorted(vocabulary.symbols) if s.arity >= 1]
    for _ in range(4):
        symbol = rng.choice(composites)
        terms.append(Term(symbol, tuple(rng.choice(terms) for _ in range(symbol.arity))))
    terms.append(_rebuilt(rng.choice(terms)))
    return terms


class TestTermProgram:
    """The compiled evaluator against the recursive reference."""

    @pytest.fixture(scope="class")
    def vocabularies(self, default_suite):
        return list(dict.fromkeys(i.algorithm.vocabulary for i in default_suite))

    def test_matches_the_reference(self, vocabularies):
        rng = random.Random(20)
        for vocabulary in vocabularies:
            for _ in range(6):
                state = _random_state(rng, vocabulary, rng.randint(1, 4))
                terms = _program_terms(rng, vocabulary)
                value = reference.evaluator(vocabulary, state.interpretations)
                expected = tuple(value(t) for t in terms)
                assert TermProgram(vocabulary, terms).evaluate(state) == expected
                assert evaluate_terms(state, terms) == list(expected)

    def test_other_vocabularies_match_the_reference(self, vocabularies):
        rng = random.Random(21)
        errors = 0
        for vocabulary in vocabularies:
            other = rng.choice(vocabularies)
            state = _random_state(rng, other, 3)
            terms = _program_terms(rng, vocabulary)
            value = reference.evaluator(other, state.interpretations)
            expected = outcome(lambda: tuple(value(t) for t in terms))
            # a program bound to one vocabulary is compiled afresh for the other
            program = TermProgram(vocabulary, terms)
            assert outcome(lambda: program.evaluate(state)) == expected
            assert outcome(lambda: tuple(evaluate_terms(state, terms))) == expected
            errors += isinstance(expected[0], type)
        assert 0 < errors < len(vocabularies)

    def test_folds_subterms_without_nonlogical_symbols(self, simple_vocab):
        v = simple_vocab
        a = Term(v.symbol("a"))
        logical = mk(v.symbol("not"), mk(v.symbol("and"), FALSE_TERM, UNDEF_TERM))
        program = TermProgram(v, [mk(v.symbol("eq"), logical, a), logical])
        # false, undef, and(...), not(...) are constants; a and eq(...) are left to run
        assert program._constants == [FALSE, UNDEF, UNDEF, UNDEF]
        assert program._leaves == ("a",) and len(program._steps) == 1
        state = State(v, {0, 1, 2, 3}, {"a": {(): 3}})
        assert program.evaluate(state) == (FALSE, UNDEF)
        assert program.evaluate(State(v, {0, 1, 2, 3})) == (TRUE, UNDEF)

    def test_size_counts_distinct_subterms(self, default_suite, simple_vocab):
        rng = random.Random(22)
        cases = [(i.algorithm.vocabulary, w) for i in default_suite[:30] for w in i.witnesses]
        cases += [
            (simple_vocab, {random_term(rng, simple_vocab, 3) for _ in range(rng.randint(1, 5))})
            for _ in range(40)
        ]
        for vocabulary, terms in cases:
            program = TermProgram(vocabulary, sorted_terms(terms))
            assert program.size == len(subterm_closure(terms))
            assert (program.size == len(frozenset(terms))) == is_subterm_closed(terms)


class TestRenaming:
    def test_identity_fixes_state(self, remark):
        x, _, _, _ = remark
        assert apply_renaming(x, Renaming({e: e for e in x.base})) == x

    def test_remark_transport(self, remark):
        x, _, _, _ = remark
        r = Renaming({3: 6, 4: 7, 5: 8})
        moved = apply_renaming(x, r)
        expected = State(
            x.vocabulary,
            {0, 1, 2, 6, 7, 8},
            {"f": {(6,): 7, (7,): 8, (8,): 6}, "a": {(): 6}, "b": {(): 7}},
        )
        assert moved == expected

    def test_flip_fresh_element(self, flip):
        low = flip.canonical_states[0]
        moved = apply_renaming(low, Renaming({3: 3, 4: 5}))
        expected = State(flip.vocabulary, {0, 1, 2, 3, 5}, {"f": {(): 3}})
        assert moved == expected

    def test_rejects_non_injective(self):
        with pytest.raises(InvalidRenamingError):
            Renaming({3: 5, 4: 5})

    def test_rejects_moving_logical(self):
        with pytest.raises(InvalidRenamingError):
            Renaming({0: 4})
        with pytest.raises(InvalidRenamingError):
            Renaming({3: 1})

    def test_rejects_uncovered_carrier(self, remark):
        x, _, _, _ = remark
        with pytest.raises(InvalidRenamingError):
            apply_renaming(x, Renaming({3: 6}))

    def test_inverse_roundtrip(self, remark):
        x, _, _, _ = remark
        r = Renaming({3: 6, 4: 7, 5: 8})
        assert apply_renaming(apply_renaming(x, r), r.inverse()) == x

    def test_evaluation_commutes_with_renaming(self, simple_vocab):
        rng = random.Random(3)
        for _ in range(40):
            state = random_state(rng, simple_vocab, 3)
            targets = rng.sample(range(3, 12), k=len(state.nonlogical_elements()))
            r = Renaming(dict(zip(state.nonlogical_elements(), targets)))
            term = random_term(rng, simple_vocab, 3)
            assert evaluate_term(apply_renaming(state, r), term) == r[evaluate_term(state, term)]


class TestStateCanonicalForm:
    def test_explicit_undef_entry_is_dropped(self, simple_vocab):
        with_entry = State(simple_vocab, {0, 1, 2, 3}, {"a": {(): UNDEF}})
        without = State(simple_vocab, {0, 1, 2, 3})
        assert with_entry == without
        assert hash(with_entry) == hash(without)

    def test_equality_is_representation_independent(self, simple_vocab):
        t1 = {"g": {(3, 4): 3, (4, 3): 4}}
        t2 = {"g": {(4, 3): 4, (3, 4): 3}}
        assert State(simple_vocab, {3, 4}, t1) == State(simple_vocab, {3, 4}, t2)

    def test_logical_ids_always_in_carrier(self, simple_vocab):
        state = State(simple_vocab, {5})
        assert {0, 1, 2, 5} == set(state.base)

    def test_rejects_entry_leaving_carrier(self, simple_vocab):
        with pytest.raises(ValidationError):
            State(simple_vocab, {3}, {"a": {(): 9}})

    def test_rejects_logical_symbol_table(self, simple_vocab):
        with pytest.raises(ValidationError):
            State(simple_vocab, {3}, {"true": {(): 3}})

    def test_rejects_arity_mismatch(self, simple_vocab):
        with pytest.raises(ValidationError):
            State(simple_vocab, {3}, {"f": {(): 3}})

    def test_arity_limit(self):
        from asmkit import Vocabulary

        with pytest.raises(ValidationError):
            Vocabulary((Symbol("h", 4),))
        assert Vocabulary((Symbol("h", 4),), max_arity=4).symbol("h").arity == 4

    def test_isomorphisms_between_copies(self, remark):
        x, _, _, _ = remark
        r = Renaming({3: 6, 4: 7, 5: 8})
        copies = list(isomorphisms_between(x, apply_renaming(x, r)))
        assert r in copies
        assert all(apply_renaming(x, iso) == apply_renaming(x, r) for iso in copies)
