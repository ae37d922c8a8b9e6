import itertools
import random

import pytest

from asmkit import (
    FALSE,
    TRUE,
    UNDEF,
    Algorithm,
    Assign,
    ClashError,
    CompiledRule,
    Cond,
    DomainError,
    GuardError,
    Par,
    Renaming,
    State,
    Symbol,
    Term,
    UnknownStateError,
    Update,
    Vocabulary,
    VocabularyMismatchError,
    apply_renaming,
    apply_rule,
    apply_updates,
    lift_update,
    lift_update_set,
    locate,
    rule_terms,
    step,
    table_diff,
    update_set,
)
from asmkit.generate import _random_state, _random_term
from asmkit.transition import rule_updates
from conftest import mk, outcome, random_state
import reference


@pytest.fixture
def rule_vocab() -> Vocabulary:
    return Vocabulary((Symbol("c", 0), Symbol("d", 0), Symbol("f", 0), Symbol("g", 1)))


def _flip_symbols(flip):
    return flip.vocabulary.symbol("f")


class TestApplyRule:
    def test_nontrivial_assignment(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3, 4}, {"f": {(): 3}, "c": {(): 4}})
        rule = Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("c")))
        assert apply_rule(state, rule) == {Update(rule_vocab.symbol("f"), (), 4)}

    def test_trivial_assignment_filtered(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3}, {"f": {(): 3}, "c": {(): 3}})
        rule = Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("c")))
        assert apply_rule(state, rule) == frozenset()

    def test_parallel_union(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3, 4}, {"c": {(): 3}, "d": {(): 4}})
        rule = Par(
            (
                Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("c"))),
                Assign(rule_vocab.symbol("g"), (Term(rule_vocab.symbol("c")),),
                       Term(rule_vocab.symbol("d"))),
            )
        )
        assert apply_rule(state, rule) == {
            Update(rule_vocab.symbol("f"), (), 3),
            Update(rule_vocab.symbol("g"), (3,), 4),
        }

    def test_parallel_clash(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3, 4}, {"c": {(): 3}, "d": {(): 4}})
        rule = Par(
            (
                Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("c"))),
                Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("d"))),
            )
        )
        with pytest.raises(ClashError):
            apply_rule(state, rule)

    def test_parallel_same_value_merges(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3}, {"c": {(): 3}, "d": {(): 3}})
        rule = Par(
            (
                Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("c"))),
                Assign(rule_vocab.symbol("f"), (), Term(rule_vocab.symbol("d"))),
            )
        )
        assert apply_rule(state, rule) == {Update(rule_vocab.symbol("f"), (), 3)}

    def test_conditional_branches(self, rule_vocab):
        eq = rule_vocab.symbol("eq")
        c, d, f = (rule_vocab.symbol(n) for n in "cdf")
        state = State(rule_vocab, {0, 1, 2, 3, 4}, {"c": {(): 3}, "d": {(): 4}})
        taken = Cond(mk(eq, Term(c), Term(c)), Assign(f, (), Term(c)), Assign(f, (), Term(d)))
        assert apply_rule(state, taken) == {Update(f, (), 3)}
        skipped = Cond(mk(eq, Term(c), Term(d)), Assign(f, (), Term(c)), Assign(f, (), Term(d)))
        assert apply_rule(state, skipped) == {Update(f, (), 4)}

    def test_non_boolean_guard(self, rule_vocab):
        c, f = rule_vocab.symbol("c"), rule_vocab.symbol("f")
        state = State(rule_vocab, {0, 1, 2, 3}, {"c": {(): 3}})
        rule = Cond(Term(c), Assign(f, (), Term(c)), Assign(f, (), Term(c)))
        with pytest.raises(GuardError):
            apply_rule(state, rule)

    def test_assignment_to_logical_rejected(self, rule_vocab):
        with pytest.raises(Exception):
            Assign(rule_vocab.symbol("true"), (), Term(rule_vocab.symbol("c")))

    def test_rule_terms_include_composed_lhs(self, rule_vocab):
        g, c = rule_vocab.symbol("g"), rule_vocab.symbol("c")
        rule = Assign(g, (Term(c),), Term(c))
        assert mk(g, Term(c)) in rule_terms(rule)


class TestStepAndUpdateSet:
    def test_flip_step(self, flip):
        low, high = flip.canonical_states
        assert step(flip, low) == high
        assert step(flip, high) == low

    def test_flip_update_sets(self, flip):
        f = _flip_symbols(flip)
        low, high = flip.canonical_states
        assert update_set(flip, low) == {Update(f, (), 4)}
        assert update_set(flip, high) == {Update(f, (), 3)}

    def test_flip_renamed_copy(self, flip):
        f = _flip_symbols(flip)
        copy = apply_renaming(flip.canonical_states[0], Renaming({3: 3, 4: 5}))
        assert update_set(flip, copy) == {Update(f, (), 5)}
        assert step(flip, copy) == State(flip.vocabulary, {0, 1, 2, 3, 5}, {"f": {(): 5}})

    def test_fixed_point(self, rule_vocab):
        state = State(rule_vocab, {0, 1, 2, 3})
        identity = Algorithm(rule_vocab, (state,), (True,), successors=(state,))
        assert update_set(identity, state) == frozenset()
        assert step(identity, state) == state

    def test_step_preserves_base(self, flip):
        for canonical in flip.canonical_states:
            for renaming in reference.renamings(canonical.base, 8):
                copy = apply_renaming(canonical, renaming)
                assert step(flip, copy).base == copy.base

    def test_unknown_state(self, flip):
        stranger = State(flip.vocabulary, {0, 1, 2, 3, 4, 5}, {"f": {(): 3}})
        with pytest.raises(UnknownStateError):
            locate(flip, stranger)
        with pytest.raises(UnknownStateError):
            step(flip, stranger)


class TestLifting:
    def test_identity(self, flip):
        f = _flip_symbols(flip)
        updates = frozenset({Update(f, (), 4)})
        r = Renaming({3: 3, 4: 4})
        assert lift_update_set(r, updates) == updates

    def test_fresh_element(self, flip):
        f = _flip_symbols(flip)
        assert lift_update_set(Renaming({3: 3, 4: 5}), {Update(f, (), 4)}) == {
            Update(f, (), 5)
        }

    def test_pointwise(self, rule_vocab):
        g = rule_vocab.symbol("g")
        r = Renaming({3: 6, 4: 7})
        assert lift_update_set(r, {Update(g, (3,), 4)}) == {Update(g, (6,), 7)}

    def test_domain_error(self, rule_vocab):
        g = rule_vocab.symbol("g")
        with pytest.raises(DomainError):
            lift_update_set(Renaming({3: 6}), {Update(g, (3,), 4)})

    def test_error_outside_domain_is_the_maps_own(self, rule_vocab):
        u = Update(rule_vocab.symbol("g"), (3,), 4)
        with pytest.raises(DomainError, match="^element 4 outside renaming domain$"):
            lift_update(Renaming({3: 6}), u)
        # a similarity function is a plain element map, a dict
        with pytest.raises(KeyError, match="^4$"):
            lift_update({3: 6}, u)


class TestNaturality:
    def test_update_sets_commute_with_renaming(self, flip, rule_vocab):
        algorithms = [flip]
        c, f, g = (rule_vocab.symbol(n) for n in "cfg")
        rule = Par((Assign(f, (), mk(g, Term(c))), Assign(g, (Term(c),), Term(c))))
        rng = random.Random(5)
        states = tuple(random_state(rng, rule_vocab, 3) for _ in range(2))
        algorithms.append(Algorithm(rule_vocab, states, (True, False), program=rule))
        for algorithm in algorithms:
            for canonical in algorithm.canonical_states:
                for renaming in reference.renamings(canonical.base, 9):
                    copy = apply_renaming(canonical, renaming)
                    assert update_set(algorithm, copy) == lift_update_set(
                        renaming, update_set(algorithm, canonical)
                    )

    def test_apply_updates_inverts_diff(self, rule_vocab):
        rng = random.Random(9)
        c, d, f, g = (rule_vocab.symbol(n) for n in "cdfg")
        rule = Par((Assign(f, (), Term(c)), Assign(g, (Term(d),), Term(c))))
        for _ in range(20):
            state = random_state(rng, rule_vocab, 3)
            updates = apply_rule(state, rule)
            successor = apply_updates(state, updates)
            assert table_diff(state, successor) == updates

    def test_rule_delta_equals_diff_delta(self, rule_vocab):
        rng = random.Random(13)
        c, f, g = (rule_vocab.symbol(n) for n in "cfg")
        rule = Assign(f, (), mk(g, mk(g, Term(c))))
        states = tuple(random_state(rng, rule_vocab, 3) for _ in range(3))
        algorithm = Algorithm(rule_vocab, states, (True, True, True), program=rule)
        for canonical in algorithm.canonical_states:
            assert update_set(algorithm, canonical) == apply_rule(canonical, rule)


class TestApplyUpdates:
    def test_clashing_set_rejected(self, flip):
        f = _flip_symbols(flip)
        low = flip.canonical_states[0]
        with pytest.raises(ClashError):
            apply_updates(low, [Update(f, (), 3), Update(f, (), 4)])

    def test_update_leaving_carrier_rejected(self, flip):
        f = _flip_symbols(flip)
        low = flip.canonical_states[0]
        with pytest.raises(Exception):
            apply_updates(low, [Update(f, (), 9)])

    def test_undef_valued_update_clears_entry(self, rule_vocab):
        f = rule_vocab.symbol("f")
        state = State(rule_vocab, {0, 1, 2, 3}, {"f": {(): 3}})
        cleared = apply_updates(state, [Update(f, (), 2)])
        assert cleared == State(rule_vocab, {0, 1, 2, 3})
        assert table_diff(state, cleared) == {Update(f, (), 2)}


def reference_rule_updates(vocabulary, tables, rule):
    """A recursive walk of the rule tree over the reference evaluator, the
    reference the compiled rule is checked against: a term is evaluated only
    when the walk reaches it."""
    collected = {}
    evaluate = reference.evaluator(vocabulary, tables)

    def walk(r):
        if isinstance(r, Assign):
            args = tuple(evaluate(t) for t in r.args)
            value = evaluate(r.value)
            name = r.symbol.name
            if tables.get(name, {}).get(args, UNDEF) == value:
                return
            existing = collected.get((name, args))
            if existing is not None and existing != value:
                raise ClashError(f"clashing parallel updates at {name}{args}: {existing} vs {value}")
            collected[(name, args)] = value
        elif isinstance(r, Par):
            for sub in r.rules:
                walk(sub)
        else:
            guard = evaluate(r.guard)
            if guard not in (TRUE, FALSE):
                raise GuardError(f"guard {r.guard} evaluated to non-Boolean element {guard}")
            walk(r.then_rule if guard == TRUE else r.else_rule)

    walk(rule)
    return collected


def _wild_rule(rng, vocabulary, depth=2):
    """A random rule whose parallel members may share a target and whose
    guards are any terms, so that it can clash or meet a non-Boolean guard."""
    nonlogical = list(vocabulary.nonlogical)

    def build(d):
        roll = rng.random()
        if d <= 0 or roll < 0.4:
            symbol = rng.choice(nonlogical)
            args = tuple(_random_term(rng, vocabulary, 2) for _ in range(symbol.arity))
            return Assign(symbol, args, _random_term(rng, vocabulary, 2))
        if roll < 0.7:
            return Par(tuple(build(d - 1) for _ in range(rng.randint(1, 3))))
        return Cond(_random_term(rng, vocabulary, 2), build(d - 1), build(d - 1))

    return build(depth)


class TestCompiledRule:
    """Compiled rules against the recursive reference."""

    def test_suite_rules_match_the_reference(self, default_suite):
        checked = 0
        for instance in default_suite:
            algorithm = instance.algorithm
            if not algorithm.rule_based:
                continue
            for state in algorithm.canonical_states:
                # the canonical state first, then a spread of its renamed copies
                for renaming in itertools.islice(reference.renamings(state.base, 11), 0, None, 19):
                    tables = apply_renaming(state, renaming).interpretations
                    expected = reference_rule_updates(algorithm.vocabulary, tables, algorithm.program)
                    assert rule_updates(algorithm.compiled, tables) == expected
                    checked += 1
        assert checked > 1000

    def test_wild_rules_match_the_reference(self, default_suite):
        vocabularies = list(dict.fromkeys(i.algorithm.vocabulary for i in default_suite))
        rng = random.Random(31)
        seen = set()
        for vocabulary in vocabularies:
            for _ in range(12):
                rule = _wild_rule(rng, vocabulary)
                compiled = CompiledRule(vocabulary, rule)
                state = _random_state(rng, vocabulary, rng.randint(1, 4))
                tables = state.interpretations
                expected = outcome(lambda: reference_rule_updates(vocabulary, tables, rule))
                assert outcome(lambda: rule_updates(compiled, tables)) == expected
                seen.add(expected[0] if isinstance(expected, tuple) else dict)
        assert seen == {dict, GuardError, ClashError}

    def test_unknown_symbols_named_as_the_reference_does(self, default_suite):
        foreign = Symbol("zz", 0)
        rng = random.Random(32)
        outcomes = set()
        for vocabulary in dict.fromkeys(i.algorithm.vocabulary for i in default_suite):
            wider = Vocabulary(vocabulary.nonlogical + (foreign,))
            state = State(vocabulary, {3})
            for _ in range(8):
                rule = _wild_rule(rng, wider)
                used = {sub.root for t in rule_terms(rule) for sub in t.subterms()}
                expected = (
                    (VocabularyMismatchError, f"rule uses unknown symbol {foreign}")
                    if foreign in used
                    else True
                )
                built = outcome(lambda: Algorithm(vocabulary, (state,), (True,), program=rule).rule_based)
                assert built == expected
                outcomes.add(built is True)
                if foreign in used:  # on every branch, taken or not
                    assert outcome(lambda: apply_rule(state, rule)) == expected
        assert outcomes == {True, False}
