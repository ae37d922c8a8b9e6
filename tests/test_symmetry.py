"""The symmetry module against a plain permutation search.

The search is checked against ``reference.isomorphisms``, which shares no
code with it: every permutation of the target's sorted nonlogical elements,
in ``itertools.permutations`` order, each checked entry by entry and
validated as a ``Renaming``.  The states have tables closed under a random
permutation of their nonlogical elements, so their automorphism groups are
often large.
"""
from hypothesis import given, settings, strategies as st

from asmkit import LOGICAL_IDS, TRUE, Renaming, State, Symbol, Vocabulary, apply_renaming, isomorphisms_between
from asmkit.symmetry import automorphisms, isomorphism_maps
import reference

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_VOCABULARY = Vocabulary((Symbol("c", 0), Symbol("g", 1), Symbol("r", 2)))


def _fixes(renaming, fixing):
    return all(f in renaming.domain and renaming[f] == f for f in fixing)


@st.composite
def _symmetric_states(draw):
    """A state over c/0, g/1 and r/2 with at most six nonlogical elements:
    g is a permutation sigma on some of its cycles, r(e, sigma(e)) is true on
    others and c, when set, is a fixed point of sigma, so sigma is an
    automorphism; one random entry of g and of r may break that."""
    elements = list(range(3, 3 + draw(st.integers(0, 6))))
    sigma = dict(zip(elements, draw(st.permutations(elements))))
    cycles, seen = [], set()
    for start in elements:
        cycle, e = [], start
        while e not in seen:
            seen.add(e)
            cycle.append(e)
            e = sigma[e]
        if cycle:
            cycles.append(cycle)
    tables = {
        "g": {(e,): sigma[e] for cycle in cycles if draw(st.booleans()) for e in cycle},
        "r": {(e, sigma[e]): TRUE for cycle in cycles if draw(st.booleans()) for e in cycle},
    }
    still = [e for e in elements if sigma[e] == e]
    if still and draw(st.booleans()):
        tables["c"] = {(): draw(st.sampled_from(still))}
    base = [*LOGICAL_IDS, *elements]
    for name, arity in (("g", 1), ("r", 2)):
        tables[name].update(
            draw(st.dictionaries(st.tuples(*[st.sampled_from(base)] * arity), st.sampled_from(base), max_size=1))
        )
    return State(_VOCABULARY, base, tables)


@st.composite
def _state_pairs(draw):
    """A symmetric state x; y, a copy of x renamed onto its own ids or into
    fresh ones, or another symmetric state; and a few elements to fix."""
    x = draw(_symmetric_states())
    if draw(st.booleans()):
        elements = x.nonlogical_elements()
        pool = range(3, 3 + len(elements) + 3 * draw(st.integers(0, 1)))
        images = draw(st.permutations(list(pool)))[: len(elements)]
        y = apply_renaming(x, Renaming(dict(zip(elements, images))))
    else:
        y = draw(_symmetric_states())
    fixing = draw(st.sets(st.sampled_from(sorted(x.base | y.base)), max_size=3))
    return x, y, fixing


@_SETTINGS
@given(_state_pairs())
def test_search_yields_the_reference_maps_in_order(case):
    x, y, fixing = case
    expected = list(reference.isomorphisms(x, y))
    assert list(isomorphisms_between(x, y)) == expected
    assert [Renaming(m) for m in isomorphism_maps(x, y)] == expected
    assert [Renaming(m) for m in isomorphism_maps(x, y, fixing)] == [r for r in expected if _fixes(r, fixing)]


@_SETTINGS
@given(_symmetric_states(), st.data())
def test_automorphisms_fixing_are_the_filtered_group(state, data):
    fixing = data.draw(st.sets(st.sampled_from(sorted(state.base))))
    group = list(automorphisms(state))
    assert group[0] == {e: e for e in state.base}
    assert list(automorphisms(state, fixing=fixing)) == [a for a in group if all(a[f] == f for f in fixing)]


def _support_groups(state, delta):
    """The rule path's support group two ways, each as tuples over S, the
    sorted nonlogical elements that the tables or the encoded update set
    ``delta`` mention: the automorphisms of the state with carrier S and the
    same tables, and those of ``state`` fixing its other elements."""
    tables = state.interpretations
    mentioned = {e for table in tables.values() for args, v in table.items() for e in (*args, v)}
    mentioned.update(e for _, args, v in delta for e in (*args, v))
    support = sorted(mentioned.difference(LOGICAL_IDS))
    local = State(state.vocabulary, support, tables)
    by_support = [tuple(r[e] for e in support) for r in isomorphisms_between(local, local)]
    by_fixing = [tuple(a[e] for e in support) for a in automorphisms(state, fixing=state.base - mentioned)]
    return by_support, by_fixing


@_SETTINGS
@given(_symmetric_states(), st.data())
def test_support_group_is_the_pointwise_fixing_group(state, data):
    base = sorted(state.base)
    delta = data.draw(
        st.sets(
            st.one_of(
                st.tuples(st.just("c"), st.just(()), st.sampled_from(base)),
                st.tuples(st.just("g"), st.tuples(st.sampled_from(base)), st.sampled_from(base)),
            ),
            max_size=2,
        )
    )
    by_support, by_fixing = _support_groups(state, delta)
    assert by_fixing == by_support


def test_support_group_of_a_three_cycle():
    # g cycles 3 -> 4 -> 5 -> 3 and 6 is mentioned nowhere, so S = (3, 4, 5)
    # and both groups are the three rotations of the cycle.
    state = State(_VOCABULARY, [*LOGICAL_IDS, 3, 4, 5, 6], {"g": {(3,): 4, (4,): 5, (5,): 3}})
    by_support, by_fixing = _support_groups(state, frozenset())
    assert by_fixing == by_support == [(3, 4, 5), (4, 5, 3), (5, 3, 4)]
