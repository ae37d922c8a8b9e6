"""Which renamings are tried, in which order, and which are skipped as symmetric.

Every isomorphism, automorphism and renaming walk goes through here, on raw
element maps; callers build a ``Renaming`` only for what they report.  The
search loop is ``kernel.isomorphism_maps``; its ``Renaming`` view is the
public ``isomorphisms_between``, and no other module imports either.

Renaming order: a carrier's sorted nonlogical elements go to the tuples of
distinct ids in 3 .. u-1 in lexicographic order.  Search order: the maps from
x onto y that fix ``fixing`` send x's sorted nonlogical elements outside it
(the free sources) to the permutations of y's, in lexicographic order; the
first is increasing, so an automorphism search yields the identity first.

Pointwise-fixing lemma: the maps found with ``fixing`` F are those found
without it that fix F pointwise, in the same order.  Proof: such a map sends
the free sources onto the targets outside F, so it is tried with F, and maps
that agree on F compare as their tuples over the free sources do.  So
``automorphisms(c, fixing=F)`` finds Aut(c) ∩ Fix(F) in (n - |F|)! tries.

Quotient lemma (``coset_first``): let G be a group of permutations of the
sorted elements E, and a set of injective tuples over E closed under
composition with G (t p is e -> t(p(e))).  The cosets t G partition it, each
has one least member, t is it exactly when t <= t p for every p in G, and an
increasing walk meets each coset first there.  Proof: t is in t G, t' = t p
gives t' G = t G as p G = G, and the t p are distinct, t being injective.
So a property constant on cosets holds for every tuple exactly when it holds
for every one yielded.  Renamings m, m' of a state c make one copy exactly
when m' = m a for an a in Aut(c): m(c) = m'(c) gives m^-1 m'(c) = c, and
m a(c) = m(c).
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .kernel import LOGICAL_IDS, Renaming, State, isomorphism_maps

_LOGICAL_FIXED = {e: e for e in LOGICAL_IDS}


def renaming_maps(base: frozenset[int], universe_size: int) -> Iterator[dict[int, int]]:
    """The element maps of ``renamings_into``, in its order, unvalidated."""
    sources = tuple(sorted(e for e in base if e not in LOGICAL_IDS))
    for perm in itertools.permutations(range(3, universe_size), len(sources)):
        yield {**_LOGICAL_FIXED, **dict(zip(sources, perm))}


def renamings_into(base: frozenset[int], universe_size: int) -> Iterator[Renaming]:
    """All renamings of a carrier into the universe, in the renaming order."""
    return map(Renaming, renaming_maps(base, universe_size))


def automorphisms(state: State, fixing: Iterable[int] = ()) -> Iterator[dict[int, int]]:
    """The element maps of ``state``'s automorphisms fixing ``fixing``, identity first."""
    return isomorphism_maps(state, state, fixing)


def first_isomorphism(states: Sequence[State], target: State) -> tuple[int, dict[int, int]] | None:
    """The position of the first of ``states`` isomorphic to ``target``, with
    the first isomorphism onto it in the search order; None when none is."""
    return next(((k, m) for k, state in enumerate(states) for m in isomorphism_maps(state, target)), None)


def first_isomorphic(states: Sequence[State]) -> list[int]:
    """For each state, the index of the first state isomorphic to it, itself
    when none earlier is; that one is an owner, so only owners are compared."""
    first: list[int] = []
    owners: list[int] = []
    owner_states: list[State] = []
    for i, state in enumerate(states):
        found = first_isomorphism(owner_states, state)
        if found is None:
            owners.append(i)
            owner_states.append(state)
        first.append(i if found is None else owners[found[0]])
    return first


def coset_first(
    tuples: Iterable[tuple[int, ...]], elements: tuple[int, ...], group: Iterable[dict[int, int]]
) -> Iterator[tuple[int, ...]]:
    """The members of ``tuples`` least among their compositions with
    ``group``, in order (quotient lemma); a tuple t over the sorted
    ``elements`` maps their k-th to t[k], and ``group`` must permute them."""
    position = {e: k for k, e in enumerate(elements)}
    twists = [
        operator.itemgetter(*[position[a[e]] for e in elements])
        for a in group
        if any(a[e] != e for e in elements)
    ]
    if not twists:
        return iter(tuples)
    return (t for t in tuples if all(t <= twist(t) for twist in twists))
