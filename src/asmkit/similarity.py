"""Similarity of states over a witness set and accessibility of updates.

Two states are similar over a term set when their term values realize the
same equality pattern; the similarity function is then the bijection between
the two value sets sending each term's value in one state to its value in
the other.  An element is accessible when some witness term names it; an
update is accessible when all its components are.

One core serves each notion, and the checkers compute on it alone:
``equality_pattern`` encodes every equality pattern, ``similarity_map``
builds the similarity function's element map from values already evaluated,
and ``transition.within``, on an encoded update, is the one accessibility
test.  ``SimilarityFunction``, a ``kernel.InjectiveMap`` like ``Renaming``,
is a view built for callers and reports (``similarity_of_vectors``, and
``similarity_function`` after evaluating), as ``Update`` is.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .errors import (
    AsmError,
    InaccessibleUpdateError,
    NotSimilarError,
    PreconditionError,
)
from .kernel import (
    InjectiveMap,
    State,
    Term,
    evaluate_set,
    evaluate_terms,
    interpret,
    is_subterm_closed,
    sorted_terms,
)
from .report import CheckReport
from .transition import Update


class SimilarityFunction(InjectiveMap):
    """Finite bijection between the value sets of two similar states."""

    __slots__ = ()

    def __init__(self, mapping: Mapping[int, int]) -> None:
        m = dict(mapping)
        if len(set(m.values())) != len(m):
            raise NotSimilarError("similarity mapping is not injective")
        self._map = m

    def _outside(self, element: int) -> AsmError:
        return InaccessibleUpdateError(
            f"element {element} is outside the similarity function's domain"
        )

    def apply(self, element: int) -> int:
        return self[element]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}->{v}" for k, v in self.items())
        return f"SimilarityFunction({pairs})"


def equality_pattern(vector: Sequence[int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """First-occurrence encoding of a value vector, and the value->index map.

    Entry i is the first index holding the value at i, so two vectors realize
    the same equality pattern exactly when their encodings are equal.
    """
    first: dict[int, int] = {}
    sig = []
    for i, v in enumerate(vector):
        first.setdefault(v, i)
        sig.append(first[v])
    return tuple(sig), first


def t_similar(x: State, y: State, terms: Iterable[Term]) -> bool:
    """True iff the two states realize the same equality pattern on the terms."""
    order = sorted_terms(terms)
    return (
        equality_pattern(evaluate_terms(x, order))[0]
        == equality_pattern(evaluate_terms(y, order))[0]
    )


def similarity_function(x: State, y: State, terms: Iterable[Term]) -> SimilarityFunction:
    """The bijection sending each term's value in ``x`` to its value in ``y``."""
    order = sorted_terms(terms)
    return similarity_of_vectors(evaluate_terms(x, order), evaluate_terms(y, order), order)


def similarity_of_vectors(
    xs: Sequence[int], ys: Sequence[int], order: Sequence[Term], pattern: Sequence[int] | None = None
) -> SimilarityFunction:
    """The ``SimilarityFunction`` view of ``similarity_map``."""
    return SimilarityFunction(similarity_map(xs, ys, order, pattern))


def similarity_map(
    xs: Sequence[int], ys: Sequence[int], order: Sequence[Term], pattern: Sequence[int] | None = None
) -> dict[int, int]:
    """The element map of the similarity function of two states given their
    values of the terms in ``order``; ``NotSimilarError`` unless the value
    vectors realize the same equality pattern.  ``pattern``, when given, is
    ``xs``' equality pattern, already known (an injective renaming keeps a
    pattern)."""
    if pattern is None:
        pattern = equality_pattern(xs)[0]
    if [ys[first] for first in pattern] != list(ys):
        for i, first in enumerate(pattern):
            if ys[i] != ys[first]:
                raise NotSimilarError(
                    f"states are not similar over the witness: terms {order[first]} and "
                    f"{order[i]} share a value on one side only"
                )
    mapping = dict(zip(xs, ys))
    if len(set(mapping.values())) != len(mapping):
        raise NotSimilarError(
            "states are not similar over the witness: value pattern collapses on one side"
        )
    return mapping


def check_lemma_identity(x: State, y: State, terms: Iterable[Term]) -> CheckReport:
    """Verify the homomorphism identity on every composite witness term.

    For subterm-closed witnesses and similar states this always passes; a
    failure signals a defect in evaluation or similarity, not in the inputs.
    """
    terms = frozenset(terms)
    if not is_subterm_closed(terms):
        raise PreconditionError("witness set is not closed under subterms")
    sigma = similarity_function(x, y, terms)
    for t in sorted_terms(terms):
        if t.root.arity == 0:
            continue
        args = tuple(evaluate_terms(x, t.children))
        lhs = sigma.apply(interpret(x, t.root, args))
        rhs = interpret(y, t.root, tuple(sigma.apply(a) for a in args))
        if lhs != rhs:
            return CheckReport(
                False,
                "lemma-identity",
                f"term {t}: {lhs} != {rhs}",
                witness={"term": t, "lhs": lhs, "rhs": rhs, "left": x, "right": y},
            )
    return CheckReport(True, "lemma-identity")


def check_partial_isomorphism(x: State, y: State, terms: Iterable[Term]) -> CheckReport:
    """Check the homomorphism identity on every tuple over the similarity domain.

    Unlike the witness-term check this ranges over all argument tuples whose
    image stays inside the domain, so it can genuinely fail for similar
    states; the first violated tuple is reported.
    """
    sigma = similarity_function(x, y, terms)
    domain = sorted(sigma.domain)
    for symbol in sorted(x.vocabulary.symbols):
        for args in itertools.product(domain, repeat=symbol.arity):
            fx = interpret(x, symbol, args)
            if fx not in sigma.domain:
                continue
            lhs = sigma.apply(fx)
            rhs = interpret(y, symbol, tuple(sigma.apply(a) for a in args))
            if lhs != rhs:
                return CheckReport(
                    False,
                    "partial-isomorphism",
                    f"symbol {symbol.name} at {args}: {lhs} != {rhs}",
                    witness={
                        "symbol": symbol,
                        "args": args,
                        "lhs": lhs,
                        "rhs": rhs,
                        "left": x,
                        "right": y,
                    },
                )
    return CheckReport(True, "partial-isomorphism")


def is_accessible_update(state: State, terms: Iterable[Term], update: Update) -> bool:
    """True iff the value and every argument of the update are accessible."""
    return update.within(evaluate_set(state, terms))
