"""Similarity of states over a witness set and accessibility of updates.

Two states are similar over a term set when their term values realize the
same equality pattern; the similarity function is then the bijection between
the two value sets sending each term's value in one state to its value in
the other.  An element is accessible when some witness term names it; an
update is accessible when all its components are.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .errors import (
    InaccessibleUpdateError,
    NotSimilarError,
    PreconditionError,
)
from .kernel import (
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


class SimilarityFunction:
    """Finite bijection between the value sets of two similar states."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int]) -> None:
        m = dict(mapping)
        if len(set(m.values())) != len(m):
            raise NotSimilarError("similarity mapping is not injective")
        self._map = m

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._map)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self._map.values())

    def apply(self, element: int) -> int:
        try:
            return self._map[element]
        except KeyError:
            raise InaccessibleUpdateError(
                f"element {element} is outside the similarity function's domain"
            ) from None

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._map.items())

    def inverse(self) -> "SimilarityFunction":
        return SimilarityFunction({v: k for k, v in self._map.items()})

    @property
    def is_identity(self) -> bool:
        return all(k == v for k, v in self._map.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimilarityFunction) and self._map == other._map

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}->{v}" for k, v in self.items())
        return f"SimilarityFunction({pairs})"


def t_similar(x: State, y: State, terms: Iterable[Term]) -> bool:
    """True iff the two states realize the same equality pattern on the terms."""
    order = sorted_terms(terms)
    xs = evaluate_terms(x, order)
    ys = evaluate_terms(y, order)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if (xs[i] == xs[j]) != (ys[i] == ys[j]):
                return False
    return True


def similarity_function(x: State, y: State, terms: Iterable[Term]) -> SimilarityFunction:
    """The bijection sending each term's value in ``x`` to its value in ``y``."""
    order = sorted_terms(terms)
    mapping: dict[int, int] = {}
    seen: dict[int, Term] = {}
    for t, vx, vy in zip(order, evaluate_terms(x, order), evaluate_terms(y, order)):
        if vx in mapping:
            if mapping[vx] != vy:
                raise NotSimilarError(
                    f"states are not similar over the witness: terms {seen[vx]} and {t} "
                    f"share a value on one side only"
                )
        else:
            mapping[vx] = vy
            seen[vx] = t
    if len(set(mapping.values())) != len(mapping):
        raise NotSimilarError(
            "states are not similar over the witness: value pattern collapses on one side"
        )
    return SimilarityFunction(mapping)


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
    accessible = evaluate_set(state, terms)
    return update.value in accessible and all(a in accessible for a in update.args)


def lift_accessible_update(sigma: SimilarityFunction, update: Update) -> Update:
    """Component-wise application of the similarity function to an update."""
    return Update(
        update.symbol,
        tuple(sigma.apply(a) for a in update.args),
        sigma.apply(update.value),
    )
