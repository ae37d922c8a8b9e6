"""Built-in desk scenarios with exact expected values.

The *remark* scenario builds the three-element cyclic pair of states on
which similarity holds but the similarity function is not a partial
isomorphism.  The *example* scenario runs the two-element flip dynamics
through every subterm-closed witness over its vocabulary and checks that
update accessibility fails while membership transport holds vacuously, and
that coincidence-based bounded exploration fails via a fresh-element pair.
"""
from __future__ import annotations

import itertools

from .errors import HeadroomError
from .kernel import (
    FALSE_TERM,
    TRUE_TERM,
    UNDEF_TERM,
    LOGICAL_LABELS,
    Renaming,
    State,
    Symbol,
    Term,
    Vocabulary,
    apply_renaming,
    coincides_over,
    evaluate_term,
)
from .generate import flip_algorithm
from .postulates import check_new_be, check_old_be
from .report import ScenarioReport
from .similarity import (
    check_lemma_identity,
    check_partial_isomorphism,
    similarity_function,
    t_similar,
)
from .transition import Update, update_set


def _labelled(labels: dict[int, str], element: int) -> str:
    naming = dict(LOGICAL_LABELS)
    naming.update(labels)
    return naming.get(element, f"e{element}")


def render_update(update: Update, labels: dict[int, str]) -> str:
    args = ", ".join(_labelled(labels, a) for a in update.args)
    return f"({update.symbol.name}, ({args}), {_labelled(labels, update.value)})"


def render_update_set(updates, labels: dict[int, str]) -> str:
    rendered = sorted(render_update(u, labels) for u in updates)
    return "{" + ", ".join(rendered) + "}"


def remark_states() -> tuple[State, State, frozenset[Term], dict[int, str]]:
    """Two states over a three-element cycle differing only in one constant.

    Elements are labelled ``1``, ``2``, ``3``; the unary symbol cycles
    through them, the constant ``a`` names the first, and ``b`` names the
    second in one state and the third in the other.
    """
    vocabulary = Vocabulary((Symbol("a", 0), Symbol("b", 0), Symbol("f", 1)))
    base = {0, 1, 2, 3, 4, 5}
    cycle = {(3,): 4, (4,): 5, (5,): 3}
    x = State(vocabulary, base, {"f": cycle, "a": {(): 3}, "b": {(): 4}})
    y = State(vocabulary, base, {"f": cycle, "a": {(): 3}, "b": {(): 5}})
    witness = frozenset({Term(vocabulary.symbol("a")), Term(vocabulary.symbol("b"))})
    labels = {3: "1", 4: "2", 5: "3"}
    return x, y, witness, labels


def run_scenario_remark() -> ScenarioReport:
    """Similarity without partial isomorphism, with the exact violating chain."""
    x, y, witness, labels = remark_states()
    report = ScenarioReport("remark")

    report.add(t_similar(x, y, witness), "t-similar", "states are similar over {a, b}")

    sigma = similarity_function(x, y, witness)
    pairs = sorted(sigma.items())
    rendered = "{" + ", ".join(f"{_labelled(labels, k)}->{_labelled(labels, v)}" for k, v in pairs) + "}"
    report.add(
        pairs == [(3, 3), (4, 5)],
        "similarity-function",
        f"sigma = {rendered}",
    )

    lemma = check_lemma_identity(x, y, witness)
    report.add(lemma.passed, "lemma-identity", "holds on every composite witness term")

    partial = check_partial_isomorphism(x, y, witness)
    expected = (
        not partial.passed
        and partial.witness is not None
        and partial.witness["symbol"].name == "f"
        and partial.witness["args"] == (3,)
        and partial.witness["lhs"] == 5
        and partial.witness["rhs"] == 4
    )
    lhs_label = _labelled(labels, 5)
    rhs_label = _labelled(labels, 4)
    report.add(
        expected,
        "partial-isomorphism-fails",
        f"sigma(f_X(1)) = {lhs_label} != {rhs_label} = f_Y(sigma(1))",
    )

    # Feed the violation back through the primitives.
    f = x.vocabulary.symbol("f")
    a_value = evaluate_term(x, Term(x.vocabulary.symbol("a")))
    chain_lhs = sigma[x.value(f.name, (a_value,))]
    chain_rhs = y.value(f.name, (sigma[a_value],))
    report.add(
        chain_lhs == 5 and chain_rhs == 4 and chain_lhs != chain_rhs,
        "witness-recheck",
        f"{_labelled(labels, chain_lhs)} != {_labelled(labels, chain_rhs)}",
    )
    return report


def example_witness_candidates() -> list[frozenset[Term]]:
    """Every witness over the flip vocabulary: all subsets of four atomic terms."""
    f_term = Term(Symbol("f", 0))
    atoms = [TRUE_TERM, FALSE_TERM, UNDEF_TERM, f_term]
    subsets = []
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            subsets.append(frozenset(combo))
    return sorted(subsets, key=lambda s: (len(s), sorted(map(str, s))))


def _witness_name(terms: frozenset[Term]) -> str:
    return "{" + ",".join(sorted(str(t) for t in terms)) + "}"


def run_scenario_example(universe_size: int = 7) -> ScenarioReport:
    """Accessibility is what separates the two checks on the flip dynamics."""
    if universe_size < 7:
        raise HeadroomError(
            f"universe of size {universe_size} is too small for the flip scenario; need 7"
        )
    algorithm = flip_algorithm()
    labels = {3: "a", 4: "b", 5: "c"}
    report = ScenarioReport("example")
    candidates = example_witness_candidates()
    report.add(len(candidates) == 16, "witness-count", "all 16 subterm-closed witnesses")

    f_symbol = algorithm.vocabulary.symbol("f")
    low = algorithm.canonical_states[0]
    stranded = Update(f_symbol, (), 4)
    for terms in candidates:
        name = _witness_name(terms)
        new = check_new_be(algorithm, terms, universe_size)
        witness = new.witness or {}
        report.add(
            not new.passed
            and witness.get("requirement") == "i"
            and witness.get("update") == stranded
            and witness.get("state") == low,
            f"requirement-i-fails[{name}]",
            f"stranded update {render_update(stranded, labels)}",
        )
        report.add(
            witness.get("requirement_ii_passed") is True,
            f"requirement-ii-holds[{name}]",
            "no accessible update is in any update set",
        )
        old = check_old_be(algorithm, terms, universe_size)
        recheck = False
        if not old.passed and old.witness is not None:
            left, right = old.witness["left"], old.witness["right"]
            recheck = (
                coincides_over(left, right, terms)
                and update_set(algorithm, left) != update_set(algorithm, right)
            )
        report.add(
            not old.passed and recheck,
            f"old-be-fails[{name}]",
            "coinciding pair with different update sets, witness re-checked",
        )

    x = low
    y = apply_renaming(x, Renaming({3: 3, 4: 5}))
    full = frozenset({TRUE_TERM, FALSE_TERM, UNDEF_TERM, Term(f_symbol)})
    dx = update_set(algorithm, x)
    dy = update_set(algorithm, y)
    report.add(
        coincides_over(x, y, full),
        "fresh-pair-coincides",
        "the pair coincides over the largest witness, hence over all of them",
    )
    report.add(
        dx == frozenset({Update(f_symbol, (), 4)})
        and dy == frozenset({Update(f_symbol, (), 5)}),
        "fresh-pair-deltas",
        f"delta X = {render_update_set(dx, labels)} != "
        f"{render_update_set(dy, labels)} = delta Y",
    )
    return report
