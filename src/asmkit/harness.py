"""Desk-scale verification that the two bounded-exploration checks agree.

Besides running both checkers and comparing verdicts, the verifier replays
the transport argument behind the agreement on a bounded, deterministic
sample of similar state pairs: route each accessible update through a
disjoint copy and then the value replacement (case 1 when the copy is the
pair's first state itself and the value sets are disjoint, case 2
otherwise), and confirm the transported update's membership claim.  Pairs
whose similarity function moves a logical element cannot be expressed as
renamings here, because the three logical ids are global; those chains are
confirmed by direct membership transport and counted separately.  Any other
pair shares each logical witness value, so case 1 is reached only by pairs
with no logical witness value; the generated witnesses all hold the logical
constant terms, and none of their pairs takes case 1.

Both checks and the replay share one ``ClosureIndex``, and no copy or
rule-derived update set is kept across checks.  None of them enumerates the
closure: the replay reads the first ``REPLAY_PAIR_LIMIT + 1`` copies of each
similarity class, which the index streams lazily in key order, so its cost
hardly grows with the universe.  A class with one owner streams its copies
in a block order kept on the algorithm and builds no copy key; the replay
samples its pairs by position and reads no key either.

The replay computes on element maps and encoded updates alone.  A copy is
the element map that renames its canonical state, a pair's similarity
function the element map ``similarity_map`` reads off the copies' witness
values, and an update an encoded triple, accessible by ``transition.within``.
A pair is routed only when it carries an accessible update, and once, as the
route does not depend on the update.  Each construction is a map composed
with the copy's, checked by ``renaming_map``; the copy it makes is the
canonical state's tables renamed by the composed map, evaluated by the
index's compiled witness program, and its update set is the canonical
encoded one lifted through the same map.  ``_pair_route`` proves these are
the tables and update sets of the states the constructions stand for, so the
replay's assertions test the constructions themselves.  Each pure step is
computed once per replay and distinct input, keyed by small values that
determine it (``_Constructions``): a pair's similarity function by the
pair's witness values, a routed copy's key and carrier once per copy, and
each construction with the maps it is made of, among them a replaced
copy's similarity function sigma' and replacement xi.  Every comparison
against a pair's target still runs for each pair.  ``State``s and
``Update``s are built only for a failure report's witness, and
``construct_case1_state`` and ``construct_disjoint_copy`` run the same
constructions and build the ``State`` and ``Renaming`` for their callers.
The tests check the replay's routes against the paper's constructions
written out on ``State``s in ``tests/reference.py``, which shares no code
with these.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .errors import (
    AsmError,
    CaseHypothesisError,
    HeadroomError,
    InvalidRenamingError,
    VocabularyMismatchError,
)
from .generate import GeneratorConfig, generate_algorithm_suite
from .kernel import (
    LOGICAL_IDS,
    Renaming,
    State,
    Term,
    TermProgram,
    apply_renaming,
    lazy_property,
    rename_tables,
    renaming_map,
    sorted_terms,
)
from .postulates import ClosureIndex, Copy, check_new_be, check_old_be
from .report import CheckReport
from .similarity import equality_pattern, similarity_map
from .transition import Algorithm, Encoded, decoded, lift_encoded, lift_encoded_set, within


# The replay samples at most this many pairs per similarity class and carries
# at most this many accessible updates of each pair.
REPLAY_PAIR_LIMIT = 24
REPLAY_UPDATE_LIMIT = 8


def construct_case1_state(
    x: State, y: State, terms: frozenset[Term]
) -> tuple[State, Renaming]:
    """Replace each witness value of ``x`` by the corresponding value of ``y``.

    Requires similar states over one vocabulary with disjoint witness-value
    sets up to logical elements the similarity function fixes.  The returned
    renaming coincides with the similarity function on the witness values and
    is the identity on the rest of the carrier; the copy coincides with ``y``
    over the witness.  This wrapper checks the vocabularies before anything
    else, evaluates the witness on both states, takes ``x`` as the copy of
    itself by the identity map and runs ``_replaced_copy``, the construction
    the proof replay runs on element maps; it builds the ``State`` and
    ``Renaming`` from the map that construction checked.
    """
    if x.vocabulary != y.vocabulary:
        raise VocabularyMismatchError("states have different vocabularies")
    program = TermProgram(x.vocabulary, sorted_terms(terms))
    xs, ys = program.evaluate(x), program.evaluate(y)
    sigma = similarity_map(xs, ys, program.terms)
    identity = {e: e for e in x.base}
    # one copy, x itself, in a memo of its own, so any key will do
    replaced = _replaced_copy(_Constructions(program, (x,)), (), 0, identity, lambda: sigma, ys)
    renaming = Renaming(replaced.step)
    return apply_renaming(x, renaming), renaming


def _compose(outer: dict[int, int], inner: dict[int, int]) -> dict[int, int]:
    """The element map of ``outer`` after ``inner``, over ``inner``'s domain."""
    return {e: outer[v] for e, v in inner.items()}


class _Source:
    """A copy x = r(c) of the canonical state c at ``index`` that pairs route
    from, as the constructions read it: its key, c's index and the map r
    (``mapping``) as a hashable value; the nonlogical part of r's image (x's
    carrier); and x's witness values as a set.  All are functions of c and
    r, made once per copy."""

    __slots__ = ("index", "mapping", "key", "carrier", "values")

    def __init__(self, index: int, mapping: dict[int, int], vector: tuple[int, ...]) -> None:
        self.index, self.mapping = index, mapping
        self.key = (index, frozenset(mapping.items()))
        self.carrier = set(mapping.values()).difference(LOGICAL_IDS)
        self.values = set(vector)


class _Built:
    """A constructed copy s(x) of the copy x = r(c) of the canonical state c:
    the renaming s, checked by ``renaming_map``; the composed map s r, a
    renaming of c; and the copy's witness values, evaluated on c's tables
    renamed by s r.  Its equality pattern (read for a detached copy) and its
    update set, c's encoded one lifted through s r (read for a replaced
    copy), are derived on first read."""

    def __init__(
        self,
        step: dict[int, int],
        composed: dict[int, int],
        vector: tuple[int, ...],
        canonical_updates: frozenset[Encoded],
    ) -> None:
        self.step, self.composed, self.vector = step, composed, vector
        self._canonical_updates = canonical_updates

    @lazy_property
    def pattern(self) -> tuple[int, ...]:
        return equality_pattern(self.vector)[0]

    @lazy_property
    def updates(self) -> frozenset[Encoded]:
        return lift_encoded_set(self.composed, self._canonical_updates)


class _Constructions:
    """The pure steps of one proof replay, each computed once per distinct
    input: pairs' similarity functions, the copies pairs route from, and the
    copies the constructions build.

    Each step is keyed by small values that determine it, c being the
    canonical state at index i and r the map of the copy x = r(c) a pair
    routes from:
    - A similarity function, ``similarity_map`` of a pair's witness values,
      by (i, x's values, y's values): it reads those values, the replay's
      one term order and c's equality pattern, a function of i.
    - A ``_Source``, by the copy x itself (held while the replay runs, so no
      other copy takes its id); its key (i, r as a set of pairs) determines
      c, r, x's carrier and x's values.
    - A detached copy eta(x), by ("eta", source key, moved, allowed): with
      x's carrier the ids ``moved`` and ``allowed`` determine eta, which
      sends ``moved`` to ``allowed`` in order and is the identity on the
      rest of x's carrier.  None is built when ``moved`` is empty: eta(x)
      is then x itself.
    - A replaced copy xi(eta(x)), by ("xi", detached key, y's values): the
      detached key determines eta r and hence eta(x)'s values and pattern,
      and sigma', ``similarity_map`` of those values and y's, is a function
      of them and y's values; xi is sigma' on eta(x)'s values and the
      identity on the rest of its carrier, the image of eta r.  A hit
      computes neither sigma' nor xi.

    A detached key starts with "eta" and a replaced one with "xi", so no two
    kinds of copy share a key.  Building a copy checks its map s with
    ``renaming_map``, composes it with r, renames c's tables by the
    composition and evaluates them, and, when read, derives the values'
    equality pattern and lifts c's encoded update set through the
    composition: functions of c, r and s alone, which the key determines,
    so a later pair with the same key gets what it would have computed.

    Every comparison against a pair's target y runs for each pair, outside
    the memo: a coinciding pair's update sets, the detached copy's values
    against y's, the replaced copy's values and update set against y's, and
    each transport.  A step that raises stores nothing, so it fails for
    every pair that asks for it.  One instance serves one replay, and
    nothing outlives it: no copy or rule-derived update set crosses checks.
    The standalone constructions use one without update sets or patterns,
    which they do not read.
    """

    def __init__(
        self,
        program: TermProgram,
        states: Sequence[State],
        updates: Sequence[frozenset[Encoded]] = (frozenset(),),
        patterns: Sequence[tuple[int, ...]] = (),
    ) -> None:
        self.program, self.states, self.updates, self.patterns = program, states, updates, patterns
        self._similar: dict[tuple, dict[int, int]] = {}
        self._sources: dict[int, tuple[Copy, _Source]] = {}
        self._built: dict[tuple, _Built] = {}

    def similarity(self, i: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> dict[int, int]:
        """The similarity function's element map from the values ``xs`` of a
        copy of the canonical state at ``i`` to the values ``ys``."""
        key = (i, xs, ys)
        sigma = self._similar.get(key)
        if sigma is None:
            sigma = self._similar[key] = similarity_map(xs, ys, self.program.terms, self.patterns[i])
        return sigma

    def source(self, x: Copy) -> _Source:
        """The ``_Source`` of the copy ``x``, made on its first use."""
        held = self._sources.get(id(x))
        if held is None:
            held = self._sources[id(x)] = (x, _Source(x.canonical_index, x.mapping, x.vector))
        return held[1]

    def build(self, key: tuple, i: int, x_map: dict[int, int], make_step) -> _Built:
        """The copy s(x) of x = ``x_map``(c) for the canonical state c at
        ``i``, s = ``make_step()``, built on the first use of ``key``, which
        must determine ``i``, ``x_map`` and s; ``make_step`` runs only then."""
        built = self._built.get(key)
        if built is None:
            step = renaming_map(make_step())
            composed = _compose(step, x_map)
            canonical = self.states[i]
            tables = rename_tables(canonical.interpretations, composed)
            vector = self.program.evaluate_tables(canonical.vocabulary, tables)
            built = self._built[key] = _Built(step, composed, vector, self.updates[i])
        return built


def _replaced_copy(
    constructions: _Constructions,
    key: tuple,
    i: int,
    x_map: dict[int, int],
    make_sigma,
    y_vector: tuple[int, ...],
) -> _Built:
    """The value replacement xi(x) of the copy x = r(c), with c the
    canonical state at ``i``, r = ``x_map`` and ``key`` its key in
    ``_Constructions``: xi is sigma = ``make_sigma()`` on x's witness values
    and the identity on the rest of x's carrier, checked by
    ``renaming_map`` (``CaseHypothesisError`` when it is no renaming).  The
    replaced copy xi(x) = (xi r)(c), evaluated by the witness program on c's
    tables renamed by xi r, must have the values ``y_vector``; that is
    checked on every call, and sigma and xi are computed only when the copy
    is built."""

    def xi() -> dict[int, int]:
        sigma = make_sigma()
        nonlogical_shared = sorted(v for v in sigma.keys() & sigma.values() if v not in LOGICAL_IDS)
        if nonlogical_shared:
            raise CaseHypothesisError(
                f"witness value sets share nonlogical elements {nonlogical_shared}"
            )
        step = {e: e for e in x_map.values()}
        step.update(sigma)
        return step

    try:
        replaced = constructions.build(key, i, x_map, xi)
    except InvalidRenamingError as exc:
        raise CaseHypothesisError(f"value replacement is not a renaming: {exc}") from exc
    if replaced.vector != y_vector:
        raise AsmError("internal: value-replacement copy fails to coincide")
    return replaced


def construct_disjoint_copy(
    x: State, y: State, terms: frozenset[Term], universe_size: int
) -> tuple[State, Renaming]:
    """An isomorphic copy of ``x`` with no nonlogical witness value of ``y``.

    The states must share a vocabulary.  The elements of ``x``'s nonlogical
    carrier that are nonlogical witness values of ``y`` move, in order, to
    the least ids of 3 .. u-1 outside those values and ``x``'s other
    elements, and the rest stay; so the identity is returned when none is.
    ``HeadroomError`` is raised only when there are too few such ids, which
    never happens at the documented headroom of twice the carrier bound
    (the fit lemma of ``_detached_copy``).  This wrapper checks the
    vocabularies before anything else, evaluates the witness on both states,
    takes ``x`` as the copy of itself by the identity map and runs
    ``_detached_copy``, the construction the proof replay runs on element
    maps; it builds the ``State`` and ``Renaming`` from the map that
    construction checked.
    """
    if x.vocabulary != y.vocabulary:
        raise VocabularyMismatchError("states have different vocabularies")
    program = TermProgram(y.vocabulary, sorted_terms(terms))
    source = _Source(0, {e: e for e in x.base}, program.evaluate(x))
    _, detached = _detached_copy(_Constructions(program, (x,)), source, program.evaluate(y), universe_size)
    renaming = Renaming(source.mapping if detached is None else detached.step)
    return apply_renaming(x, renaming), renaming


def _detached_copy(
    constructions: _Constructions, source: _Source, y_vector: tuple[int, ...], universe_size: int
) -> tuple[tuple, _Built | None]:
    """The key of the copy eta(x) of the copy x = r(c) that ``source``
    holds, detached from a state y with witness values ``y_vector``; and
    that copy, or None when eta moves nothing.  With Y the nonlogical values
    of y and C x's carrier, eta sends the elements M of C among Y, in order,
    to the least ids of 3 .. u-1 outside Y and C, and is the identity on the
    rest of C; it is checked by ``renaming_map``, and made only when the
    copy is built.  When M is empty, eta is the identity on C and eta(x) is
    x, so nothing is built and x's own values stand for the copy's.  The
    detached copy eta(x) = (eta r)(c), evaluated by the witness program on
    c's tables renamed by eta r, must share no value with Y, which is
    checked on every call: eta(x)'s carrier is C without M and ids outside
    Y.

    Fit lemma.  Y and C share exactly M, so the ids of 3 .. u-1 outside
    both number at least (u-3) - |Y| - |C| + |M|.  Y lies in y's nonlogical
    carrier, so with n the size of the larger nonlogical carrier, |Y| <= n
    and |C| <= n, and at headroom u - 3 >= 2n there are at least |M| free
    ids.  So ``HeadroomError`` is raised only below that headroom."""
    carrier = source.carrier
    y_values = {v for v in y_vector if v not in LOGICAL_IDS}
    moved = tuple(sorted(carrier & y_values))
    excluded = y_values | carrier
    allowed = tuple(itertools.islice((e for e in range(3, universe_size) if e not in excluded), len(moved)))
    if len(allowed) < len(moved):
        raise HeadroomError(f"universe of size {universe_size} has no room for a disjoint copy")

    def eta() -> dict[int, int]:
        step = {e: e for e in carrier}
        step.update(zip(moved, allowed))
        return step

    key = ("eta", source.key, moved, allowed)
    detached = constructions.build(key, source.index, source.mapping, eta) if moved else None
    if y_values.intersection(source.values if detached is None else detached.vector):
        raise AsmError("internal: disjoint copy still shares nonlogical witness values")
    return key, detached


# The name a route's failure messages give the copy it constructs.
_CONSTRUCTED = {"case1": "replacement", "case2": "composed"}


def _pair_route(
    constructions: _Constructions, universe_size: int, x: Copy, y: Copy, sigma: dict[int, int]
) -> tuple[str, tuple[_Built, ...]]:
    """The proof's route from ``x`` to ``y`` and the copies built along it.

    The route does not depend on the carried update, so it is found once
    per pair: no construction when ``sigma`` moves a logical element
    ("direct"), and otherwise the one chain, a disjoint copy eta
    (``_detached_copy``) followed by the value replacement xi
    (``_replaced_copy``).  When eta moves nothing, eta(x) is x and sigma' is
    ``sigma``, so nothing is built for eta and xi is the chain's one step.
    The chain is "case1" when eta moves nothing and the witness-value sets
    are disjoint, and "case2" otherwise.  The constructed copy must have
    ``y``'s update set.  Each pure step is computed once per distinct input in one
    replay (``_Constructions``): x's source key, carrier and values once per
    copy, each copy once per key, and with a replaced copy the similarity
    function sigma' and the map xi it is made of.  Many pairs of a class
    share their first member as x, and so their detached copy and often
    their replaced one.  Every comparison against ``y`` still runs for each
    pair.

    Case-1 lemma.  Let x's witness values miss y's, and sigma fix the
    logical ids.  sigma sends a logical value to itself, which y would then
    share, so neither holds one, and the paper's replacement xi, sigma on
    x's values and the identity on the rest of x's carrier, maps no
    nonlogical element onto a logical one.  It is injective exactly when no
    element of x's carrier outside x's values is a value of y, that is,
    since x's values miss y's, exactly when x's carrier misses y's
    nonlogical values, that is, exactly when eta moves nothing.  Then
    eta(x) = x, sigma' = sigma and the chain's xi is the paper's; so the
    chain is labelled "case1" exactly when xi(x) is a renaming, and
    otherwise the chain is case 2's, with a detached copy; pairs whose
    values meet take case 2 either way.  Transport through eta, when it is
    the identity, moves nothing, so leaving it out of the steps, in either
    case, changes no lift.  So the labels stay the paper's, and reports,
    which name a route but none of its maps, stay byte for byte the same.

    Nothing is built but element maps, ``sigma`` the similarity function's
    (``similarity_map``).  With x = r(c) for x's canonical state c and r =
    ``x.mapping``, each constructed copy is a composed map of c: eta r, then
    xi eta r.  It is evaluated on c's tables renamed by that map, and its
    update set is c's encoded one lifted through it.  These are exactly what
    the ``State``s that ``apply_renaming`` built gave: renaming r(c) by eta
    sends each argument and value of c's tables through r, then eta, which
    is the same as through eta r, and eta covers r(c)'s carrier, which holds
    every element the tables mention; a renaming fixes undef and is
    injective, so renamed normalized tables are normalized, and ``State``
    keeps them as they are.  Likewise for xi, and for lifting an update set,
    stage by stage or through the composition.  r passes ``Renaming``'s
    checks (see ``Copy``), and eta and xi are checked by ``renaming_map``,
    so the composed maps are renamings of c.  Encoded updates over one
    vocabulary are equal exactly when the updates are, so the comparisons
    decide what comparing ``Update`` sets decided.  So every check still
    tests the constructions themselves.
    """
    if any(v != w for v, w in sigma.items() if v in LOGICAL_IDS or w in LOGICAL_IDS):
        return "direct", ()
    source = constructions.source(x)
    key, detached = _detached_copy(constructions, source, y.vector, universe_size)
    if detached is None:
        steps, x_map, make_sigma = (), source.mapping, lambda: sigma
    else:
        steps, x_map = (detached,), detached.composed

        def make_sigma() -> dict[int, int]:
            return similarity_map(detached.vector, y.vector, constructions.program.terms, detached.pattern)

    replaced = _replaced_copy(constructions, ("xi", key, y.vector), source.index, x_map, make_sigma, y.vector)
    case1 = source.values.isdisjoint(y.vector) and source.carrier.isdisjoint(y.vector)
    route = "case1" if case1 else "case2"
    if replaced.updates != y.encoded_delta:
        raise AsmError(f"replayed chain broken: {_CONSTRUCTED[route]} copy and target disagree on updates")
    return route, steps + (replaced,)


def _transport(
    route: str, steps: tuple[_Built, ...], sigma: dict[int, int], update: Encoded
) -> Encoded:
    """Carry one accessible encoded update along the renamings of the pair's
    route; it must land where the similarity function's element map
    ``sigma`` sends it."""
    expected = lift_encoded(sigma, update)
    moved = update
    for built in steps:
        moved = lift_encoded(built.step, moved)
    if steps and moved != expected:
        raise AsmError(f"replayed chain broken: {_CONSTRUCTED[route]} transport differs from similarity lift")
    return expected


def _sample_pairs(members: list[Copy], limit: int) -> list[tuple[Copy, Copy]]:
    """Up to ``limit`` distinct pairs of a similarity class's members, in key
    order: the first member with each other one, then the first member of
    each canonical state with each other's, then the first with the last.

    The first ``limit + 1`` members of a class give the pairs the whole class
    gives, so the replay reads no more: with at least ``limit + 1`` members,
    the first member's pairs with the next ``limit`` fill the sample before
    any other pair is pushed, and a smaller class is read whole.  A class
    streams distinct copies, so pairs are told apart by the members'
    positions, and no copy's key is read.
    """
    pairs: list[tuple[Copy, Copy]] = []
    seen: set[tuple[int, int]] = set()

    def push(a: int, b: int) -> None:
        if a == b or len(pairs) >= limit or (a, b) in seen:
            return
        seen.add((a, b))
        pairs.append((members[a], members[b]))

    for other in range(1, len(members)):
        push(0, other)
    representatives: dict[int, int] = {}  # canonical index -> first position, in key order
    for position, m in enumerate(members):
        representatives.setdefault(m.canonical_index, position)
    for a, b in itertools.combinations(representatives.values(), 2):
        push(a, b)
    if len(members) > 2:
        push(0, len(members) - 1)
    return pairs


def verify_equivalence(algorithm: Algorithm, terms: frozenset[Term], universe_size: int) -> CheckReport:
    """Both bounded-exploration verdicts must agree; on a double pass the
    transport argument is additionally replayed on sampled similar pairs."""
    label = "equivalence"
    index = ClosureIndex(algorithm, terms, universe_size, closed=True)
    old = check_old_be(algorithm, terms, universe_size, index=index)
    new = check_new_be(algorithm, terms, universe_size, index=index)
    stats: dict[str, int | str] = {"old-be": old.verdict, "new-be": new.verdict}
    if old.passed != new.passed:
        return CheckReport(
            False,
            label,
            "bounded-exploration verdicts disagree",
            witness={"old": old, "new": new, "terms": index.terms},
            stats=stats,
        )
    if old.passed and new.passed:
        replay = _replay_proof(index)
        if isinstance(replay, CheckReport):
            return replay
        stats.update(replay)
    return CheckReport(True, label, stats=stats)


def _replay_proof(index: ClosureIndex) -> dict[str, int] | CheckReport:
    terms, program, vocabulary = index.terms, index.program, index.algorithm.vocabulary
    constructions = _Constructions(program, index.algorithm.canonical_states, index.deltas, index.patterns)
    counts = {"case1": 0, "case2": 0, "direct": 0, "coincident-pairs": 0}
    for members in index.similarity_classes(REPLAY_PAIR_LIMIT + 1):
        members = list(members)
        carried_by: dict[int, list[Encoded]] = {}  # id of a member of the class -> its carried updates
        for left, right in _sample_pairs(members, REPLAY_PAIR_LIMIT):
            # left's pattern is its owner's: renamings are injective
            sigma = constructions.similarity(left.canonical_index, left.vector, right.vector)
            if left.vector == right.vector:
                counts["coincident-pairs"] += 1
                if any(v != w for v, w in sigma.items()):
                    return CheckReport(
                        False,
                        "equivalence",
                        "similarity of a coinciding pair is not the identity",
                        witness={"left": left.state, "right": right.state},
                    )
                if left.encoded_delta != right.encoded_delta:
                    return CheckReport(
                        False,
                        "equivalence",
                        "coinciding pair with different update sets survived the checker",
                        witness={"left": left.state, "right": right.state},
                    )
            carried = carried_by.get(id(left))
            if carried is None:
                accessible = set(left.vector)
                carried = carried_by[id(left)] = [
                    u for u in sorted(left.encoded_delta) if within(u, accessible)
                ][:REPLAY_UPDATE_LIMIT]
            if not carried:
                continue
            route, steps = _pair_route(constructions, index.universe_size, left, right, sigma)
            for u in carried:
                final = _transport(route, steps, sigma, u)
                if final not in right.encoded_delta:
                    return CheckReport(
                        False,
                        "equivalence",
                        "replayed transport contradicts the passing verdicts",
                        witness={
                            "left": left.state,
                            "right": right.state,
                            "update": decoded(vocabulary, u),
                            "transported": decoded(vocabulary, final),
                            "route": route,
                            "terms": terms,
                        },
                    )
                counts[route] += 1
    return {"replayed-chains": counts["case1"] + counts["case2"] + counts["direct"], **counts}


def run_suite(cfg: GeneratorConfig, emit=None) -> CheckReport:
    """Verify equivalence across the whole generated suite.

    Emits one log line per (instance, witness) check: seed, instance id,
    witness id, both verdicts, and the agreement flag.
    """
    emit = emit or (lambda line: None)
    instances = generate_algorithm_suite(cfg)
    agreed = 0
    first_failure: CheckReport | None = None
    for instance in instances:
        instance_ok = True
        for w_index, terms in enumerate(instance.witnesses):
            report = verify_equivalence(instance.algorithm, terms, cfg.universe_size)
            emit(
                f"seed={cfg.seed} instance={instance.index} witness=w{w_index} "
                f"old={report.stats.get('old-be', '?')} new={report.stats.get('new-be', '?')} "
                f"agree={str(report.passed).lower()}"
            )
            if not report.passed:
                instance_ok = False
                if first_failure is None:
                    first_failure = report
        if instance_ok:
            agreed += 1
    total = len(instances)
    passed = agreed == total
    return CheckReport(
        passed,
        "equivalence-suite",
        f"{agreed}/{total} instances agree",
        witness=None if passed else first_failure.witness,
        stats={"instances": total},
    )
