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
with no logical witness value.  The generated witnesses all hold the
logical constant terms, which pin every logical value, so none of their
pairs takes case 1 or the direct route.

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
Each construction is a map composed with the copy's, checked by
``renaming_map``; the copy it makes is the canonical state's tables renamed
by the composed map, evaluated by the index's compiled witness program, and
its update set is the canonical encoded one lifted through the same map.
``_pair_route`` proves these are the tables and update sets of the states
the constructions stand for, so the replay's assertions test the
constructions themselves.

The replay keeps one memo, keyed by a sampled pair's first copy x and the
witness values of its second, y: the pair's similarity function and, found
on the pair's first carried update, its route with the copies built along
it.  Both are functions of x and y's values alone (the route lemma of
``_pair_route``), so a pair whose key was seen gets what it would have
computed.  What a pair compares against y itself, the route's last copy's
values and update set and each transported update's membership, runs for
every pair.  The memo is a local of one replay, so no copy crosses checks.
``State``s and ``Update``s are built only for a failure report's witness,
and ``construct_case1_state`` and ``construct_disjoint_copy`` compute the
same maps and build the ``State`` and ``Renaming`` for their callers.  The
tests check the replay's routes against the paper's constructions written
out on ``State``s in ``tests/reference.py``, which shares no code with
these.
"""
from __future__ import annotations

import itertools
from typing import Iterable

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
from .similarity import similarity_map
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
    else, evaluates the witness on both states and runs ``_replaced_copy``,
    the map the proof replay builds its replaced copies by, on ``x``'s
    carrier; it builds the ``State`` and ``Renaming`` from the map that
    construction checked, and checks the copy's witness values.
    """
    if x.vocabulary != y.vocabulary:
        raise VocabularyMismatchError("states have different vocabularies")
    program = TermProgram(x.vocabulary, sorted_terms(terms))
    ys = program.evaluate(y)
    renaming = Renaming(_replaced_copy(x.base, similarity_map(program.evaluate(x), ys, program.terms)))
    replaced = apply_renaming(x, renaming)
    if program.evaluate(replaced) != ys:
        raise AsmError("internal: value-replacement copy fails to coincide")
    return replaced, renaming


def _replaced_copy(carrier: Iterable[int], sigma: dict[int, int]) -> dict[int, int]:
    """The value replacement xi of a copy with carrier ``carrier`` onto a
    similar state: the similarity function's element map ``sigma`` on the
    copy's witness values and the identity on the rest of the carrier,
    checked by ``renaming_map``.  ``CaseHypothesisError`` when the two
    witness-value sets share a nonlogical element or xi is no renaming."""
    nonlogical_shared = sorted(v for v in sigma.keys() & sigma.values() if v not in LOGICAL_IDS)
    if nonlogical_shared:
        raise CaseHypothesisError(f"witness value sets share nonlogical elements {nonlogical_shared}")
    step = {e: e for e in carrier}
    step.update(sigma)
    try:
        return renaming_map(step)
    except InvalidRenamingError as exc:
        raise CaseHypothesisError(f"value replacement is not a renaming: {exc}") from exc


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
    vocabularies before anything else, evaluates the witness on ``y`` and
    runs ``_detached_copy``, the map the proof replay builds its detached
    copies by, on ``x``'s carrier; it builds the ``State`` and ``Renaming``
    from the map that construction checked, and checks the copy's witness
    values.
    """
    if x.vocabulary != y.vocabulary:
        raise VocabularyMismatchError("states have different vocabularies")
    program = TermProgram(y.vocabulary, sorted_terms(terms))
    y_values = set(program.evaluate(y)).difference(LOGICAL_IDS)
    eta = _detached_copy(set(x.nonlogical_elements()), y_values, universe_size)
    renaming = Renaming({e: e for e in x.base} if eta is None else eta)
    detached = apply_renaming(x, renaming)
    if y_values.intersection(program.evaluate(detached)):
        raise AsmError("internal: disjoint copy still shares nonlogical witness values")
    return detached, renaming


def _detached_copy(carrier: set[int], y_values: set[int], universe_size: int) -> dict[int, int] | None:
    """The renaming eta that detaches a copy x with nonlogical carrier
    ``carrier`` from a state y with nonlogical witness values ``y_values``,
    or None when it would move nothing.  With Y ``y_values`` and C
    ``carrier``, eta sends the elements M of C among Y, in order, to the
    least ids of 3 .. u-1 outside Y and C, and is the identity on the rest
    of C; it is checked by ``renaming_map``.  So eta(x)'s carrier is C
    without M and ids outside Y, and eta(x) shares no value with Y.  When M
    is empty, eta is the identity on C and eta(x) is x.

    Fit lemma.  Y and C share exactly M, so the ids of 3 .. u-1 outside
    both number at least (u-3) - |Y| - |C| + |M|.  Y lies in y's nonlogical
    carrier, so with n the size of the larger nonlogical carrier, |Y| <= n
    and |C| <= n, and at headroom u - 3 >= 2n there are at least |M| free
    ids.  So ``HeadroomError`` is raised only below that headroom."""
    moved = sorted(carrier & y_values)
    if not moved:
        return None
    excluded = y_values | carrier
    allowed = list(itertools.islice((e for e in range(3, universe_size) if e not in excluded), len(moved)))
    if len(allowed) < len(moved):
        raise HeadroomError(f"universe of size {universe_size} has no room for a disjoint copy")
    step = {e: e for e in carrier}
    step.update(zip(moved, allowed))
    return renaming_map(step)


def _compose(outer: dict[int, int], inner: dict[int, int]) -> dict[int, int]:
    """The element map of ``outer`` after ``inner``, over ``inner``'s domain."""
    return {e: outer[v] for e, v in inner.items()}


class _Built:
    """A constructed copy s(x) of a copy x = r(c), c the canonical state at
    ``i`` in ``index`` and r ``x_map``, built when made: the renaming s
    (``step``, checked by ``renaming_map``); the composed map s r, a
    renaming of c; and the copy's witness values, evaluated by the index's
    witness program on c's tables renamed by s r.  Its update set, c's
    encoded one lifted through s r, is derived on first read."""

    def __init__(self, index: ClosureIndex, i: int, x_map: dict[int, int], step: dict[int, int]) -> None:
        self.step, self.composed = step, _compose(step, x_map)
        self._canonical_updates = index.deltas[i]
        canonical = index.algorithm.canonical_states[i]
        tables = rename_tables(canonical.interpretations, self.composed)
        self.vector = index.program.evaluate_tables(canonical.vocabulary, tables)

    @lazy_property
    def updates(self) -> frozenset[Encoded]:
        return lift_encoded_set(self.composed, self._canonical_updates)


# The name a route's failure messages give the copy it constructs.
_CONSTRUCTED = {"case1": "replacement", "case2": "composed"}


def _pair_route(
    index: ClosureIndex, x: Copy, y_vector: tuple[int, ...], sigma: dict[int, int]
) -> tuple[str, tuple[_Built, ...]]:
    """The proof's route from the copy ``x`` to a similar copy y with
    witness values ``y_vector``, ``sigma`` the similarity function's element
    map between them, and the copies built along it.

    No construction when ``sigma`` moves a logical element ("direct").
    Otherwise the one chain: a disjoint copy eta(x) (``_detached_copy``),
    then the value replacement xi (``_replaced_copy``).  When eta moves
    nothing, eta(x) is x and sigma' is ``sigma``, so nothing is built for
    eta.  When, besides, x's values are y's, they are all logical, as x's
    carrier misses y's nonlogical values; then xi is the identity and
    nothing is built at all.  The chain is "case1" when eta moves nothing
    and the witness-value sets are disjoint, and "case2" otherwise.  The
    detached copy must share no nonlogical value with y: that is checked
    where it is built, before sigma' reads its values.  What the route's
    last copy must have of y, its values and update set, the replay compares
    for each pair (``_arrive``).

    Route lemma.  The route, with every map and copy on it, is a function
    of x and ``y_vector`` alone.  sigma, ``similarity_map`` of x's values,
    y's values and x's equality pattern, is one, and so is the direct test,
    which reads sigma alone.  With x = r(c) for x's canonical state c and r
    = ``x.mapping``, x's carrier is a function of r, and eta's moved ids, x's
    carrier among y's nonlogical values, and its allowed ids, the least ids
    of 3 .. u-1 outside both (u the index's), are functions of x and y's
    values; so are eta, eta r, and the values of eta(x) = (eta r)(c), its
    tables renamed and evaluated.  sigma' reads eta(x)'s values and y's, and
    xi reads sigma' and eta(x)'s carrier, the image of eta r; so the
    replaced copy (xi eta r)(c), its values and its update set, c's lifted
    through xi eta r, are functions of x and y's values too.  The identity-xi
    test compares x's values with y's, and the case label reads x's values,
    x's carrier and y's values.  So a later pair with the same x and y's
    values gets the route this one would compute, and a construction that
    raises raises for it as well.

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
    values meet take case 2 either way.  Transport through an identity eta
    or xi moves nothing, so leaving it out of the steps changes no lift.
    So the labels stay the paper's, and reports, which name a route but
    none of its maps, stay byte for byte the same.

    Nothing is built but element maps.  Each constructed copy is a composed
    map of c: eta r, then xi eta r.  It is evaluated on c's tables renamed
    by that map, and its update set is c's encoded one lifted through it.
    These are exactly what the ``State``s that ``apply_renaming`` built
    gave: renaming r(c) by eta sends each argument and value of c's tables
    through r, then eta, which is the same as through eta r, and eta covers
    r(c)'s carrier, which holds every element the tables mention; a
    renaming fixes undef and is injective, so renamed normalized tables are
    normalized, and ``State`` keeps them as they are.  Likewise for xi, and
    for lifting an update set, stage by stage or through the composition.
    r passes ``Renaming``'s checks (see ``Copy``), and eta and xi are
    checked by ``renaming_map``, so the composed maps are renamings of c.
    Encoded updates over one vocabulary are equal exactly when the updates
    are, so the comparisons decide what comparing ``Update`` sets decided.
    So every check still tests the constructions themselves.
    """
    if any(v != w for v, w in sigma.items() if v in LOGICAL_IDS or w in LOGICAL_IDS):
        return "direct", ()
    i, x_map = x.canonical_index, x.mapping
    carrier = set(x_map.values()).difference(LOGICAL_IDS)
    route = "case1" if carrier.isdisjoint(y_vector) and set(x.vector).isdisjoint(y_vector) else "case2"
    y_values = set(y_vector).difference(LOGICAL_IDS)
    eta = _detached_copy(carrier, y_values, index.universe_size)
    if eta is None:
        if x.vector == y_vector:
            return route, ()  # xi is the identity
        steps: tuple[_Built, ...] = ()
    else:
        detached = _Built(index, i, x_map, eta)
        if y_values.intersection(detached.vector):
            raise AsmError("internal: disjoint copy still shares nonlogical witness values")
        steps, x_map = (detached,), detached.composed
        sigma = similarity_map(detached.vector, y_vector, index.program.terms)  # sigma'
    return route, steps + (_Built(index, i, x_map, _replaced_copy(x_map.values(), sigma)),)


class _Pair:
    """The replay's memo entry for a sampled copy x and the witness values
    of the copies y it is paired with: x itself, held so that its id names
    no other copy while the replay runs; the similarity function's element
    map ``sigma`` from x's values to y's; and the route ``_pair_route``
    finds, on the first carried update."""

    __slots__ = ("x", "sigma", "route")

    def __init__(self, x: Copy, sigma: dict[int, int]) -> None:
        self.x, self.sigma, self.route = x, sigma, None


def _arrive(pair: _Pair, y: Copy) -> None:
    """Compare the last copy of ``pair``'s route with the pair's own target
    ``y``, for each routed pair, memo hit or miss: it must have y's witness
    values and update set.  No copy is built on the direct route, and none
    when xi is the identity: x's values are then y's, and the
    coincident-pair check has compared both update sets."""
    route, steps = pair.route
    if not steps:
        return
    replaced = steps[-1]
    if replaced.vector != y.vector:
        raise AsmError("internal: value-replacement copy fails to coincide")
    if replaced.updates != y.encoded_delta:
        raise AsmError(f"replayed chain broken: {_CONSTRUCTED[route]} copy and target disagree on updates")


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
    terms, vocabulary = index.terms, index.algorithm.vocabulary
    memo: dict[tuple[int, tuple[int, ...]], _Pair] = {}  # (id of x, y's values) -> entry
    counts = {"case1": 0, "case2": 0, "direct": 0, "coincident-pairs": 0}
    for members in index.similarity_classes(REPLAY_PAIR_LIMIT + 1):
        members = list(members)
        carried_by: dict[int, list[Encoded]] = {}  # id of a member of the class -> its carried updates
        for left, right in _sample_pairs(members, REPLAY_PAIR_LIMIT):
            pair = memo.get((id(left), right.vector))
            if pair is None:
                # left's pattern is its owner's: renamings are injective
                pattern = index.patterns[left.canonical_index]
                sigma = similarity_map(left.vector, right.vector, index.program.terms, pattern)
                pair = memo[id(left), right.vector] = _Pair(left, sigma)
            sigma = pair.sigma
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
            if pair.route is None:
                pair.route = _pair_route(index, left, right.vector, sigma)
            _arrive(pair, right)
            route, steps = pair.route
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
