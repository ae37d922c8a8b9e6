"""Paper-literal reference implementations: the oracles the checkers are tested against.

Each enumerates what the paper quantifies over, the direct way: every
renaming of every canonical state into the universe, from
``itertools.permutations``, each copy keyed by its renamed carrier and
tables and built by ``apply_renaming`` where a state is read; every pair of
copies; every permutation of a carrier for an isomorphism; every ground
term of each depth round.
None of it reads the checkers' symmetry reduction, closure index, class
streams or proof replay: the module imports only ``asmkit.kernel``,
``asmkit.errors``, ``asmkit.similarity`` and the step and update-set
primitives of ``asmkit.transition`` (``tests/test_structure.py`` pins this).
Renaming order: a carrier's sorted nonlogical elements go to the tuples of
distinct ids in 3 .. u-1 in lexicographic order, as ``itertools.permutations``
yields them.  A ``Verdict`` has the fields a ``CheckReport`` is compared by.
"""
import collections
import functools
import heapq
import itertools

from asmkit.errors import HeadroomError, InvalidRenamingError, VocabularyMismatchError
from asmkit.kernel import (
    FALSE, FALSE_TERM, LOGICAL_IDS, TRUE, TRUE_TERM, UNDEF, UNDEF_TERM, Renaming, Term, apply_renaming,
    coincides_over, evaluate_terms, rename_tables, sorted_terms, state_key,
)
from asmkit.similarity import similarity_function, t_similar
from asmkit.transition import (
    Update, apply_rule, apply_updates, canonical_step, lift_update, step, table_diff, update_set,
)

_LOGICAL_FIXED = {e: e for e in LOGICAL_IDS}


Verdict = collections.namedtuple("Verdict", "passed label detail witness notes", defaults=("", None, ()))
Member = collections.namedtuple("Member", "index renaming vector delta")


def renaming_maps(base, universe_size):
    """The element maps of the renamings of a carrier into the universe, in renaming order."""
    sources = sorted(e for e in base if e not in LOGICAL_IDS)
    for images in itertools.permutations(range(3, universe_size), len(sources)):
        yield {**_LOGICAL_FIXED, **dict(zip(sources, images))}


def renamings(base, universe_size):
    """The renamings of a carrier into the universe, in renaming order."""
    return map(Renaming, renaming_maps(base, universe_size))


def copy_key(state, m):
    """The key of the copy of ``state`` along the element map ``m``."""
    return state_key([m[e] for e in state.base], rename_tables(state.interpretations, m))


@functools.lru_cache(maxsize=256)
def closure(algorithm, universe_size):
    """Every distinct copy r(c) of a canonical state c, as (c's index, r, its
    key), with the first r, in index and then renaming order, that makes it;
    in key order.  The last 256 are kept, as the default suite's closures
    serve several tests (algorithms hash by identity)."""
    first = {}
    for i, state in enumerate(algorithm.canonical_states):
        for m in renaming_maps(state.base, universe_size):
            first.setdefault(copy_key(state, m), (i, m))
    return [(i, Renaming(m), key) for key, (i, m) in sorted(first.items())]


def states(algorithm, copies):
    """The copies (canonical index, renaming, ...) built as states."""
    return [apply_renaming(algorithm.canonical_states[i], r) for i, r, *_ in copies]


def canonical_updates(algorithm, i):
    """Canonical state i's update set: the rule's, or the diff against its successor."""
    state = algorithm.canonical_states[i]
    return apply_rule(state, algorithm.compiled) if algorithm.rule_based else table_diff(state, algorithm.successors[i])


def pairwise_old_be(algorithm, terms, universe_size) -> bool:
    """Old BE over every ordered pair of the closure."""
    copies = states(algorithm, closure(algorithm, universe_size))
    return all(
        update_set(algorithm, x) == update_set(algorithm, y)
        for x, y in itertools.product(copies, repeat=2)
        if coincides_over(x, y, terms)
    )


def pairwise_new_be(algorithm, terms, universe_size) -> bool:
    """New BE over every copy and every ordered pair of the closure: each
    update accessible, and membership of every update over the reachable
    values transported by the similarity function."""
    copies = states(algorithm, closure(algorithm, universe_size))
    if not all(
        {*u.args, u.value} <= set(evaluate_terms(s, terms)) for s in copies for u in update_set(algorithm, s)
    ):
        return False
    for x, y in itertools.product(copies, repeat=2):
        if not t_similar(x, y, terms):
            continue
        sigma = similarity_function(x, y, terms)
        dx, dy = update_set(algorithm, x), update_set(algorithm, y)
        reachable = sorted(set(evaluate_terms(x, terms)))
        for sym in algorithm.vocabulary.nonlogical:
            for args in itertools.product(reachable, repeat=sym.arity):
                for value in reachable:
                    u = Update(sym, args, value)
                    if (u in dx) != (lift_update(sigma, u) in dy):
                        return False
    return True


def _first_index(vector):
    """Each value of ``vector`` with the index where it first occurs."""
    return {v: i for i, v in reversed(list(enumerate(vector)))}


def _classes(algorithm, terms, universe_size, group):
    """The canonical witness values and update sets, and the closure's copies
    grouped by ``group`` of their witness values, in key order, as
    ``Member``s: each copy's witness values and update set are its canonical
    state's, renamed.  A renamed set is built in the order of its encoded
    updates, so it prints in the order a report's does."""
    order = sorted_terms(terms)
    vectors = [tuple(evaluate_terms(s, order)) for s in algorithm.canonical_states]
    deltas = [canonical_updates(algorithm, i) for i in range(len(vectors))]
    classes = {}
    for i, r, _ in closure(algorithm, universe_size):
        vector = tuple(r[v] for v in vectors[i])
        delta = frozenset(sorted((lift_update(r, u) for u in deltas[i]), key=Update.encoded))
        classes.setdefault(group(vector), []).append(Member(i, r, vector, delta))
    return vectors, deltas, classes


def old_be(algorithm, terms, universe_size) -> Verdict:
    """Old BE by walking the closure: copies grouped by their witness values,
    each group compared with its first copy in key order."""
    terms = frozenset(terms)
    _, _, groups = _classes(algorithm, terms, universe_size, tuple)
    for vector in sorted(groups):
        left, *others = groups[vector]
        for right in others:
            if right.delta != left.delta:
                left_state, right_state = states(algorithm, [left, right])
                witness = {"terms": terms, "left": left_state, "right": right_state, "left_delta": left.delta}
                witness["right_delta"] = right.delta
                detail = "states coincide over the witness but have different update sets"
                return Verdict(False, "old-be", detail, witness)
    copies = len(closure(algorithm, universe_size))
    return Verdict(True, "old-be", notes=(f"states={copies}", f"coincidence-classes={len(groups)}"))


def new_be(algorithm, terms, universe_size) -> Verdict:
    """New BE by walking the closure: requirement (i) on the canonical states,
    then each copy's similarity pattern and accessible trace from its own
    witness values and update set, each class compared with its first copy
    in key order."""
    terms = frozenset(terms)

    def pattern(vector):
        first = _first_index(vector)
        return tuple(first[v] for v in vector)

    def trace(vector, delta):
        first = _first_index(vector)
        return frozenset(
            (u.symbol.name, tuple(first[a] for a in u.args), first[u.value])
            for u in delta
            if {*u.args, u.value} <= first.keys()
        )

    def first_difference():
        for key in sorted(classes):
            left, *others = classes[key]
            for right in others:
                difference = trace(right.vector, right.delta).symmetric_difference(trace(left.vector, left.delta))
                if difference:
                    return left, right, min(difference)
        return None

    vectors, deltas, classes = _classes(algorithm, terms, universe_size, pattern)
    witness = None
    for state, vector, delta in zip(algorithm.canonical_states, vectors, deltas):
        outside = [u for u in sorted(delta, key=Update.encoded) if not {*u.args, u.value} <= set(vector)]
        if outside:
            witness = {"requirement": "i", "state": state, "update": outside[0], "accessible": frozenset(vector)}
            witness["terms"] = terms
            break
    found = first_difference()
    passed_i, passed_ii = witness is None, found is None
    if passed_i and not passed_ii:
        left, right, (name, arg_idx, value_idx) = found
        symbol = algorithm.vocabulary.symbol(name)
        u_left = Update(symbol, tuple(left.vector[i] for i in arg_idx), left.vector[value_idx])
        u_right = Update(symbol, tuple(right.vector[i] for i in arg_idx), right.vector[value_idx])
        left_state, right_state = states(algorithm, [left, right])
        witness = {"requirement": "ii", "left": left_state, "right": right_state, "update": u_left}
        witness.update(lifted_update=u_right, in_left=u_left in left.delta, in_right=u_right in right.delta)
        witness["terms"] = terms
    notes = (
        f"requirement-i={'pass' if passed_i else 'fail'}",
        f"requirement-ii={'pass' if passed_ii else 'fail'}",
        f"similarity-classes={len(classes)}",
    )
    if witness is None:
        return Verdict(True, "new-be", notes=notes)
    witness.update(requirement_i_passed=passed_i, requirement_ii_passed=passed_ii)
    return Verdict(False, "new-be", f"requirement ({witness['requirement']}) violated", witness, notes)


def abstract_state(algorithm, universe_size) -> Verdict:
    """Naturality checked the direct way: every renaming builds the copy, the
    renamed successor and the stepped copy as states."""
    for state in algorithm.canonical_states:
        worst = max(state.base, default=0)
        if worst >= universe_size:
            raise HeadroomError(f"universe of size {universe_size} does not contain carrier element {worst}")
    successors = []
    for index, state in enumerate(algorithm.canonical_states):
        successors.append(canonical_step(algorithm, index))
        if successors[-1].base != state.base:
            detail = f"successor of canonical state {index} changes the base set"
            return Verdict(False, "abstract-state", detail, {"state": state, "successor": successors[-1]})
    for index, (state, successor) in enumerate(zip(algorithm.canonical_states, successors)):
        for renaming in renamings(state.base, universe_size):
            copy = apply_renaming(state, renaming)
            expected = apply_renaming(successor, renaming)
            if algorithm.rule_based:
                actual = apply_updates(copy, apply_rule(copy, algorithm.program))
            else:
                actual = step(algorithm, copy)
            if actual != expected or actual.base != copy.base:
                detail = f"step does not commute with a renaming of canonical state {index}"
                witness = {"state": state, "renaming": renaming, "expected": expected, "actual": actual}
                return Verdict(False, "abstract-state", detail, witness)
    notes = ("closure under isomorphism holds by construction (copies are generated)",)
    return Verdict(True, "abstract-state", notes=notes)


def support_copies(algorithm, index, universe_size):
    """The first support map of each distinct renaming of canonical state
    ``index``'s tables, keyed by those tables as a state key holds them, in
    lexicographic order over S, the sorted nonlogical elements its tables or
    its update set mention."""
    state = algorithm.canonical_states[index]
    tables = state.interpretations
    mentioned = {e for table in tables.values() for args, v in table.items() for e in (*args, v)}
    for u in table_diff(state, canonical_step(algorithm, index)):
        mentioned.update((*u.args, u.value))
    firsts = {}
    for m in renaming_maps(mentioned, universe_size):
        firsts.setdefault(state_key((), rename_tables(tables, m))[1], m)
    return firsts


def free_sources(state, values):
    """The state's sorted nonlogical elements that ``values`` does not fix."""
    return [e for e in state.nonlogical_elements() if e not in values]


def full_block(state, values, image):
    """The copies of ``state`` whose map extends ``values`` and sends the
    other nonlogical elements onto ``image``, keyed over all n! permutations
    of sorted(image): (key, first map, its order of positions) per key, in
    key order."""
    sources = free_sources(state, values)
    first = {}
    for order in itertools.permutations(range(len(sources))):
        m = {**_LOGICAL_FIXED, **values, **{s: image[p] for s, p in zip(sources, order)}}
        first.setdefault(copy_key(state, m), (m, order))
    return [(key, *first[key]) for key in sorted(first)]


def block_walk(algorithm, universe_size, fixed):
    """The distinct copies of each owner i in ``fixed`` whose maps extend
    ``fixed[i]``, as (i, map, key), lazily and in key order: an owner's
    ``full_block``s in ``itertools.combinations`` order of their images, and
    the owners merged by key.  That order is checked as the walk goes."""

    def owner_walk(i, values):
        state = algorithm.canonical_states[i]
        targets = [e for e in range(3, universe_size) if e not in values.values()]
        for image in itertools.combinations(targets, len(free_sources(state, values))):
            for key, m, _ in full_block(state, values, image):
                yield i, m, key

    last = None
    for entry in heapq.merge(*(owner_walk(i, values) for i, values in fixed.items()), key=lambda t: t[2]):
        assert last is None or last < entry[2], "the block walk left key order"
        last = entry[2]
        yield entry


def state_route(x, y, terms, universe_size):
    """The proof's route from x to y on states: its name, its renamings and
    the states it builds.  No construction when the similarity function
    moves a logical value ("direct").  The value replacement xi, the
    similarity function on x's witness values and the identity on the rest
    of its carrier, when the witness-value sets are disjoint and xi is a
    renaming ("case1").  Otherwise ("case2") a copy eta(x) that shares no
    nonlogical witness value with y, then its replacement: eta sends x's
    nonlogical elements among y's nonlogical witness values, in order, to
    the least ids in 3 .. u-1 outside those values and x's carrier, and is
    the identity on the rest."""

    def replaced(x):
        xi = Renaming({**{e: e for e in x.base}, **similarity_function(x, y, terms)})
        return apply_renaming(x, xi), xi

    sigma = similarity_function(x, y, terms)
    if any(v != w for v, w in sigma.items() if v in LOGICAL_IDS or w in LOGICAL_IDS):
        return "direct", [], []
    if set(evaluate_terms(x, terms)).isdisjoint(evaluate_terms(y, terms)):
        try:
            copy, xi = replaced(x)
        except InvalidRenamingError:
            pass
        else:
            return "case1", [xi], [copy]
    carrier = set(x.nonlogical_elements())
    values = set(evaluate_terms(y, terms)).difference(LOGICAL_IDS)
    moved = sorted(carrier & values)
    room = [e for e in range(3, universe_size) if e not in values | carrier]
    if len(room) < len(moved):
        raise HeadroomError(f"universe of size {universe_size} has no room for a disjoint copy")
    eta = Renaming({**{e: e for e in x.base}, **dict(zip(moved, room))})
    detached = apply_renaming(x, eta)
    copy, xi = replaced(detached)
    return "case2", [eta, xi], [detached, copy]


def isomorphisms(x, y):
    """Every renaming carrying x onto y: each permutation of y's sorted
    nonlogical elements, in ``itertools.permutations`` order, checked entry
    by entry and validated as a ``Renaming``."""
    if x.vocabulary != y.vocabulary or len(x.base) != len(y.base):
        return
    xt, yt = x.interpretations, y.interpretations
    if set(xt) != set(yt) or any(len(xt[n]) != len(yt[n]) for n in xt):
        return
    sources, targets = x.nonlogical_elements(), y.nonlogical_elements()
    for perm in itertools.permutations(targets, len(sources)):
        m = {**dict(zip(sources, perm)), **_LOGICAL_FIXED}
        if all(yt[name].get(tuple(m[a] for a in args)) == m[v] for name in xt for args, v in xt[name].items()):
            yield Renaming(m)


def ground_terms(vocabulary, max_depth, cap=64):
    """The ground-term generator as it was before it built only the kept
    terms: every term of each round, stopping past 4 * cap."""
    terms = {Term(s) for s in vocabulary.nonlogical if s.arity == 0}
    terms |= {TRUE_TERM, FALSE_TERM, UNDEF_TERM}
    builders = [s for s in vocabulary.nonlogical if s.arity >= 1]
    for _ in range(max_depth):
        snapshot = sorted(terms, key=str)
        fresh = set()
        for sym in builders:
            for combo in itertools.product(snapshot, repeat=sym.arity):
                t = Term(sym, combo)
                if t not in terms:
                    fresh.add(t)
        if not fresh:
            break
        terms |= fresh
        if len(terms) > cap * 4:
            break
    ordered = sorted(terms, key=lambda t: (t.depth, str(t)))
    return sorted_terms(ordered[:cap])


def ground_terms_work(arities, max_depth, cap):
    """The terms ``ground_terms`` builds, counted without building, for a
    vocabulary with these arities."""
    work, before, held = 0, 0, 3 + arities.count(0)
    builders = [a for a in arities if a]
    for _ in range(max_depth):
        work += sum(held**a for a in builders)
        fresh = sum(held**a - before**a for a in builders)
        if not fresh:
            break
        before, held = held, held + fresh
        if held > cap * 4:
            break
    return work


# The logical symbols' fixed meaning, written apart from ``asmkit``'s: each
# connective on truth values, undef when an argument is not one.
_TRUTH = {TRUE: True, FALSE: False}
_CONNECTIVES = {"not": lambda p: not p, "and": lambda p, q: p and q, "or": lambda p, q: p or q}


def _connective(name, args):
    if name in ("true", "false", "undef"):
        return {"true": TRUE, "false": FALSE, "undef": UNDEF}[name]
    if name == "eq":
        return TRUE if args[0] == args[1] else FALSE
    if any(a not in _TRUTH for a in args):
        return UNDEF
    return TRUE if _CONNECTIVES[name](*[_TRUTH[a] for a in args]) else FALSE


def evaluator(vocabulary, tables):
    """Recursive evaluation of ground terms over normalized tables, the
    reference the compiled ``TermProgram`` is checked against: a node's
    symbol is checked before its children are evaluated, and values are
    memoized by node identity, so the terms must outlive the evaluator."""
    values = {}

    def value(term):
        v = values.get(id(term))
        if v is None:
            if term.root not in vocabulary:
                raise VocabularyMismatchError(f"term symbol {term.root} is not in the state's vocabulary")
            args = tuple(value(child) for child in term.children)
            if term.root.kind == "nonlogical":
                v = tables.get(term.root.name, {}).get(args, UNDEF)
            else:
                v = _connective(term.root.name, args)
            values[id(term)] = v
        return v

    return value
