"""The three benchmark workloads.

Each workload turns a seed and a size into a list of checks.  A check is one call into
``asmkit``'s public functions; its outcome is compared against a known
answer, and against the pairwise reference where that is affordable.  The
calls look the functions up on their modules at call time, so the traced run
sees the wrapped bindings.

The algorithms come from the default generated suite, criterion 4's, and
the seed shuffles the order of the checks.  The seed does not draw another
suite: with a new suite per seed the median check time moved by about 30%
between seeds, and renaming the suite's elements per seed still doubled the
spread of the throughput between runs (15% of the median against 8% with a
fixed seed), where a regression is judged by a bound of 25%.

Why these three:

* ``suite-default`` is criterion 4's traffic.  Each check builds the
  closure three times and replays the proof, so closure enumeration and
  replay both do most of their work here.
* ``universe-sweep`` runs the two checkers alone, without replay, as the
  universe grows: closure size grows as P(u-3, k) while term evaluation and
  replay barely run.  It also times spec parsing and the CLI.
* ``naturality`` builds states through renaming, ``step``, ``locate`` and
  ``apply_rule``, with no grouping or replay.  A change to state
  materialisation that helps ``suite-default`` could cost here.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

UNIVERSE = 11  # headroom of the default generator config (carrier bound 4)
SPEC = Path("specs") / "paper-example.spec"
SPEC_UNIVERSES = (11, 20, 30, 45)
SPEC_WITNESS = "T1"


@dataclass
class Check:
    """One timed call and how to judge its outcome.

    ``run`` returns a hashable outcome.  ``known`` says whether an outcome is
    the known answer.  ``reference``, when given, computes the pairwise
    reference outside the timed region, and ``agrees`` compares the outcome
    with it.  ``group`` is (key, offset): every check with the same key must
    have the outcome of the one at offset 0.
    """

    label: str
    run: Callable[[], Any]
    known: Callable[[Any], bool]
    reference: Callable[[], Any] | None = None
    agrees: Callable[[Any, Any], bool] | None = None
    group: tuple | None = None


def _suite(asmkit) -> list:
    harness = asmkit.harness
    return harness.generate_algorithm_suite(harness.GeneratorConfig())


def _evenly(items: list, count: int) -> list:
    """``count`` items spread evenly over the list, first one included."""
    count = min(count, len(items))
    return [items[i * len(items) // count] for i in range(count)]


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _notes(report) -> dict[str, str]:
    return dict(note.split("=", 1) for note in report.notes if "=" in note)


# -- suite-default --------------------------------------------------------


def suite_default(asmkit, seed: int, size: int) -> list[Check]:
    import oracle

    harness = asmkit.harness
    checks = []
    for inst in _suite(asmkit):
        algorithm = inst.algorithm
        for w, terms in enumerate(inst.witnesses):
            if oracle.affordable(algorithm, UNIVERSE):
                def reference(algorithm=algorithm, terms=terms):
                    return oracle.verdicts(algorithm, terms, UNIVERSE)
            else:
                reference = None

            def run(algorithm=algorithm, terms=terms):
                report = harness.verify_equivalence(algorithm, terms, UNIVERSE)
                notes = _notes(report)
                chains = int(notes.get("replayed-chains", 0))
                return report.passed, notes.get("old-be"), notes.get("new-be"), chains

            checks.append(Check(
                f"i{inst.index}/w{w}",
                run,
                # criterion 4: every check of the suite passes
                known=lambda out: out[0] is True,
                reference=reference,
                agrees=lambda out, ref: out[1:3] == (_verdict(ref[0]), _verdict(ref[1])),
            ))
    checks = _evenly(checks, size)
    random.Random(seed).shuffle(checks)
    return checks


# -- naturality -----------------------------------------------------------


def naturality(asmkit, seed: int, size: int) -> list[Check]:
    postulates = asmkit.postulates
    checks = []
    for inst in _evenly(_suite(asmkit), size):
        def run(algorithm=inst.algorithm):
            return (postulates.check_sequential_time(algorithm).passed,
                    postulates.check_abstract_state(algorithm, UNIVERSE).passed)

        # criterion 5: every instance passes both
        checks.append(Check(f"i{inst.index}", run, known=lambda out: out == (True, True)))
    random.Random(seed).shuffle(checks)
    return checks


# -- universe-sweep -------------------------------------------------------


def _table_entries(algorithm) -> int:
    return sum(
        len(table) for s in algorithm.canonical_states for table in s.interpretations.values()
    )


def _spec_checks(asmkit, root: Path) -> list[Check]:
    import oracle

    path = root / SPEC
    doc = asmkit.specfmt.parse_spec(path.read_text(encoding="utf-8"))
    algorithm = doc.algorithm()
    terms = doc.witnesses[SPEC_WITNESS]
    # The paper's Example: X1 has f = a and steps to f = b, so the update
    # (f, (), b) is stranded outside the witness values.
    b = {label: e for e, label in doc.element_labels[doc.state_names[0]].items()}["b"]
    stranded = f"update: (f, (), {b})"
    checks = []
    for universe in SPEC_UNIVERSES:
        for postulate in ("old-be", "new-be"):
            argv = ["check", postulate, str(path), "--witness", SPEC_WITNESS,
                    "--universe", str(universe)]

            def run(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = asmkit.cli.main(argv)
                return code, out.getvalue()

            if postulate == "old-be":
                def known(out):
                    return out[0] == 1 and out[1].startswith("FAIL old-be")
            else:
                def known(out):
                    return (out[0] == 1
                            and out[1].startswith("FAIL new-be requirement (i) violated")
                            and stranded in out[1])

            reference = None
            if oracle.affordable(algorithm, universe):
                def reference(algorithm=algorithm, terms=terms, universe=universe):
                    return oracle.verdicts(algorithm, terms, universe)
            index = 0 if postulate == "old-be" else 1
            checks.append(Check(
                f"spec/{postulate}/u{universe}",
                run,
                known,
                reference,
                agrees=lambda out, ref, index=index: (out[0] == 0) == ref[index],
            ))
    return checks


def universe_sweep(asmkit, seed: int, algorithms: int, root: Path) -> list[Check]:
    postulates = asmkit.postulates
    checks = _spec_checks(asmkit, root)
    carrier4 = [i for i in _suite(asmkit) if i.algorithm.max_nonlogical_carrier() == 4]
    carrier4.sort(key=lambda i: (-_table_entries(i.algorithm), i.index))
    for inst in carrier4[:algorithms]:
        algorithm = inst.algorithm
        headroom = postulates.required_headroom(algorithm)
        # w1 holds every ground term up to the generator's depth.
        terms = inst.witnesses[1]
        for name in ("check_old_be", "check_new_be"):
            for universe in (headroom, headroom + 1, headroom + 2):
                def run(name=name, algorithm=algorithm, terms=terms, universe=universe):
                    return getattr(postulates, name)(algorithm, terms, universe).passed
                checks.append(Check(
                    f"i{inst.index}/{name[6:]}/u{universe}",
                    run,
                    known=lambda out: isinstance(out, bool),
                    # the verdict above headroom equals the verdict at headroom
                    group=((inst.index, name), universe - headroom),
                ))
    random.Random(seed).shuffle(checks)
    return checks
