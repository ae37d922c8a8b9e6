"""Digest the checks' reports and the CLI's bytes, to show that a change keeps them.

    python3 scripts/golden.py                      # one SHA-256 per group, for this tree
    python3 scripts/golden.py --group cli          # only the groups named
    python3 scripts/golden.py --dump --group abstract-state > records.txt
    python3 scripts/golden.py --diff ../parent     # both trees; exit 1 when a group differs
    python3 scripts/golden.py --expect scripts/golden.txt  # exit 1 when a group differs from its pin

A tree is a checkout of this repository; its ``src`` is imported.  A report
is recorded as (passed, label, detail, notes, repr(witness)), and an error as
its type and text; a CLI command as its arguments, exit code, stdout and
stderr.  The CLI runs from this script's tree, on its ``specs``, with the
other tree's ``src``, so both trees read the same documents.  No hash is
salted into a record: a witness's sets hold terms and updates, whose hashes
read no string hash, so they print in one order under any ``PYTHONHASHSEED``
and on every Python.

``scripts/golden.txt`` pins each group's digest, one ``group digest`` line
each.  A change that alters a report's or the CLI's bytes on purpose updates
that file.

Groups:
- ``suites``: the generated suites, each instance's algorithm and witnesses;
- ``sequential-time``: ``check_sequential_time`` on every suite instance and spec;
- ``abstract-state``: ``check_abstract_state`` on the default suite at
  u=7, 11 and 12, on a carrier-5 suite at u=13, and on the specs at the
  universes CI runs them at;
- ``abstract-state-unnatural``: the same suites, with rule semantics that
  undefine the least table entry of a copy whose tables do not mention
  element 3, so that rule-based checks fail and name a witness;
- ``be``: ``check_old_be``, ``check_new_be`` and ``verify_equivalence`` on
  every default-suite witness at u=11 and 12;
- ``replay``: ``verify_equivalence``'s verdict, detail and counts, without
  the witness, on every default-suite witness at u=20 and every carrier-5
  witness at its headroom and three above it, so the proof replay's counts
  are pinned where its class streams cross several carrier blocks;
- ``cli``: CI's spec commands and the suite commands.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = {"paper": "specs/paper-example.spec", "ring6": "specs/ring6.spec", "sparse8": "specs/sparse8.spec"}
# The universes CI checks each spec's abstract-state postulate at.
SPEC_UNIVERSES = {"paper": (7, 100000), "ring6": (9, 13, 100000), "sparse8": (11, 12)}
CARRIER5 = {"max_carrier_size": 5, "instances": 30}
CLI_COMMANDS = [
    ["check", "sequential-time", SPECS["paper"]],
    ["check", "sequential-time", SPECS["ring6"]],
    ["check", "sequential-time", SPECS["sparse8"]],
    ["check", "new-be", SPECS["paper"], "--witness", "T1", "--universe", "100000"],
    ["check", "new-be", SPECS["paper"], "--witness", "T1", "--universe", "7"],
    ["check", "new-be", SPECS["paper"], "--witness", "T1", "--universe", "6"],
    ["check", "old-be", SPECS["paper"], "--witness", "T1", "--universe", "100000"],
    ["check", "old-be", SPECS["ring6"], "--witness", "W", "--universe", "100000"],
    ["check", "equivalence", SPECS["ring6"], "--witness", "W", "--universe", "15"],
    ["check", "equivalence", SPECS["ring6"], "--witness", "W", "--universe", "100000"],
    *(
        ["check", "abstract-state", SPECS[name], "--universe", str(u)]
        for name, universes in SPEC_UNIVERSES.items()
        for u in universes
    ),
    ["check", "abstract-state", "--suite", "default"],
    ["check", "equivalence", "--suite", "default"],
    ["check", "equivalence", "--suite", "carrier=5,instances=3"],
    ["check", "equivalence", "--suite", "depth=3,arity=3"],
]
GROUPS = ("suites", "sequential-time", "abstract-state", "abstract-state-unnatural", "be", "replay", "cli")


def outcome(check, *args) -> tuple:
    """A report's fields, or the type and text of the error it raised."""
    from asmkit import AsmError

    try:
        report = check(*args)
    except AsmError as exc:
        return type(exc).__name__, str(exc)
    return report.passed, report.label, report.detail, report.notes, repr(report.witness)


def records(group: str, tree: Path):
    """The records of one group, for the tree whose ``src`` is imported."""
    from asmkit import (
        GeneratorConfig,
        check_abstract_state,
        check_new_be,
        check_old_be,
        check_sequential_time,
        generate_algorithm_suite,
        parse_spec,
        sorted_terms,
        verify_equivalence,
    )

    default = generate_algorithm_suite(GeneratorConfig())
    carrier5 = generate_algorithm_suite(GeneratorConfig(**CARRIER5))
    specs = {
        name: parse_spec((ROOT / path).read_text(encoding="utf-8")).algorithm()
        for name, path in SPECS.items()
    }
    if group == "suites":
        deep = generate_algorithm_suite(GeneratorConfig(max_term_depth=3, max_arity=3, instances=40, seed=7))
        for suite in (default, carrier5, deep):
            for instance in suite:
                algorithm = instance.algorithm
                yield (
                    instance.index,
                    instance.description,
                    algorithm.canonical_states,
                    algorithm.initial,
                    algorithm.successors,
                    repr(algorithm.program),
                    [[str(t) for t in sorted_terms(terms)] for terms in instance.witnesses],
                )
    elif group == "sequential-time":
        for algorithm in [i.algorithm for i in (*default, *carrier5)] + list(specs.values()):
            yield outcome(check_sequential_time, algorithm)
    elif group == "abstract-state-unnatural":
        from asmkit import UNDEF, postulates, transition

        natural = transition.rule_updates

        def unnatural(rule, tables):
            updates = natural(rule, tables)
            entries = sorted((name, args) for name, table in tables.items() for args in table)
            if entries and all(3 not in (*args, v) for table in tables.values() for args, v in table.items()):
                updates[entries[0]] = UNDEF
            return updates

        transition.rule_updates = postulates.rule_updates = unnatural
        yield from records("abstract-state", tree)
        transition.rule_updates = postulates.rule_updates = natural
    elif group == "abstract-state":
        for universe in (7, 11, 12):
            for instance in default:
                yield universe, instance.index, outcome(check_abstract_state, instance.algorithm, universe)
        for instance in carrier5:
            yield 13, instance.index, outcome(check_abstract_state, instance.algorithm, 13)
        for name, universes in SPEC_UNIVERSES.items():
            for universe in universes:
                yield name, universe, outcome(check_abstract_state, specs[name], universe)
    elif group == "be":
        for universe in (11, 12):
            for instance in default:
                for terms in instance.witnesses:
                    for check in (check_old_be, check_new_be, verify_equivalence):
                        yield universe, instance.index, outcome(check, instance.algorithm, terms, universe)
    elif group == "replay":
        from asmkit import AsmError, required_headroom

        cases = [(instance, 20) for instance in default]
        for instance in carrier5:
            headroom = required_headroom(instance.algorithm)
            cases += [(instance, headroom), (instance, headroom + 3)]
        for instance, universe in cases:
            for terms in instance.witnesses:
                try:
                    report = verify_equivalence(instance.algorithm, terms, universe)
                except AsmError as exc:
                    yield universe, instance.index, type(exc).__name__, str(exc)
                else:
                    yield universe, instance.index, report.passed, report.detail, report.stats
    elif group == "cli":
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        for command in CLI_COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "asmkit", *command], cwd=ROOT, env=env, capture_output=True
            )
            yield command, done.returncode, done.stdout, done.stderr
    else:
        raise ValueError(f"unknown group {group!r}")


def run_tree(tree: Path, groups: list[str]) -> dict[str, str]:
    """Each group's SHA-256 over its records, one repr per line, in ``tree``,
    taken in a child process that imports ``tree``'s ``src``."""
    command = [sys.executable, __file__, "--tree", str(tree), *(f"--group={g}" for g in groups)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return dict(line.split() for line in done.stdout.splitlines())


def pinned(path: Path) -> dict[str, str]:
    """The digests ``path`` pins, one ``group digest`` line per group."""
    digests = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2 and fields[0] not in digests:
            digests[fields[0]] = fields[1]
        elif fields:
            raise ValueError(f"{path}: not one 'group digest' line per group: {line!r}")
    return digests


def compare(expected: dict[str, str], actual: dict[str, str], groups: list[str]) -> int:
    """Print both digests of each group; 1 when any group differs."""
    for group in groups:
        same = "same" if expected.get(group) == actual[group] else "DIFFERENT"
        print(f"{group:24} {expected.get(group, '-')} {actual[group]} {same}")
    return 0 if all(expected.get(group) == actual[group] for group in groups) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--group", action="append", choices=GROUPS, help="a group to digest (default: all)")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the tree to import (default: this one)")
    parser.add_argument("--diff", type=Path, metavar="PARENT", help="also digest this tree and compare")
    parser.add_argument("--expect", type=Path, metavar="FILE", help="compare with the digests pinned in FILE")
    parser.add_argument("--dump", action="store_true", help="print the records, not their digests")
    args = parser.parse_args()
    groups = args.group or list(GROUPS)
    tree = args.tree.resolve()
    if args.diff is not None:
        return compare(run_tree(args.diff.resolve(), groups), run_tree(tree, groups), groups)
    if args.expect is not None:
        return compare(pinned(args.expect), run_tree(tree, groups), groups)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    for group in groups:
        digest = hashlib.sha256()
        for record in records(group, tree):
            line = repr(record)
            if args.dump:
                print(group, line)
            digest.update(line.encode() + b"\n")
        if not args.dump:
            print(group, digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
