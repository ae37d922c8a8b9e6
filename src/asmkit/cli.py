"""Command-line driver.

Exit codes: 0 when every reported check passes, 1 when a check fails, and 2
for precondition, parse, headroom and usage errors, which print one
``error:`` line on stderr and nothing on stdout.  The universe size is
``--universe`` where a command takes it; without it a spec check uses the
smallest conclusive universe for the parsed algorithm, and ``scenario
example`` uses 7.  No environment variable changes any of this.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import AsmError
from .generate import GeneratorConfig
from .harness import run_suite, verify_equivalence
from .kernel import State
from .postulates import (
    check_abstract_state,
    check_new_be,
    check_old_be,
    check_sequential_time,
    required_headroom,
)
from .report import CheckReport, ScenarioReport
from .scenarios import run_scenario_example, run_scenario_remark
from .specfmt import SpecDocument, parse_spec, render_state_block, unparse_spec

@functools.cache  # parsing never changes the parser, and each message gets a fresh formatter
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmkit",
        description="Finite-state sequential algorithm toolkit and postulate checkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a postulate checker on a spec file or suite")
    check.add_argument(
        "postulate",
        choices=["sequential-time", "abstract-state", "old-be", "new-be", "equivalence"],
    )
    check.add_argument("spec", nargs="?", help="specification document")
    check.add_argument("--witness", help="name of a witness section in the document")
    check.add_argument("--universe", type=int, help="universe size (element id bound)")
    check.add_argument(
        "--suite",
        help="run the generated suite instead of a document: 'default' or k=v list",
    )
    check.add_argument("--format", choices=["text", "lines"], default="text")

    scenario = sub.add_parser("scenario", help="run a built-in scenario")
    scenario.add_argument("name", choices=["remark", "example"])
    scenario.add_argument("--universe", type=int)
    scenario.add_argument("--format", choices=["text", "lines"], default="text")

    fmt = sub.add_parser("fmt", help="reprint a document in canonical form")
    fmt.add_argument("spec")
    return parser


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise AsmError(f"{name} must be an integer, not {text!r}") from None


def _read_spec(path: str) -> SpecDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AsmError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_spec(text)


def _render_witness_value(value: object) -> list[str]:
    if isinstance(value, State):
        return render_state_block("witness", value).splitlines()
    if isinstance(value, frozenset):
        return ["{" + ", ".join(sorted(map(str, value))) + "}"]
    return [str(value)]


def _print_check(report: CheckReport, fmt: str) -> None:
    if fmt == "lines":
        for line in report.lines():
            print(line)
        return
    print(report.line())
    for note in report.notes:
        print(f"  note: {note}")
    if report.witness:
        print("  witness:")
        for key, value in report.witness.items():
            rendered = _render_witness_value(value)
            print(f"    {key}: {rendered[0]}")
            for extra in rendered[1:]:
                print(f"      {extra}")


def _print_scenario(report: ScenarioReport, fmt: str) -> None:
    for line in report.lines():
        print(line)
    if fmt == "text":
        verdict = "passed" if report.passed else "FAILED"
        print(f"scenario {report.name}: {verdict} ({len(report.checks)} assertions)")


def _parse_suite_config(text: str) -> GeneratorConfig:
    if text == "default":
        return GeneratorConfig()
    values: dict[str, int] = {}
    for part in text.split(","):
        key, _, raw = part.partition("=")
        if not raw:
            raise AsmError(f"bad suite option {part!r}; expected key=value")
        key = key.strip()
        if key in values:
            raise AsmError(f"suite option {key!r} given twice")
        values[key] = _integer(raw, f"suite option {key!r}")
    mapping = {
        "seed": "seed",
        "instances": "instances",
        "states": "max_canonical_states",
        "carrier": "max_carrier_size",
        "symbols": "max_nonlogical_symbols",
        "arity": "max_arity",
        "depth": "max_term_depth",
    }
    kwargs = {}
    for key, value in values.items():
        if key not in mapping:
            raise AsmError(f"unknown suite option {key!r}")
        kwargs[mapping[key]] = value
    try:
        return GeneratorConfig(**kwargs)
    except ValueError as exc:
        raise AsmError(f"bad suite options: {exc}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    if args.suite:
        if args.postulate != "equivalence":
            raise AsmError("--suite applies to 'check equivalence' only")
        # the suite's configuration fixes its algorithms, witnesses and universe
        for given, name in ((args.spec, "specification document"), (args.witness, "--witness"),
                            (args.universe, "--universe")):
            if given is not None:
                raise AsmError(f"--suite takes no {name}")
        config = _parse_suite_config(args.suite)
        report = run_suite(config, emit=print)
        _print_check(report, args.format)
        return 0 if report.passed else 1
    if not args.spec:
        raise AsmError("a specification document is required unless --suite is given")
    doc = _read_spec(args.spec)
    algorithm = doc.algorithm()
    universe = required_headroom(algorithm) if args.universe is None else args.universe
    if args.postulate == "sequential-time":
        report = check_sequential_time(algorithm)
    elif args.postulate == "abstract-state":
        report = check_abstract_state(algorithm, universe)
    else:
        if not args.witness:
            raise AsmError(f"check {args.postulate} needs --witness <name>")
        if args.witness not in doc.witnesses:
            raise AsmError(f"document has no witness named {args.witness!r}")
        terms = doc.witnesses[args.witness]
        if args.postulate == "old-be":
            report = check_old_be(algorithm, terms, universe)
        elif args.postulate == "new-be":
            report = check_new_be(algorithm, terms, universe)
        else:
            report = verify_equivalence(algorithm, terms, universe)
    _print_check(report, args.format)
    return 0 if report.passed else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.name == "remark":
        if args.universe is not None:
            raise AsmError("scenario remark takes no --universe")
        report = run_scenario_remark()
    else:
        report = run_scenario_example(7 if args.universe is None else args.universe)
    _print_scenario(report, args.format)
    return 0 if report.passed else 1


def _cmd_fmt(args: argparse.Namespace) -> int:
    doc = _read_spec(args.spec)
    sys.stdout.write(unparse_spec(doc))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse refuses a positional document between options; accept it here.
    if extra:
        if args.command == "check" and args.spec is None and len(extra) == 1 and not extra[0].startswith("-"):
            args.spec = extra[0]
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    handlers = {"check": _cmd_check, "scenario": _cmd_scenario, "fmt": _cmd_fmt}
    try:
        return handlers[args.command](args)
    except (AsmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
