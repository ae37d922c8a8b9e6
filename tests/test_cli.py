import os
import subprocess
import sys
from pathlib import Path

import pytest

import asmkit
from asmkit import CheckReport, harness
from asmkit.cli import main
from conftest import PAPER_EXAMPLE_SPEC, REPO_ROOT, RING6_SPEC

SPEC = str(PAPER_EXAMPLE_SPEC)

UNCLOSED_WITNESS_DOC = """
vocabulary:
  a/0
  f/1

state S:
  elements x
  a = x

transition:
  a := a

initial:
  S

witness W:
  f(a)
"""


# ``check new-be specs/requirement-ii.spec --witness W --universe 7``, byte
# for byte: the one checked-in requirement-(ii) failure.
REQUIREMENT_II_REPORT = """\
FAIL new-be requirement (ii) violated
  note: requirement-i=pass
  note: requirement-ii=fail
  note: similarity-classes=1
  witness:
    requirement: ii
    left: state witness:
        elements e3
        f = FALSE
    right: state witness:
        elements e3 e4
        g = e3
    update: (f, (), 0)
    lifted_update: (f, (), 0)
    in_left: False
    in_right: True
    terms: {false, true, undef}
    requirement_i_passed: True
    requirement_ii_passed: False
"""


class TestCheckCommand:
    def test_old_be_fails_with_witness_pair(self, capsys):
        code = main(["check", "old-be", "--witness", "T1", SPEC, "--universe", "7"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL old-be")
        assert "left_delta" in out and "right_delta" in out
        assert "elements e3 e4" in out and "elements e3 e5" in out

    def test_old_be_passes_carrier6_ring_at_huge_universe(self, capsys):
        code = main(["check", "old-be", str(RING6_SPEC), "--witness", "W", "--universe", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS old-be")
        assert "note: coincidence-classes=9999300012" in out

    def test_sequential_time_passes(self, capsys):
        assert main(["check", "sequential-time", SPEC]) == 0
        assert capsys.readouterr().out.startswith("PASS sequential-time")

    def test_abstract_state_passes(self, capsys):
        assert main(["check", "abstract-state", SPEC, "--universe", "6"]) == 0

    def test_abstract_state_passes_at_huge_universe(self, capsys):
        assert main(["check", "abstract-state", SPEC, "--universe", "6"]) == 0
        small = capsys.readouterr()
        assert main(["check", "abstract-state", SPEC, "--universe", "100000"]) == 0
        assert capsys.readouterr() == small

    def test_abstract_state_on_a_sparse_carrier_keeps_the_work_budget(self, capsys):
        # Eight elements, two of them mentioned: answered at the tightest
        # universe, refused one above it, as every renaming is still counted.
        spec = str(REPO_ROOT / "specs" / "sparse8.spec")
        assert main(["check", "abstract-state", spec, "--universe", "11"]) == 0
        assert capsys.readouterr().out.startswith("PASS abstract-state")
        assert main(["check", "abstract-state", spec, "--universe", "12"]) == 2
        assert "needs 362880 renamings" in capsys.readouterr().err

    def test_abstract_state_names_an_explicit_failure_at_huge_universe(self, capsys):
        # The first failing renaming maps onto the least ids, so a failing
        # explicit algorithm is answered, with the same bytes, at any universe.
        spec = str(REPO_ROOT / "specs" / "incoherent.spec")
        assert main(["check", "abstract-state", spec, "--universe", "7"]) == 1
        small = capsys.readouterr()
        assert small.out.startswith("FAIL abstract-state")
        assert main(["check", "abstract-state", spec, "--universe", "100000"]) == 1
        assert capsys.readouterr() == small

    def test_new_be_fails_requirement_i(self, capsys):
        code = main(["check", "new-be", "--witness", "T1", SPEC, "--universe", "7"])
        out = capsys.readouterr().out
        assert code == 1
        assert "requirement (i)" in out

    def test_new_be_names_a_requirement_ii_witness(self, capsys):
        spec = str(REPO_ROOT / "specs" / "requirement-ii.spec")
        code = main(["check", "new-be", "--witness", "W", spec, "--universe", "7"])
        assert (code, capsys.readouterr().out) == (1, REQUIREMENT_II_REPORT)

    def test_equivalence_agreement(self, capsys):
        code = main(["check", "equivalence", "--witness", "T1", SPEC, "--universe", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "old-be=fail" in out and "new-be=fail" in out

    def test_empty_witness_needs_headroom(self, capsys):
        code = main(["check", "old-be", "--witness", "T0", SPEC, "--universe", "6"])
        assert code == 2
        assert "inconclusive" in capsys.readouterr().err

    def test_universe_over_work_budget(self, capsys):
        code = main(["check", "old-be", "--witness", "T1", SPEC, "--universe", "100000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "over the work limit of 250000" in captured.err

    def test_missing_witness_flag(self, capsys):
        assert main(["check", "old-be", SPEC]) == 2
        assert "--witness" in capsys.readouterr().err

    def test_unknown_witness_name(self, capsys):
        assert main(["check", "old-be", "--witness", "Zed", SPEC]) == 2
        assert "no witness named" in capsys.readouterr().err

    def test_unclosed_witness_rejected_for_new_be(self, tmp_path, capsys):
        doc = tmp_path / "unclosed.spec"
        doc.write_text(UNCLOSED_WITNESS_DOC, encoding="utf-8")
        code = main(["check", "new-be", "--witness", "W", str(doc), "--universe", "5"])
        assert code == 2
        assert "subterm-closed" in capsys.readouterr().err

    @pytest.mark.parametrize("arity", ["\u00b2", "1" * 5000])
    def test_unreadable_arity_is_one_error_line(self, tmp_path, capsys, arity):
        doc = tmp_path / "arity.spec"
        doc.write_text(f"vocabulary:\n  f/{arity}\nstate S:\n  elements x\ntransition:\n  state S -> S\n", "utf-8")
        assert main(["check", "sequential-time", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: line 2: bad arity in 'f/{arity}'"]

    def test_missing_file(self, capsys):
        assert main(["check", "sequential-time", "no-such-file.spec"]) == 2

    def test_lines_format_is_single_assertion(self, capsys):
        code = main(
            ["check", "old-be", "--witness", "T1", SPEC, "--universe", "7",
             "--format", "lines"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert out == ["FAIL old-be states coincide over the witness but have different update sets"]

    def test_suite_mode(self, capsys):
        code = main(["check", "equivalence", "--suite", "instances=4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            *(
                f"seed=0 instance={i} witness=w{w} old={verdict} new={verdict} agree=true"
                for i, w, verdict in [
                    (0, 0, "fail"), (0, 1, "fail"), (1, 0, "fail"), (1, 1, "fail"), (2, 0, "fail"),
                    (2, 1, "pass"), (2, 2, "pass"), (2, 3, "pass"), (2, 4, "pass"),
                    (3, 0, "pass"), (3, 1, "pass"), (3, 2, "pass"),
                ]
            ),
            "PASS equivalence-suite 4/4 instances agree",
            "  note: instances=4",
        ]

    def test_suite_mode_without_verdicts(self, capsys, monkeypatch):
        # A failed replay reports no verdicts, so its suite line shows "?".
        failure = CheckReport(False, "equivalence", "replay broken", witness={"route": "case2"})
        monkeypatch.setattr(harness, "_replay_proof", lambda index: failure)
        code = main(["check", "equivalence", "--suite", "instances=4"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines() == [
            *(
                f"seed=0 instance={i} witness=w{w} old=fail new=fail agree=true"
                for i, w in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
            ),
            *(f"seed=0 instance=2 witness=w{w} old=? new=? agree=false" for w in range(1, 5)),
            *(f"seed=0 instance=3 witness=w{w} old=? new=? agree=false" for w in range(3)),
            "FAIL equivalence-suite 2/4 instances agree",
            "  note: instances=4",
            "  witness:",
            "    route: case2",
        ]

    def test_suite_with_more_symbols_than_pooled_names(self, capsys):
        code = main(["check", "equivalence", "--suite", "symbols=9,instances=20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS equivalence-suite 20/20 instances agree" in out

    def test_suite_on_other_postulate_rejected(self, capsys):
        assert main(["check", "old-be", "--suite", "default"]) == 2
        assert main(["check", "abstract-state", "--suite", "default", "--universe", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --suite applies to 'check equivalence' only"] * 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--suite", "default", "--universe", "3"], "--suite takes no --universe"),
            (["--suite", "default", "--witness", "T1"], "--suite takes no --witness"),
            ([SPEC, "--suite", "default"], "--suite takes no specification document"),
            (["--suite", "default", SPEC], "--suite takes no specification document"),
            (["--suite", "seed=1,seed=2"], "suite option 'seed' given twice"),
            (["--suite", "seed=1, seed =2"], "suite option 'seed' given twice"),
        ],
    )
    def test_suite_refuses_options_it_would_ignore(self, capsys, options, message):
        assert main(["check", "equivalence", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_universe_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ASMKIT_UNIVERSE", "6")
        code = main(["check", "old-be", "--witness", "T0", SPEC])
        assert code == 2
        assert "inconclusive" in capsys.readouterr().err
        monkeypatch.setenv("ASMKIT_UNIVERSE", "7")
        assert main(["check", "old-be", "--witness", "T0", SPEC]) == 1

    def test_universe_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ASMKIT_UNIVERSE", "abc")
        assert main(["check", "old-be", SPEC, "--witness", "T1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: ASMKIT_UNIVERSE must be an integer, not 'abc'"]

    def test_suite_option_not_an_integer(self, capsys):
        assert main(["check", "equivalence", "--suite", "seed=x"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: suite option 'seed' must be an integer, not 'x'"]

    def test_suite_option_out_of_range(self, capsys):
        assert main(["check", "equivalence", "--suite", "instances=0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad suite options: instances must be positive"]

    @pytest.mark.parametrize(
        "argv",
        [["check", "old-be", "--witness", "T1"], ["check", "new-be", "--witness", "T1"], ["fmt"]],
    )
    def test_non_utf8_document(self, tmp_path, capsys, argv):
        doc = tmp_path / "bad.spec"
        doc.write_bytes(b"\xff\xfe")
        assert main([*argv, str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {doc} is not UTF-8 text: invalid start byte at byte 0"
        ]


class TestScenarioCommand:
    def test_remark(self, capsys):
        assert main(["scenario", "remark"]) == 0
        out = capsys.readouterr().out
        assert "PASS remark.partial-isomorphism-fails" in out

    def test_example(self, capsys):
        assert main(["scenario", "example"]) == 0
        out = capsys.readouterr().out
        assert "PASS example.fresh-pair-deltas" in out

    def test_example_headroom(self, capsys):
        assert main(["scenario", "example", "--universe", "6"]) == 2

    def test_remark_refuses_a_universe(self, capsys):
        assert main(["scenario", "remark", "--universe", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: scenario remark takes no --universe"]

    def test_lines_format(self, capsys):
        assert main(["scenario", "remark", "--format", "lines"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split()[0] in {"PASS", "FAIL"} for line in lines)


class TestFmtCommand:
    def test_canonical_reprint_is_fixed_point(self, tmp_path, capsys):
        assert main(["fmt", SPEC]) == 0
        first = capsys.readouterr().out
        echo = tmp_path / "echo.spec"
        echo.write_text(first, encoding="utf-8")
        assert main(["fmt", str(echo)]) == 0
        assert capsys.readouterr().out == first


class TestParserReuse:
    # One parser serves every call in a process; each call must still print
    # the bytes, and return the exit code, of a fresh process.  The sequence
    # sets options (--universe, --format lines, --witness) and then leaves
    # them out, so a value kept from one call would show in the next.
    SEQUENCE = [
        ["check", "bogus"],
        ["check", "old-be", SPEC, "--witness", "T1", "--universe", "7", "--format", "lines"],
        ["check", "new-be", SPEC, "--witness", "T1"],
        ["check", "old-be", SPEC],
        ["fmt", SPEC],
        ["check", "bogus"],
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("ASMKIT_UNIVERSE", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap to it
        env = dict(os.environ, PYTHONPATH=str(Path(asmkit.__file__).resolve().parent.parent))
        codes = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "asmkit", *argv], capture_output=True, env=env)
            assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [2, 1, 1, 2, 0, 2]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "asmkit", "scenario", "remark"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "PASS remark" in result.stdout
