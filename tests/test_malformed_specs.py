"""The CLI's exit-code contract on malformed documents.

Seeded mutations of the checked-in specs (lines deleted, duplicated and
swapped; characters and tokens replaced, inserted and dropped) run under
every command that reads a document, in this process, through ``cli.main``.
Every run must exit 0, 1 or 2, and an exit 2 must print nothing on stdout
and exactly one ``error:`` line on stderr, whatever the input.
"""
import random
import re

from asmkit.cli import main
from conftest import REPO_ROOT

SPECS = [path.read_text(encoding="utf-8") for path in sorted((REPO_ROOT / "specs").glob("*.spec"))]
# The spec format's own characters, a tab, and two outside ASCII, one of
# them a superscript digit.
ALPHABET = "abfxyz019 :/=-><(),#\n\t_é²"
CASES = 1200


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one line, character or token deleted, duplicated,
    swapped, replaced or inserted."""
    kind = rng.randrange(9)
    lines = text.split("\n")
    if kind < 3:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    if kind < 6:
        i, char = rng.randrange(len(text) + 1), rng.choice(ALPHABET)
        return text[:i] + ("" if kind == 5 else char) + text[i + (kind != 4):]
    spans = [match.span() for match in re.finditer(r"\S+", text)]
    if not spans:
        return text
    a, b = rng.choice(spans)
    token = text[slice(*rng.choice(spans))]
    if kind == 6:
        return text[:a] + token + text[b:]
    if kind == 7:
        return text[:a] + token + " " + text[a:]
    return text[:a] + text[b:]


def _commands(path: str, witness: str) -> list[list[str]]:
    return [
        ["check", "sequential-time", path],
        ["check", "abstract-state", path],
        ["check", "old-be", path, "--witness", witness],
        ["check", "new-be", path, "--witness", witness],
        ["check", "equivalence", path, "--witness", witness],
        ["fmt", path],
    ]


def test_mutated_specs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(9)
    path = tmp_path / "mutated.spec"
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(CASES):
        text = rng.choice(SPECS)
        witness = rng.choice(re.findall(r"^witness (\w+):", text, re.M) or ["W"])
        for _ in range(rng.randint(1, 3)):
            text = _mutated(rng, text)
        path.write_text(text, encoding="utf-8")
        argv = _commands(str(path), witness)[case % 6]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in codes, (argv, text)
        codes[code] += 1
        if code == 2:
            assert (out, len(err.splitlines()), err.startswith("error: ")) == ("", 1, True), (argv, text, err)
    # every outcome is reached, so the mutations neither all break nor all keep a document
    assert min(codes.values()) > 0, codes
