"""The README's command-line examples, run in-process against what they show."""

from __future__ import annotations

import io
import re
import shlex
from pathlib import Path

from cumulants.cli import main
from cumulants.series import LIMITS

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    """(argv, stdin, shown output) for each ``$ cumulants ...`` example."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    examples = []
    for entry in block.strip().split("\n\n"):
        command, shown = entry.replace("\\\n", "").split("\n", 1)
        stdin = ""
        if " | " in command:
            echo, command = command.split(" | ", 1)
            stdin = shlex.split(echo)[2] + "\n"
        prog, *argv = shlex.split(command.removeprefix("$ "))
        assert prog == "cumulants", entry
        examples.append((argv, stdin, shown.strip()))
    return examples


def test_readme_cli_examples(capsys, monkeypatch):
    examples = cli_examples()
    assert examples
    for argv, stdin, shown in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        # '...' in the README stands for output left out
        pattern = ".*".join(map(re.escape, shown.split("...")))
        assert re.fullmatch(pattern + "\n", out, re.S), (argv, out)


def limits_table() -> list[tuple[str, int]]:
    """(cap, n) for each row of the table in the README's "Enumeration limits" section."""
    section = README.read_text(encoding="utf-8").split("## Enumeration limits", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [(name, int(n)) for name, n in re.findall(r"^\| `([^`]+)` \| (\d+) \|", section, re.M)]


def test_readme_limits_table_is_the_limits_table():
    rows = limits_table()
    assert len(rows) == len(dict(rows)), rows  # no cap listed twice
    assert dict(rows) == LIMITS


# caps the README states in prose outside the table, each with the entry it names
PROSE_CAPS = [
    ("abel suite", r"The `abel` suite runs for n = 1\.\.(\d+):"),
    ("abel suite", r"`cumulants verify --suite abel --n (\d+)` takes"),
    ("set partitions", r"All 678,570 set partitions of n = (\d+) take"),
    ("noncrossing partitions", r"the n = (\d+) limit runs: NC\((\d+)\),"),
    ("parking functions", r"`cumulants verify --suite volume --n (\d+)` takes"),
    ("volume shape checks", r"stop at n = (\d+), the `volume shape checks` cap"),
    ("volume", r"`cumulants volume` accepts `--n` up to (\d+) "),
]


def test_readme_prose_caps_are_the_limits_table():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for cap, pattern in PROSE_CAPS:
        found = [int(n) for match in re.finditer(pattern, text) for n in match.groups()]
        assert found and set(found) == {LIMITS[cap]}, (cap, pattern, found)
