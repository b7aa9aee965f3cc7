"""The README quick starts run as written and give the values they state."""

import re
import shlex
from pathlib import Path

import pytest

from biphoton.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, lang=""):
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_LINES = [
    shlex.split(line)[1:]
    for line in code_block("Quick start (CLI)").replace("\\\n", " ").splitlines()
    if line.strip()
]
# `biphoton validate` exits 3 by design (criterion 7); tests/test_acceptance.py covers it
RUN_LINES = [argv for argv in CLI_LINES if argv[0] != "validate"]


def test_only_validate_is_left_out():
    assert [argv[0] for argv in CLI_LINES if argv not in RUN_LINES] == ["validate"]


@pytest.mark.parametrize("argv", RUN_LINES, ids=[argv[0] for argv in RUN_LINES])
def test_cli_quick_start(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_library_quick_start():
    namespace = {}
    checked = []
    for line in code_block("Quick start (library)", "python").splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*(\d+\.\d+)(\.\.\.)?", comment)
        if stated is None:
            exec(line, namespace)
            continue
        digits, truncated = stated.groups()
        value = eval(code, namespace)
        if truncated:
            assert str(value).startswith(digits), line
        else:
            assert abs(value - float(digits)) <= 1e-12, line
        checked.append(digits)
    assert checked == ["0.0", "0.19673", "1.0", "1.0"]
