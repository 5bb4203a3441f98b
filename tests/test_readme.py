"""The README's Python examples and command lines run as written."""

import re
from pathlib import Path

import pytest

from cvue.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
COMMANDS = re.findall(r"^cvue (.*)$", README.read_text(), flags=re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # config paths are relative to the repository root; --out goes to tmp_path
    monkeypatch.chdir(README.parent)
    argv = line.split()
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
