"""The README's library-use example runs as written, and its command-line
block uses only flags the parser accepts."""

import re
import shlex
from pathlib import Path

from sfwg.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # It prints the L2 and energy errors of a tri n=16, k=2 solve.
    errs = [float(e) for e in capsys.readouterr().out.split()]
    assert len(errs) == 2 and all(0.0 < e < 1e-2 for e in errs)


def command_lines():
    """The argument lists of the ``sfwg`` commands in the README's
    command-line block, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "sfwg"]


def test_command_line_block_parses_and_runs(tmp_path, monkeypatch, capsys):
    commands = command_lines()
    assert {argv[0] for argv in commands} == {"study", "solve", "mesh"}
    for argv in commands:
        _build_parser().parse_args(argv)
    # The mesh and solve lines are small: run them where they may write.
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] in ("mesh", "solve"):
            assert main(argv) == 0, argv
    assert (tmp_path / "poly8.txt").read_text().startswith("polymesh 1\n")
    assert "err_l2=" in capsys.readouterr().out
