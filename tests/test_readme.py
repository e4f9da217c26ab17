"""README's CLI block and library example run as written."""

import io
import re
import shlex
from pathlib import Path

from ppforge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after the line '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_cli_lines_exit_zero():
    lines = [line for line in fenced_block("CLI", "sh").splitlines()
             if line.startswith("ppforge ")]
    assert len(lines) == 5
    for line in lines:
        # one worker: the output does not depend on --jobs, and no pool is started
        argv = ["--jobs=1", *shlex.split(line)[1:]]
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, out=out, err=err) == 0, (line, err.getvalue())
        assert out.getvalue()


def test_readme_library_example_runs(capsys):
    exec(fenced_block("Library example", "python"), {})
    assert capsys.readouterr().out == "2x^5 + 2x^101\n"
