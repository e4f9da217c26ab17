"""README's CLI block and library example run as written, its module table
names every module, and the package imports nothing outside the standard
library."""

import ast
import io
import re
import shlex
import sys
from pathlib import Path

from ppforge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "ppforge").glob("*.py"))


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


def test_readme_module_table_names_every_module():
    section = README.split("\n## What's inside\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    for path in MODULES:
        name = "ppforge" if path.stem == "__init__" else f"ppforge.{path.stem}"
        assert any(row.startswith(f"| `{name}` ") for row in rows), name


def test_package_imports_the_standard_library_only():
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: within ppforge
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "ppforge", (path.name, name)
