"""The CLI's exact output bytes, pinned.

tests/golden_cli.json holds, for each call below, the exit code, stdout and
stderr the CLI gave, with every elapsed_us cell set to 0: a timing is the one
cell that may differ between runs.  Sweeps, searches and checks are also
run at --jobs=2, which must print the same bytes, and a check, one tuple,
at --jobs=4 with no process pool to start.
"""

import io
import json
import re
from pathlib import Path

import pytest

from ppforge import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

T1 = ["family=T1", "q=13", "d=2", "k=1", "r=1..6", "c=all"]
T6 = ["family=T6", "q=13", "u=1,3", "v=1", "r=1..4", "c=all"]
T5 = ["family=T5", "q=11", "k=0,2", "r=1..30", "c=all"]

CALLS = [
    ["sweep", *T1],
    ["--format=jsonl", "sweep", *T1],
    ["sweep", *T6],
    ["--format=jsonl", "sweep", *T6],
    ["search", *T5],
    ["--format=jsonl", "search", *T5],
    ["check", "family=T6", "q=5", "u=1", "v=1", "r=1", "c=2"],
    ["--format=jsonl", "check", "family=T1", "q=13", "d=2", "k=1", "r=5", "c=2"],
    ["--format=jsonl", "check", "family=T6", "q=13", "u=1", "v=3", "r=3", "c=2"],
    ["identities", "q=5,13"],
    ["--format=jsonl", "identities", "q=5,13"],
    ["sweep", "family=T1", "q=13", "d=2", "k=2", "r=1..5", "c=all"],
    # rows that repeat a folded f: 552 rows with 185 distinct f, and a search
    # whose 12 groups, all with distinct h, still repeat 357 of 1,428 f
    ["sweep", "family=T1", "q=5", "d=2,6", "r=1..23", "c=all"],
    ["search", "family=T5", "q=11", "r=1..119", "c=all"],
    # extension fields: 4,800 rows on F_{3^4}, and the ext-q81 benchmark's
    # 492 rows on F_{3^8}
    ["sweep", "family=T1", "q=3^2", "d=2,10", "r=1..80", "c=all"],
    ["sweep", "family=T1", "q=3^4", "d=2", "k=1,3", "r=1..6", "c=all"],
]


def mask(text):
    """text with every elapsed_us cell, the last CSV column or a JSON key,
    set to 0."""
    text = re.sub(r'"elapsed_us": \d+', '"elapsed_us": 0', text)
    lines = text.split("\n")
    if lines[0].endswith(",elapsed_us"):
        lines[1:] = [re.sub(r",\d+$", ",0", line) for line in lines[1:]]
    return "\n".join(lines)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return {"argv": argv, "code": code, "stdout": mask(out.getvalue()),
            "stderr": err.getvalue()}


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_call():
    assert list(golden()) == [tuple(argv) for argv in CALLS]


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_output_bytes_are_pinned(argv, monkeypatch):
    expected = golden()[tuple(argv)]
    assert run(["--jobs=1", *argv]) == dict(expected, argv=["--jobs=1", *argv])
    if "identities" in argv:
        return
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # a pool even on one core
    flags = ["--jobs=2"]
    if "check" in argv:  # one tuple: no pool at any --jobs
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        flags.append("--jobs=4")
    for jobs in flags:
        assert run([jobs, *argv]) == dict(expected, argv=[jobs, *argv])
