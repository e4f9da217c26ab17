import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from ppforge import (
    HypothesesNotSatisfied,
    SizeExceeded,
    build_field,
    field_from_text,
    is_permutation_of_field,
)
from ppforge import cli, families
from ppforge.cli import main, parse_int_list, parse_prime_power
from ppforge.families import FamilyParams, build_f
from ppforge.cli import UsageError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_prime_power():
    assert parse_prime_power("13") == (13, 1)
    assert parse_prime_power("9") == (3, 2)
    assert parse_prime_power("3^2") == (3, 2)
    assert parse_prime_power("25") == (5, 2)
    for bad in ("8", "12", "2^3", "1", "4^2"):
        with pytest.raises(UsageError):
            parse_prime_power(bad)


def test_parse_int_list():
    assert parse_int_list("1,3,5") == [1, 3, 5]
    assert parse_int_list("1..4") == [1, 2, 3, 4]
    assert parse_int_list("7,1..3") == [7, 1, 2, 3]
    assert parse_int_list("3..3") == [3]
    with pytest.raises(UsageError):
        parse_int_list(",")
    with pytest.raises(UsageError, match="reversed range"):
        parse_int_list("1,9..3")
    code, out, err = run_cli("sweep", "family=T1", "q=13", "d=2", "k=1", "r=1,9..3", "c=2")
    assert code == 64 and out == "" and "reversed range '9..3'" in err


# ---------------------------------------------------------------------------
# field-info
# ---------------------------------------------------------------------------

def test_field_info_roundtrip(tmp_path):
    code, out, _ = run_cli("field-info", "q=13")
    assert code == 0
    field = field_from_text(out)
    assert field.q == 13
    path = tmp_path / "f169.field"
    path.write_text(out)
    code, out2, _ = run_cli("field-info", f"file={path}")
    assert code == 0 and out2 == out


def test_field_info_usage_errors():
    assert run_cli("field-info", "q=12")[0] == 64
    assert run_cli("field-info")[0] == 64
    assert run_cli("field-info", "q=251", "--max-field=1000")[0] == 64


def test_field_info_refuses_oversized_q_before_factoring():
    # a 13-digit prime: trial division up to q itself would run for hours
    code, _, err = run_cli("field-info", "q=1000000000039")
    assert code == 64 and "exceeds the configured cap" in err
    assert run_cli("field-info", "q=3^1000000000")[0] == 64


def test_field_info_refuses_oversized_file_before_primality(tmp_path):
    # a 31-digit p: is_prime alone would run far longer than the bound below
    path = tmp_path / "huge.field"
    path.write_text("p=1000000000000000000000000000057\nh=1\nmodulus=1,0,1\ngenerator=2\n")
    start = time.perf_counter()
    code, _, err = run_cli("field-info", f"file={path}")
    assert time.perf_counter() - start < 0.5
    assert code == 64 and "exceeds the configured cap" in err
    path.write_text("p=3\nh=1000000000\nmodulus=1,0,1\ngenerator=2\n")
    assert run_cli("field-info", f"file={path}")[0] == 64
    with pytest.raises(SizeExceeded):
        field_from_text("p=13\nh=1\nmodulus=6,0,1\ngenerator=2\n", max_size=168)


def test_parse_prime_power_bounds():
    assert parse_prime_power("1000000000039") == (1000000000039, 1)  # sqrt(q) divisions
    assert parse_prime_power("8191", 1 << 26) == (8191, 1)
    for text in ("8209", "3^14"):
        with pytest.raises(SizeExceeded):
            parse_prime_power(text, 1 << 26)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_permutation_instance():
    code, out, _ = run_cli("check", "family=T1", "q=13", "d=2", "k=1", "r=5", "c=2")
    assert code == 0
    row, = parse_csv(out)
    assert row["predicate"] == "true" and row["oracle"] == "true" and row["agree"] == "true"
    assert row["reduced_f"] == "2x^5 + 2x^101"
    assert row["k"] == "1" and row["u"] == "" and row["v"] == ""


def test_check_non_permutation_instance():
    code, out, _ = run_cli("check", "family=T6", "q=5", "u=1", "v=1", "r=1", "c=2")
    assert code == 1
    row, = parse_csv(out)
    assert row["predicate"] == "false" and row["oracle"] == "false" and row["agree"] == "true"
    assert row["k"] == "" and row["u"] == "1" and row["v"] == "1"


def test_check_hypothesis_violation():
    code, out, err = run_cli("check", "family=T1", "q=7", "d=2", "k=1", "r=5", "c=2")
    assert code == 65
    assert "q != 1 (mod 4)" in err
    assert out == ""


def test_check_usage_errors():
    assert run_cli("check", "family=T1", "q=13", "d=2", "k=1", "r=5")[0] == 64  # no c
    assert run_cli("check", "family=T7", "q=13", "r=1", "c=2")[0] == 64
    assert run_cli("check", "family=T1", "q=13", "d=2", "k=1", "r=1..5", "c=2")[0] == 64
    assert run_cli("check", "family=T1", "q=13", "d=2", "k=1", "r=0", "c=2")[0] == 64
    assert run_cli("check", "bogus")[0] == 64
    assert run_cli("check", "family=T1", "q=13", "d=0", "k=1", "r=1", "c=2")[0] == 64


def test_check_non_divisor_d_is_a_hypothesis_violation():
    code, _, err = run_cli("check", "family=T1", "q=13", "d=5", "k=1", "r=1", "c=2")
    assert code == 65
    assert "q != -1 (mod d)" in err
    code, _, err = run_cli("check", "family=T5", "q=13", "k=0", "r=1", "c=2")
    assert code == 65
    assert "q != 3 (mod 8)" in err


def test_check_jsonl():
    code, out, _ = run_cli("--format=jsonl", "check", "family=T1", "q=13", "d=2",
                           "k=1", "r=5", "c=2")
    assert code == 0
    row = json.loads(out)
    assert row["predicate"] is True and row["c"] == 2 and row["u"] is None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_t3_small():
    code, out, err = run_cli("--jobs=1", "sweep", "family=T3", "q=5",
                             "d=2,3,6", "k=0", "r=1..24", "c=2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3 * 24
    assert all(row["agree"] == "true" for row in rows)
    for row in rows:
        r = row["r"]
        assert row["reduced_f"] == (f"2x^{r}" if r != "1" else "2x")
    assert "tuples=72 disagreements=0" in err


def test_sweep_t1_counts():
    code, out, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2",
                             "k=1", "r=1..20", "c=all")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7 * 20  # 7 valid c
    assert all(row["agree"] == "true" for row in rows)


def test_sweep_full_t1_grid():
    code, out, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2",
                             "k=1,3,5,7", "r=1..167", "c=all")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4 * 167 * 7
    assert all(row["agree"] == "true" for row in rows)
    assert "tuples=4676 disagreements=0" in err


def test_sweep_multiple_q():
    code, out, _ = run_cli("--jobs=1", "sweep", "family=T3", "q=5,7",
                           "d=2", "k=0", "r=1..10", "c=1")
    assert code == 0
    rows = parse_csv(out)
    assert {row["q"] for row in rows} == {"5", "7"}
    assert len(rows) == 20


def test_sweep_empty_range_is_usage_error():
    assert run_cli("sweep", "family=T1", "q=13", "d=2", "k=1", "r=", "c=all")[0] == 64


def test_sweep_hypothesis_violation():
    code, _, err = run_cli("sweep", "family=T1", "q=13", "d=2", "k=2", "r=1..5", "c=all")
    assert code == 65
    assert "k is not odd" in err


def test_sweep_rejects_any_violating_q_before_computing_a_row(monkeypatch):
    def no_rows(field, tup):
        raise AssertionError(f"row computed at q={field.q} before every q was validated")

    monkeypatch.setattr(cli, "compute_row", no_rows)
    # 7 sorts before 13; 19 sorts after it, so it is caught only by validating up front
    for q in ("q=13,7", "q=13,19"):
        code, out, err = run_cli("--jobs=1", "sweep", "family=T1", q, "d=2", "k=1",
                                 "r=1..3", "c=all")
        assert code == 65 and out == ""
        assert "violation: q != 1 (mod 4)" in err


def test_sweep_validates_once_per_group(monkeypatch):
    calls = []

    def counting(validate):
        def wrapper(params):
            calls.append((params.k, int(params.c)))
            return validate(params)
        return wrapper

    monkeypatch.setattr(cli, "validate", counting(cli.validate))
    monkeypatch.setattr(families, "validate", counting(families.validate))
    code, _, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2", "k=1,3",
                           "r=1..20", "c=all")
    assert code == 0 and "tuples=280 disagreements=0" in err
    assert len(calls) == 14 == len(set(calls))  # 2 k x 7 c, never once per r


def test_compute_rows_caps_workers_at_tuple_count(monkeypatch):
    class InProcessPool:
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    workers = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    field = build_field(13, 1)
    tuples = [("T1", 2, 1, 0, 0, 5, 2), ("T1", 2, 1, 0, 0, 6, 2)]
    rows = cli.compute_rows(field, tuples, 64, 0, 1 << 26)
    assert workers == [2]
    assert [(row["r"], row["oracle"]) for row in rows] == [(5, True), (6, False)]
    with pytest.raises(HypothesesNotSatisfied):
        cli.compute_rows(field, [("T1", 2, 2, 0, 0, 5, 2)] * 2, 64, 0, 1 << 26)
    assert workers == [2]


def test_sweep_deterministic_and_parallel_consistent():
    rows = []
    for jobs in ("--jobs=1", "--jobs=2"):
        code, out, _ = run_cli(jobs, "sweep", "family=T5", "q=11",
                               "k=0,2", "r=1..30", "c=all")
        assert code == 0
        parsed = parse_csv(out)
        for row in parsed:
            row.pop("elapsed_us")
        rows.append(parsed)
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_rows_are_oracle_verified():
    code, out, err = run_cli("--jobs=1", "search", "family=T5", "q=11",
                             "k=0,2", "r=1..119", "c=all")
    assert code == 0
    rows = parse_csv(out)
    assert rows, "the grid contains permutations"
    field = build_field(11, 1)
    for row in rows[::17]:
        params = FamilyParams(tag="T5", field=field, r=int(row["r"]),
                              c=field.from_int(int(row["c"])), k=int(row["k"]))
        assert is_permutation_of_field(field, build_f(params)).is_bijection
    keys = [(r["q"], r["family"], r["d"], r["k"], r["u"], r["v"],
             int(r["r"]), int(r["c"])) for r in rows]
    assert keys == sorted(keys)


def test_search_byte_identical_rerun():
    first = run_cli("search", "family=T5", "q=11", "k=0,2", "r=1..60", "c=all")
    second = run_cli("search", "family=T5", "q=11", "k=0,2", "r=1..60", "c=all")
    assert first == second


def test_search_empty_result_is_ok():
    # r=2 fails gcd(r, (q^2-1)/4) = 1 for every c, so nothing is emitted
    code, out, _ = run_cli("search", "family=T5", "q=11", "k=0", "r=2", "c=all")
    assert code == 0
    assert parse_csv(out) == []


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_identities_all_pass():
    code, out, _ = run_cli("identities", "q=5,13")
    assert code == 0
    rows = parse_csv(out)
    assert all(row["result"] in ("pass", "skipped") for row in rows)
    assert any(row["result"] == "pass" for row in rows)
    d4 = [row for row in rows if row["lemma"] == "d4"]
    assert {row["result"] for row in d4} == {"skipped"}  # 5 and 13 are 1 mod 4


def test_identities_include_d4_when_admissible():
    code, out, _ = run_cli("identities", "q=11")
    assert code == 0
    d4 = [row for row in parse_csv(out) if row["lemma"] == "d4"]
    assert len(d4) == 1 and d4[0]["result"] == "pass"


# ---------------------------------------------------------------------------
# seed handling and module execution
# ---------------------------------------------------------------------------

def test_seed_env_override(monkeypatch):
    base = run_cli("field-info", "q=13")[1]
    monkeypatch.setenv("PPFORGE_SEED", "0")
    assert run_cli("field-info", "q=13")[1] == base
    monkeypatch.setenv("PPFORGE_SEED", "12345")
    other = run_cli("field-info", "q=13")[1]
    field_from_text(other)  # still a valid field description
    monkeypatch.delenv("PPFORGE_SEED")
    assert run_cli("field-info", "q=13")[1] == base


def test_sweep_verdicts_invariant_under_seed_and_jobs(monkeypatch):
    # the oracle walks powers of the seeded generator; its verdicts must not
    # depend on which generator (or field model) the seed picked
    argv = ["sweep", "family=T1", "q=3^4", "d=2", "k=1,3", "r=1..6", "c=all"]
    per_seed = []
    for seed in ("0", "1", "2"):
        monkeypatch.setenv("PPFORGE_SEED", seed)
        runs = []
        for jobs in ("--jobs=1", "--jobs=2"):
            code, out, err = run_cli(jobs, *argv)
            assert code == 0 and "tuples=492 disagreements=0" in err
            rows = parse_csv(out)
            for row in rows:
                del row["elapsed_us"]
            runs.append(rows)
        assert runs[0] == runs[1]
        per_seed.append(Counter(row["r"] for row in runs[0] if row["oracle"] == "true"))
    assert per_seed[0] == per_seed[1] == per_seed[2]
    assert sum(per_seed[0].values()) == 82


def run_module(*argv):
    """python -m ppforge in a child process that imports this same ppforge."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "ppforge", *argv],
                          capture_output=True, text=True, env=env)


def test_no_arguments_is_usage_error():
    proc = run_module()
    assert proc.returncode == 64


def test_help_exits_zero():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


def test_module_entry_point():
    proc = run_module("check", "family=T1", "q=13", "d=2", "k=1", "r=5", "c=2")
    assert proc.returncode == 0
    assert "2x^5 + 2x^101" in proc.stdout
