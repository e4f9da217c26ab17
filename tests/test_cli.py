import csv
import functools
import io
import json
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppforge import (
    HypothesesNotSatisfied,
    SizeExceeded,
    SparsePoly,
    build_field,
    field_from_text,
    is_permutation_of_field,
    permutes,
)
from ppforge import cli, errors, families, oracle
from ppforge.cli import main, parse_int_list, parse_prime_power
from ppforge.families import FamilyParams, build_f, validate
from ppforge.ffcore import FieldSpec
from ppforge.grid import Grid
from ppforge.cli import UsageError
from reference import product_grid


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
    assert parse_prime_power("13", 1 << 26) == (13, 1)
    assert parse_prime_power("9", 1 << 26) == (3, 2)
    assert parse_prime_power("3^2", 1 << 26) == (3, 2)
    assert parse_prime_power("25", 1 << 26) == (5, 2)
    for bad in ("8", "12", "2^3", "1", "4^2", "9^1", "2^40", "1^100", "-3^2"):
        with pytest.raises(UsageError):
            parse_prime_power(bad, 1 << 26)


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
    # h >= 1 is tested first, so 0 ** (2*h) is never taken
    path.write_text("p=0\nh=-1\nmodulus=1\ngenerator=0\n")
    code, out, err = run_cli("field-info", f"file={path}")
    assert (code, out) == (64, "") and err.startswith("error:") and err.count("\n") == 1
    with pytest.raises(SizeExceeded):
        field_from_text("p=13\nh=1\nmodulus=6,0,1\ngenerator=2\n", max_size=168)
    # a valid description padded with a comment line to the byte cap reads;
    # one byte more is refused before it is parsed
    text = run_cli("field-info", "q=13")[1]
    path.write_text(text + "#" * (cli.MAX_FIELD_FILE - len(text)))
    assert run_cli("field-info", f"file={path}") == (0, text, "")
    path.write_text(text + "#" * (cli.MAX_FIELD_FILE - len(text) + 1))
    start = time.perf_counter()
    code, out, err = run_cli("field-info", f"file={path}")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (64, "") and "over 65536 bytes" in err


def test_parse_prime_power_bounds():
    assert parse_prime_power("1000000000039", 1 << 80) == (1000000000039, 1)  # sqrt(q) divisions
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


def test_check_past_q_46341_labels_above_2_to_the_31():
    """q = 46,349, the least prime with n = q^2 - 1 >= 2^31, under a raised
    --max-field: the labels of LH no longer fit a 4-byte C int.  r = 17
    permutes and r = 1 does not; each check exits as r_criterion says."""
    for r, code in ((17, 0), (1, 1)):
        assert families.r_criterion("T6", 46349, 2, None, 1, r) == (code == 0)
        proc = run_module("--max-field", str(46349 ** 2), "check", "family=T6", "q=46349",
                          "u=1", "v=1", f"r={r}", "c=2")
        assert (proc.returncode, proc.stderr) == (code, ""), proc.stderr
        row, = parse_csv(proc.stdout)
        assert row["predicate"] == row["oracle"] == ("true" if code == 0 else "false")
        assert row["agree"] == "true"


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


T1_TUPLE = ("family=T1", "q=13", "d=2", "k=1", "r=5", "c=2")


@pytest.mark.parametrize("argv, fragment", [
    (("check", *T1_TUPLE, "bogus=1"), "unknown parameter 'bogus'"),
    (("check", *T1_TUPLE, "q=5"), "duplicate parameter 'q'"),
    (("check", "family=T1", "q=13", "d=2", "k=1", "c=2"), "r is required"),
    (("sweep", "family=T1", "q=13", "k=1", "r=5", "c=2"), "T1 requires d"),
    (("check", "family=T6", "q=5", "u=1", "r=1", "c=2"), "T6 requires u and v"),
    (("--jobs=0", "check", *T1_TUPLE), "--jobs must be >= 1"),
    (("field-info", "q=3^0"), "bad exponent in q=3^0"),
    (("field-info", "file={f169}", "q=7"), "file describes q=13, not q=7"),
    (("field-info", "q=13,7"), "field-info takes one q, got q=13,7"),
    # q=7 breaks T1's hypotheses, but the usage error comes before exit 65
    (("check", "family=T1", "q=13,7", "d=2", "k=1", "r=5", "c=2"),
     "check takes exactly one parameter tuple"),
    (("sweep", "family=T1", "q=13", "d=2", "k=x", "r=5", "c=2"), "not an integer: 'x'"),
    (("sweep", "family=T1", "q=13", "d=2", "k=1", "r=5", "c=two"), "not an integer: 'two'"),
    (("sweep", "family=T1", "q=3^x", "d=2", "k=1", "r=5", "c=2"), "not an integer: 'x'"),
    (("sweep", "family=T1", "q=13,", "d=2", "k=1", "r=5", "c=2"), "not an integer: ''"),
    (("identities", "q=13", "k=1.5"), "not an integer: '1.5'"),
    # T1-T4 take d and k, T5 takes k (d is 4), T6 takes u and v (d is 2);
    # another family key is refused before its value is parsed
    (("check", "family=T5", "q=11", "d=7", "k=0", "r=3", "c=2"), "family T5 does not take d\n"),
    (("check", "family=T6", "q=13", "u=1", "v=1", "k=abc", "d=xyz", "r=3", "c=2"),
     "family T6 does not take d, k\n"),
    (("sweep", "family=T1", "q=13", "d=2", "k=1", "u=1", "r=5", "c=2"), "family T1 does not take u\n"),
    (("sweep", "family=T3", "q=13", "d=2", "v=1", "r=5", "c=2"), "family T3 does not take v\n"),
    (("search", "family=T5", "q=11", "k=0", "u=1", "v=2", "r=1..9", "c=all"),
     "family T5 does not take u, v\n"),
])
def test_usage_errors(argv, fragment, tmp_path):
    f169 = tmp_path / "f169.field"
    f169.write_text(run_cli("field-info", "q=13")[1])
    code, out, err = run_cli(*(arg.format(f169=f169) for arg in argv))
    assert code == 64 and out == ""
    assert fragment in err and err.startswith("usage error: ")


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


def test_disagreement_exits_2(monkeypatch):
    # a predicate negated on every r disagrees with the oracle on every row
    criterion = cli.r_criterion
    monkeypatch.setattr(cli, "r_criterion", lambda *args: not criterion(*args))
    code, out, err = run_cli("check", *T1_TUPLE)
    row, = parse_csv(out)
    assert (code, err) == (2, "")
    assert (row["predicate"], row["oracle"], row["agree"]) == ("false", "true", "false")
    code, out, err = run_cli("--format=jsonl", "check", *T1_TUPLE)
    assert (code, err) == (2, "") and json.loads(out)["agree"] is False
    code, out, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2", "k=1", "r=1..20",
                             "c=all")
    rows = parse_csv(out)
    assert code == 2 and err == f"tuples={len(rows)} disagreements={len(rows)}\n"
    assert rows and all(row["agree"] == "false" for row in rows)


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


def test_oversized_grid_is_rejected_before_it_is_built(monkeypatch):
    bound = cli.MAX_GRID
    # a range is counted, not expanded
    message = f"lists 1000000000001 values, above the bound of {bound}"
    with pytest.raises(UsageError, match=message):
        parse_int_list("1,1..1000000000000")

    def not_built(*args):
        raise AssertionError("built past the grid bound")

    monkeypatch.setattr(cli, "valid_c_values", not_built)
    monkeypatch.setattr(cli, "compute_rows", not_built)
    cases = [
        # (argv, the size the message names)
        (["sweep", "family=T1", "q=13", "d=2", "k=1", "r=1..1000000000000", "c=2"],
         f"lists 1000000000000 values, above the bound of {bound}"),
        # c=all for T3 is every nonzero c: 40 default k x 168 default r x 168 c
        (["sweep", "family=T3", "q=13", "d=20"],
         f"grid of 1128960 tuples exceeds the bound of {bound}"),
        # a default k window is counted, not listed: d = 10^9 has 10^9 odd k
        (["sweep", "family=T1", "q=13", "d=1000000000", "r=1", "c=2"],
         f"grid of 1000000000 tuples exceeds the bound of {bound}"),
        (["sweep", "family=T6", "q=13", "u=1..1025", "v=1..1025", "r=1", "c=2"],
         f"grid of 1050625 tuples exceeds the bound of {bound}"),
        (["identities", "q=13", "k=1..1000000000000"],
         f"lists 1000000000000 values, above the bound of {bound}"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(*argv)
        assert (code, out) == (64, ""), argv
        assert err.startswith("usage error: ") and message in err, (argv, err)


def test_grid_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID", 5)
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    with pytest.raises(UsageError, match="'1..6' lists 6 values, above the bound of 5"):
        parse_int_list("1..6")
    argv = ["sweep", "family=T1", "q=13", "d=2", "k=1,3", "r=1..3", "c=2"]
    monkeypatch.setattr(cli, "MAX_GRID", 6)
    assert run_cli(*argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_GRID", 5)
    code, _, err = run_cli(*argv)
    assert code == 64 and "grid of 6 tuples exceeds the bound of 5" in err


def test_grid_bound_admits_default_grids():
    # the default r and c=all at q = 13 and 17: 10 x 168^2 and 4 x 288^2 tuples
    for q, d, size in ((13, 5, 282240), (17, 2, 331776)):
        params = cli.parse_kv(["family=T3", f"d={d}"], cli.FAMILY_KEYS)
        assert len(cli.build_grid(params, build_field(q, 1), "T3", True)) == size
    # the largest grid of the benchmark
    params = cli.parse_kv(["family=T1", "d=2,14", "r=1..167", "c=all"], cli.FAMILY_KEYS)
    assert len(cli.build_grid(params, build_field(13, 1), "T1", True)) == 18704


def test_sweep_hypothesis_violation():
    code, _, err = run_cli("sweep", "family=T1", "q=13", "d=2", "k=2", "r=1..5", "c=all")
    assert code == 65
    assert "k is not odd" in err


def test_hypothesis_exit_on_an_extension_field(monkeypatch):
    # q = 7^3 is not 1 mod 4, so the sweep exits 65 before any row; c is
    # still validated, by its log
    cached = build_field(7, 3)
    fresh = FieldSpec(7, 3, cached.modulus, cached.generator.coeffs)  # no logs built
    monkeypatch.setattr(cli, "build_field", lambda p, h, **kwargs: fresh)
    code, out, err = run_cli("--jobs=1", "sweep", "family=T1", "q=7^3", "d=2", "k=1",
                             "r=1..6", "c=5")
    assert (code, out) == (65, "") and err.startswith("violation: ")
    assert fresh._logs is not None  # c was validated by logs


def test_sweep_rejects_any_violating_q_before_computing_a_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("row computed before every q was validated")

    # the row kernel calls both for every row it makes
    monkeypatch.setattr(cli, "r_criterion", no_rows)
    monkeypatch.setattr(cli, "permutes", no_rows)
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
            calls.append((params.field.q, params.k, int(params.c)))
            return validate(params)
        return wrapper

    monkeypatch.setattr(cli, "validate", counting(cli.validate))
    monkeypatch.setattr(families, "validate", counting(families.validate))
    code, _, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2", "k=1,3",
                           "r=1..20", "c=all")
    assert code == 0 and "tuples=280 disagreements=0" in err
    assert len(calls) == 14 == len(set(calls))  # 2 k x 7 c, never once per r
    # every q is validated once, all of them before any row is computed
    calls.clear()
    code, _, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13,17", "d=2", "k=1",
                           "r=1..3", "c=all")
    assert code == 0 and "tuples=48 disagreements=0" in err
    assert len(calls) == 16 == len(set(calls))  # 7 c at q=13, 9 at q=17


def test_sweep_builds_its_constants_once_per_group(monkeypatch):
    # FamilyParams and derived exponents are per-group work: twice the r
    # range adds no FamilyParams and no derived_exponents cache miss
    built = []
    new = FamilyParams.__new__

    def counting(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(FamilyParams, "__new__", counting)
    work = []
    for r in ("r=1..20", "r=1..40"):
        built.clear()
        families.derived_exponents.cache_clear()
        code, _, err = run_cli("--jobs=1", "sweep", "family=T1", "q=13", "d=2", "k=1,3",
                               r, "c=all")
        assert code == 0 and " disagreements=0" in err
        work.append((len(built), families.derived_exponents.cache_info().misses))
    assert work[0] == work[1] and work[0][0] > 0


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
    cores = 64  # above every tuple count below, so the tuple cap binds first
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    field = build_field(13, 1)
    tuples = [("T1", 2, 1, 0, 0, 5, 2), ("T1", 2, 1, 0, 0, 6, 2)]
    rows = cli.compute_rows(field, tuples, 64, 0, 1 << 26)
    assert workers == [2]
    assert [(row.r, row.oracle) for row in rows] == [(5, True), (6, False)]
    with pytest.raises(HypothesesNotSatisfied):
        cli.compute_rows(field, [("T1", 2, 2, 0, 0, 5, 2)] * 2, 64, 0, 1 << 26)
    assert workers == [2]
    # the pool starts every worker at once, so --jobs is also capped at the
    # cores: three tuples on two cores start two workers, not a million
    tuples.append(("T1", 2, 1, 0, 0, 7, 2))
    cores = 2
    assert len(cli.compute_rows(field, tuples, 10 ** 6, 0, 1 << 26)) == 3
    assert workers == [2, 2]
    # and below both caps, --jobs itself binds
    cores = 64
    assert len(cli.compute_rows(field, tuples, 2, 0, 1 << 26)) == 3
    assert workers == [2, 2, 2]


def test_pooled_rows_build_the_tables_in_the_parent(monkeypatch):
    # forked workers inherit the parent's cached field, so its logs are
    # built once, before the pool starts, not once per worker; a fresh
    # FieldSpec starts without them
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    cached = build_field(5, 2)
    field = FieldSpec(5, 2, cached.modulus, cached.generator.coeffs)
    tuples = cli.build_grid({"d": "2", "k": "1", "r": "1..70", "c": "2"}, field, "T1", True)
    assert len(tuples) > 16  # more than one slice per worker
    assert field._logs is None
    pooled = cli.compute_rows(field, tuples, 2, 0, 1 << 26)
    assert field._logs is not None
    serial = cli.compute_rows(field, tuples, 1, 0, 1 << 26)
    assert [row.oracle for row in pooled] == [row.oracle for row in serial]


def test_pool_takes_a_few_contiguous_slices_per_worker(monkeypatch):
    class InProcessPool:
        def __init__(self, max_workers, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            slices.extend(iterable)
            return map(fn, slices)

    slices = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    field = build_field(13, 1)
    tuples = cli.build_grid({"d": "2", "k": "1", "r": "1..100", "c": "all"}, field, "T1", True)
    rows = cli.compute_rows(field, tuples, 2, 0, 1 << 26)
    # 7 c x 100 r: ceil(700 / (8 * 2)) = 44 tuples a slice, the last one short
    assert [len(part) for part in slices] == [44] * 15 + [40]
    assert [tup for part in slices for tup in part] == list(tuples)
    assert [(row.r, row.c) for row in rows] == [tup[5:] for tup in tuples]


def grid_and_reference(field, tag, xs, ys, rs, cs):
    """build_grid's Grid of tag over d or u in xs, k or v in ys, r in rs
    and c in cs, each factor a list, and the same product as a plain list
    (T5's d is always 4)."""
    keys = ("u", "v") if tag == "T6" else ("d", "k")
    factors = dict(zip((*keys, "r", "c"), (xs, ys, rs, cs)))
    params = {key: ",".join(map(str, values)) for key, values in factors.items()}
    combos = [(tag, 2, 0, x, y) if tag == "T6" else (tag, x, y, 0, 0) for x in xs for y in ys]
    return cli.build_grid(params, field, tag, True), product_grid(combos, rs, cs)


def assert_grid_is(grid, expected, bounds):
    """grid against its plain list: length, iteration, pickling, the
    chunks _pooled makes at 2 to 5 workers and at every size up to the
    length, and grid[i:j] for (i, j) in bounds."""
    assert len(grid) == len(expected) and list(grid) == expected
    assert list(pickle.loads(pickle.dumps(grid))) == expected
    sizes = [-(-len(expected) // (8 * workers)) for workers in range(2, 6)]
    for size in sizes + list(range(1, len(expected) + 1)):
        parts = grid.chunks(size)
        assert [list(part) for part in parts] == [
            expected[i:i + size] for i in range(0, len(expected), size)]
        assert [len(part) for part in parts] == [len(list(part)) for part in parts]
    for i, j in bounds:
        part = grid[i:j]
        assert list(part) == expected[i:j] and len(part) == len(expected[i:j]), (i, j)
        assert all(rs and cs for _, rs, cs in part.blocks), (i, j)


@pytest.mark.parametrize("tag,xs,ys,rs,cs", [
    ("T1", [14, 2], [3, 1], [5, 5, 1, 2, 3], [2, 1, 2]),
    ("T6", [3, 1], [1, 3, 3], [4, 1, 9, 2, 7], [2, 4]),
    ("T3", [2], [0], [1], [3]),
    ("T3", [7, 7], [5], [3, 1, 2], [9]),
    ("T5", [4], [0, 2], [1, 2], [1, 7, 5]),
])
def test_grid_matches_a_plain_product(field_q13, tag, xs, ys, rs, cs):
    grid, expected = grid_and_reference(field_q13, tag, xs, ys, rs, cs)
    length = len(expected)
    assert_grid_is(grid, expected, [(i, j) for i in range(-2, length + 2)
                                    for j in range(i - 1, length + 3)])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_grid_matches_a_plain_product_on_random_grids(data):
    tag = data.draw(st.sampled_from(["T1", "T3", "T6"]))
    small = st.integers(1, 9)
    xs = data.draw(st.lists(small, min_size=1, max_size=3))
    ys = data.draw(st.lists(small if tag == "T6" else st.integers(0, 9), min_size=1, max_size=3))
    rs, cs = (data.draw(st.lists(small, min_size=1, max_size=12)) for _ in range(2))
    grid, expected = grid_and_reference(build_field(13, 1), tag, xs, ys, rs, cs)
    bound = st.integers(-len(expected) - 2, len(expected) + 2)
    assert_grid_is(grid, expected, data.draw(st.lists(st.tuples(bound, bound), max_size=20)))


def test_grid_of_tuples_gives_the_same_rows(field_q13):
    # compute_rows on a sorted list of tuples, made into blocks of one r,
    # and on build_grid's blocks of the same tuples: the same Rows
    timeless = operator.methodcaller("_replace", elapsed_us=0)
    twice = ",".join(str(int(c)) for c in families.valid_c_values(field_q13, "T6")[:2] * 2)
    for tag, params in [("T1", {"d": "2,14", "r": "5,5,1..30", "c": "all"}),
                        ("T6", {"u": "1,3", "v": "1,3", "r": "1..40", "c": twice})]:
        grid = cli.build_grid(params, field_q13, tag, True)
        assert len(Grid.of(list(grid)).blocks) > len(grid.blocks)
        rows = [list(map(timeless, cli.compute_rows(field_q13, tuples, 1, 0, 1 << 26)))
                for tuples in (grid, list(grid))]
        assert rows[0] == rows[1] and len(rows[0]) == len(grid)


def test_grid_at_scale_holds_factors_not_tuples(field_q13):
    # the 903,168 tuples of T3 q=13 d=2,14 (default k and r, c=all) are
    # built, validated and cut into a pool's slices in well under a
    # tuple's share of memory, and the slices pickle as their blocks
    field_q13.logs()
    tracemalloc.start()
    try:
        grid = cli.build_grid({"d": "2,14", "c": "all"}, field_q13, "T3", True)
        cli._prepare([(field_q13, grid)])
        slices = grid.chunks(-(-len(grid) // 16))  # _pooled's, at 2 workers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == 903168 == sum(map(len, slices)) and len(slices) == 16
    assert peak < 1 << 20, peak
    assert sum(len(pickle.dumps(part)) for part in slices) < 64 << 10


def test_compute_rows_returns_a_list_of_rows():
    field = build_field(13, 1)
    tuples = cli.build_grid({"d": "2", "k": "1", "r": "1..4", "c": "2"}, field, "T1", True)
    rows = cli.compute_rows(field, tuples, 1, 0, 1 << 26)
    assert isinstance(rows, list) and len(rows) == 4
    assert all(type(row) is cli.Row for row in rows) and cli.Row._fields == cli.ROW_FIELDS
    assert rows[0].reduced_f == "2x + 2x^97" and rows[0].oracle is False
    # a worker sends its Rows to the parent pickled
    assert all(type(back) is cli.Row and back == row
               for row, back in zip(rows, pickle.loads(pickle.dumps(rows))))


def kernel_grid(field, tag):
    """The tuples of every admissible tag group at field's q, over r = 1..n,
    n = q^2 - 1: every d dividing q + 1 (T1-T4) with every k of its default
    window, odd u over one period mod q + 1 with v = 1, 3 (T6), and c over
    the family's valid set, but for c = 1 on T3 and c = -1 on T4: their f is
    always the monomial c*x^r (h's terms x^a - x^b meet mod q + 1)."""
    q, p = field.q, field.p
    params = {"d": ",".join(str(d) for d in range(1, q + 2) if (q + 1) % d == 0),
              "u": ",".join(map(str, range(1, q + 1, 2))), "v": "1,3"}
    if tag in ("T3", "T4"):
        params["c"] = "1" if tag == "T3" else str(p - 1)
    satisfied = {}
    for tup in cli.build_grid(params, field, tag, True):
        group = tup[:5] + tup[6:]
        if group not in satisfied:
            satisfied[group] = validate(cli._params_from_tuple(field, tup)).satisfied
        if satisfied[group]:
            yield tup


@pytest.mark.parametrize("p,h", [(5, 1), (11, 1), (13, 1), (3, 2)])
def test_row_kernel_matches_build_f(p, h):
    """Every row of every admissible T1-T6 grid against the independent
    construction: reduced_f is build_f folded (SparsePoly.reduce_mod) and
    printed, and the oracle column is is_permutation_of_field of build_f.
    The grids hold each degenerate k, where h's terms meet mod q + 1 and f
    collapses to a monomial, and each c that h's other terms cancel."""
    field = build_field(p, h)
    verdicts = {}  # the oracle's verdict per folded f: T3/T4 share c*x^r
    for tag in families.TAGS:
        tuples = list(kernel_grid(field, tag))
        for tup, row in zip(tuples, cli.compute_rows(field, tuples, 1, 0, 1 << 26)):
            f = build_f(cli._params_from_tuple(field, tup)).reduce_mod()
            assert row.reduced_f == str(f), tup
            if f not in verdicts:
                verdicts[f] = is_permutation_of_field(field, f).is_bijection
            assert row.oracle == verdicts[f], tup


class NoMemo(dict):
    """A verdict memo that keeps nothing, so every row asks the oracle."""

    def __setitem__(self, key, value):
        pass


def spread_groups(field, tag, count):
    """At most count admissible (tag, d, k, u, v, c) groups at field's q,
    sampled with q as the seed, sorted: every d dividing q + 1 on T1-T4
    with every k of its default window, u = 1, 3 with v = 1 on T6, and
    every valid c, but c = 1..2q on T3 and T4, which take every nonzero c."""
    q = field.q
    params = {"d": ",".join(str(d) for d in range(1, q + 2) if (q + 1) % d == 0),
              "u": "1,3", "v": "1", "r": "1",
              "c": f"1..{2 * q}" if tag in ("T3", "T4") else "all"}
    groups = [tup[:5] + tup[6:] for tup in cli.build_grid(params, field, tag, True)
              if validate(cli._params_from_tuple(field, tup)).satisfied]
    return sorted(random.Random(q).sample(groups, min(count, len(groups))))


# q = 5, 3^2, 13 and 3^4, and 11 for T5, which needs q = 3 (mod 8); the
# number of groups per family
CLASS_MEMO_FIELDS = [(5, 1, 8), (3, 2, 8), (13, 1, 8), (3, 4, 1), (11, 1, 8)]


@pytest.mark.parametrize("p,h,count", CLASS_MEMO_FIELDS)
def test_class_memo_matches_per_tuple_walks_over_full_r(p, h, count):
    """Full-r grids, r = 1..n, of a few groups of each family: the kernel's
    verdicts with its reduced_f memo on and off (NoMemo), the oracle's
    class memo kept across rows and grids, against permutes on each tuple's
    build_f folded, with lh_cache emptied before every call.  r meets every
    class e_0 mod (q + 1) many times over, with gcd(e_0, q - 1) = 1 and
    not, and the c of a group share H's exponents but not its terms."""
    field = build_field(p, h)
    n = field.q2 - 1
    expected = []
    for tag in families.TAGS:
        tuples = sorted((*group[:5], r, group[5]) for group in spread_groups(field, tag, count)
                        for r in range(1, n + 1))
        if not tuples:
            continue
        start = len(expected)
        for tup in tuples:
            field.logs().lh_cache.clear()
            terms = build_f(cli._params_from_tuple(field, tup)).reduce_mod().terms
            expected.append(oracle.permutes(field, terms))
        grid = Grid.of(tuples)
        cli._prepare([(field, grid)])
        for memo in ({}, NoMemo()):
            assert [row.oracle for row in cli._row_list(field, grid, memo)] == expected[start:], tag
    assert 0 < sum(expected) < len(expected)


KERNEL_FIELDS = [build_field(5, 1), build_field(3, 2), build_field(13, 1)]


@st.composite
def colliding_h(draw):
    """A field, an h whose exponents meet mod q + 1 (e and e + j(q+1)) with
    coefficients that may cancel there (c and -c), and r >= 1."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    q = field.q
    terms = []
    for e in draw(st.lists(st.integers(0, q), min_size=1, max_size=3)):
        c = field.from_int(draw(st.integers(1, field.q2 - 1)))
        cancel = draw(st.booleans())
        for j, lift in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))):
            terms.append((e + lift * (q + 1), -c if cancel and j == 1 else c))
    return field, SparsePoly(field, terms), draw(st.integers(1, 2 * field.q2))


@given(case=colliding_h())
@settings(max_examples=300, deadline=None)
def test_row_kernel_folds_any_h(case):
    """The row of a group whose h is any polynomial: the same reduced_f and
    oracle verdict as x^r h(x^(q-1)) folded by SparsePoly."""
    field, h, r = case
    tup = ("T3", 1, 0, 0, 0, r, 1)
    with mock.patch.object(cli, "build_h", lambda params: h):
        row, = cli.compute_rows(field, [tup], 1, 0, 1 << 26)
    f = h.compose_power(r, field.q - 1).reduce_mod()
    assert row.reduced_f == str(f)
    assert row.oracle == is_permutation_of_field(field, f).is_bijection


@pytest.mark.parametrize("tag,q,params,walks", [
    ("T1", 13, {"d": "2,14", "r": "1..167", "c": "all"}, 7685),
    ("T3", 13, {"d": "2,7,14", "r": "1..167", "c": "1,2,3"}, 501),
    ("T5", 11, {"r": "1..119", "c": "all"}, 1071),
])
def test_verdict_memo_walks_each_distinct_folded_f_once(monkeypatch, tag, q, params, walks):
    """At --jobs=1 the oracle walks each distinct folded f of the grid once,
    and every row's verdict is is_permutation_of_field of its own build_f.
    The default k windows and the c sets repeat whole polynomials across d,
    k, c and r: 18,704, 23,046 and 1,428 rows hold only walks distinct f."""
    walked = []

    def counting(field, terms):
        walked.append(tuple((e, int(c)) for e, c in terms))
        return permutes(field, terms)

    monkeypatch.setattr(cli, "permutes", counting)
    field = build_field(q, 1)
    tuples = cli.build_grid(params, field, tag, True)
    verdicts = {}  # per folded f, found independently of the memo's key
    for tup, row in zip(tuples, cli.compute_rows(field, tuples, 1, 0, 1 << 26)):
        f = build_f(cli._params_from_tuple(field, tup)).reduce_mod()
        if f not in verdicts:
            verdicts[f] = is_permutation_of_field(field, f).is_bijection
        assert row.oracle == verdicts[f], tup
    assert len(walked) == len(set(walked)) == len(verdicts) == walks


@pytest.mark.parametrize("tag,q,params,hs,walks", [
    ("T1", 13, {"d": "2,14", "r": "1..167", "c": "all"}, 85, 595),
    ("T3", 13, {"d": "2,7,14", "r": "1..167", "c": "1,2,3"}, 3, 21),
    ("T5", 11, {"r": "1..119", "c": "all"}, 24, 144),
    ("T6", 509, {"u": "1", "v": "1", "r": "1..20000", "c": "2"}, 1, 255),
])
def test_class_memo_runs_one_agw_test_per_class(monkeypatch, tag, q, params, hs, walks):
    """At --jobs=1, with the field's lh_cache emptied first, the oracle runs
    agw_failure at most once per class (H, e_0 mod (q + 1)).  Only odd
    classes pass the order exit, (q + 1)/2 of them per H, and each grid's
    r window meets them all: 85 distinct H times 7 classes make the 595
    tests of the 7,685 distinct folded f of the first grid (18,704 rows),
    and the 20,000 r of the last meet the 255 classes of its one H."""
    calls = []
    agw_failure = oracle.agw_failure

    def counting(q, e0, lh):
        calls.append((lh, e0 % (q + 1)))
        return agw_failure(q, e0, lh)

    monkeypatch.setattr(oracle, "agw_failure", counting)
    field = build_field(q, 1)
    field.logs().lh_cache.clear()
    tuples = cli.build_grid(params, field, tag, True)
    cli.compute_rows(field, tuples, 1, 0, 1 << 26)
    classes = {(id(lh), m) for lh, m in calls}
    assert len(calls) == len(classes) == walks
    assert len({id(lh) for lh, _ in calls}) == hs and walks == hs * (q + 1) // 2


@functools.lru_cache(maxsize=None)
def admissible_groups(p, h, tag):
    """Every (tag, d, k, u, v, c) group of kernel_grid at q = p^h."""
    return sorted({tup[:5] + tup[6:] for tup in kernel_grid(build_field(p, h), tag)})


def reference_csv(field, tuples, search):
    """The CSV rows of a sweep or search over tuples, as csv.writer writes
    compute_rows' Rows with each verdict as true or false, without the
    header, elapsed_us set to 0."""
    flag = {True: "true", False: "false"}
    rows = [row._replace(predicate=flag[row.predicate], oracle=flag[row.oracle],
                         agree=flag[row.agree], elapsed_us=0)
            for row in cli.compute_rows(field, tuples, 1, 0, 1 << 26)]
    for row in rows:
        assert not any(set(str(cell)) & set(',"\r\n') for cell in row), row
    if search:
        pick = operator.itemgetter(*map(cli.ROW_FIELDS.index, cli.SEARCH_FIELDS))
        rows = [pick(row) for row in rows if row.oracle == "true"]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def kernel_csv(monkeypatch, field, tuples, search, jobs):
    """The CLI's CSV body for a sweep or search over exactly tuples, each
    elapsed_us set to 0, and its stderr."""
    monkeypatch.setattr(cli, "_grids", lambda ns: [(field, Grid.of(tuples))])
    code, out, err = run_cli(f"--jobs={jobs}", "search" if search else "sweep", "family=T1")
    assert code == 0, err
    header, _, body = out.partition("\n")
    assert header == ",".join(cli.SEARCH_FIELDS if search else cli.ROW_FIELDS)
    return body if search else re.sub(r",\d+$", ",0", body, flags=re.M), err


# (p, h, family) with admissible groups at q = 5, 13, 3^2 and 11: T1 and T2
# need q = 1 (mod 4), and T5 q = 3 (mod 8), which of these holds at 11 only
CSV_GRIDS = [(p, h, tag) for p, h in [(5, 1), (13, 1), (3, 2)]
             for tag in ("T1", "T2", "T3", "T4", "T6")] + [
    (11, 1, tag) for tag in ("T3", "T4", "T5", "T6")]


def test_csv_grids_hold_every_family():
    assert {tag for _, _, tag in CSV_GRIDS} == set(families.TAGS)
    assert all(admissible_groups(*grid) for grid in CSV_GRIDS)


@pytest.mark.parametrize("p,h,tag", CSV_GRIDS)
def test_csv_lines_match_the_csv_writer(monkeypatch, p, h, tag):
    """A sweep's and a search's CSV lines, formatted whole by the row kernel,
    are the bytes csv.writer writes for compute_rows' Rows, at --jobs=1 and
    2, over every admissible group with r = 1..2(q + 1): every residue of r
    mod q + 1, and r = 1, where a constant term of h lands on x."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    field = build_field(p, h)
    tuples = sorted((*group[:5], r, group[5]) for group in admissible_groups(p, h, tag)
                    for r in range(1, 2 * field.q + 3))
    for search in (False, True):
        expected = reference_csv(field, tuples, search)
        for jobs in (1, 2):
            body, err = kernel_csv(monkeypatch, field, tuples, search, jobs)
            assert body == expected, (search, jobs)
            assert err.startswith(f"tuples={len(tuples)} ")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_csv_lines_match_the_csv_writer_on_random_grids(data):
    """The same, at --jobs=1, on random sorted samples of admissible tuples."""
    p, h, tag = data.draw(st.sampled_from(CSV_GRIDS))
    field = build_field(p, h)
    groups = admissible_groups(p, h, tag)
    tuples = sorted({(*group[:5], r, group[5])
                     for group, r in data.draw(st.lists(st.tuples(
                         st.sampled_from(groups), st.integers(1, field.q2)), min_size=1, max_size=40))})
    search = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as patch:
        body, _ = kernel_csv(patch, field, tuples, search, 1)
    assert body == reference_csv(field, tuples, search)


def test_serial_sweep_writes_no_more_than_a_combo_at_once():
    # the row kernel streams: no single write holds more than one (d, k)
    # combo's lines, so a grid is never held whole as text
    class Writes(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes = []
    out, err = Writes(), io.StringIO()
    argv = ["--jobs=1", "sweep", "family=T1", "q=13", "d=2", "k=1,3,5", "r=1..30", "c=all"]
    assert main(argv, out=out, err=err) == 0 and err.getvalue() == "tuples=630 disagreements=0\n"
    combos = Counter()
    for line in out.getvalue().splitlines(keepends=True)[1:]:
        combos[line.split(",")[3]] += len(line)
    assert len(combos) == 3 and max(sizes) <= min(combos.values())


class InProcessPool:
    """ProcessPoolExecutor's stand-in: every slice runs in this process."""

    def __init__(self, max_workers, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("pool", ["serial", "in-process", "processes"])
def test_verdict_memo_stays_with_its_sweep_and_field(monkeypatch, pool):
    # at q = 5 and 13 the T3 d=2 k=0 c=2 f is the monomial 2x^r, so both
    # fields' sweeps hold the same reduced_f texts; 2x^7 permutes F_25
    # (gcd(7, 24) = 1) but not F_169 (gcd(7, 168) = 7)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    if pool == "in-process":
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    jobs = "--jobs=1" if pool == "serial" else "--jobs=2"
    code, out, err = run_cli(jobs, "sweep", "family=T3", "q=5,13", "d=2", "k=0",
                             "r=1..23", "c=2")
    assert (code, err) == (0, "tuples=46 disagreements=0\n")
    assert {row["q"]: row["oracle"] for row in parse_csv(out) if row["r"] == "7"} == {
        "5": "true", "13": "false"}
    # and a sweep walks every f again: no verdict is kept from the last one
    walked = []

    def counting(field, terms):
        walked.append(field.q)
        return permutes(field, terms)

    monkeypatch.setattr(cli, "permutes", counting)
    field = build_field(5, 1)
    tuples = cli.build_grid({"d": "2", "k": "0", "r": "1..23", "c": "2"}, field, "T3", True)
    for _ in range(2):
        cli.compute_rows(field, tuples, 1 if pool == "serial" else 2, 0, 1 << 26)
    if pool != "processes":  # a worker process counts its own walks
        assert walked == [5] * 46


def test_streamed_sweep_is_the_same_at_every_jobs(monkeypatch):
    # 16 slices at each q at --jobs=2; stdout matches but for elapsed_us
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    argv = ["sweep", "family=T3", "q=5,13", "d=2", "k=0,1", "r=1..40", "c=all"]
    results = [run_cli(f"--jobs={jobs}", *argv) for jobs in (1, 2)]
    assert results[0][0] == results[1][0] == 0
    assert results[0][2] == results[1][2] == "tuples=15360 disagreements=0\n"
    serial, pooled = ([line.rsplit(",", 1)[0] for line in out.splitlines()]
                      for _, out, _ in results)
    assert serial == pooled and len(serial) == 15361


def test_negative_exponent_after_a_valid_group_prints_no_row(monkeypatch):
    # u + 7v = -2 at q = 13, but u + 3v = 2 at q = 5, which sorts first: the
    # error comes before the CSV header, as every h is built before any row
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    for jobs in (1, 2):
        assert run_cli(f"--jobs={jobs}", "sweep", "family=T6", "q=5,13", "u=5", "v=-1",
                       "r=1..4", "c=all") == (
            64, "", "error: polynomial exponent -2 is negative\n")
        # a hypothesis violation wins over a negative exponent that sorts first:
        # u = 1 gives 1 - 7 = -6, and u = 2 is not odd
        assert run_cli(f"--jobs={jobs}", "sweep", "family=T6", "q=13", "u=1,2", "v=-1",
                       "r=1..4", "c=all") == (65, "", "violation: u is not odd\n")


def test_negative_exponent_in_h_fails_alike_at_every_jobs(monkeypatch):
    # every h is built in this process before any row, at every --jobs, so
    # the error is raised before a pool starts and prints alike
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
    for argv, exponent in ((("family=T4", "q=5", "d=3", "k=-9"), -4),
                           (("family=T6", "q=13", "u=-1", "v=1"), -1)):
        results = [run_cli(f"--jobs={jobs}", "sweep", *argv, "r=1..4", "c=all")
                   for jobs in (1, 2)]
        assert results[0] == results[1], argv
        assert results[0] == (64, "", f"error: polynomial exponent {exponent} is negative\n")



@pytest.mark.parametrize("error", [
    errors.NotPrime(9), errors.SizeExceeded(10, 5), errors.NotADivisor(4, 6),
    errors.NegativeExponent(-4), errors.HypothesesNotSatisfied(["a", "b"]),
    errors.BadCongruence(7, "q = 1 mod 3"), errors.DivisionByZero("zero"),
])
def test_errors_survive_pickling(error):
    # a pool worker's raise reaches the parent pickled: message, args and
    # attributes must come back as they were
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))

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


def test_identities_report_a_failing_lemma(monkeypatch):
    monkeypatch.setattr(cli, "lemma_u_identity", lambda field, d, k: d != 3)
    code, out, _ = run_cli("identities", "q=11", "k=1")
    assert code == 1
    results = {(row["d"], row["lemma"]): row["result"] for row in parse_csv(out)}
    assert results[("3", "u")] == "fail" and results[("3", "v")] == "pass"
    assert results[("4", "u")] == "pass" and results[("2", "v")] == "skipped"


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


@st.composite
def small_sweeps(draw):
    """sweep parameters of a random T1, T3 or T6 grid at q <= 13 over c=all,
    a few r values wide."""
    tag = draw(st.sampled_from(["T1", "T3", "T6"]))
    q = draw(st.sampled_from([5, 9, 13] if tag == "T1" else [3, 5, 7, 9, 11, 13]))
    if tag == "T6":
        params = [f"u={draw(st.integers(0, q // 2)) * 2 + 1}",
                  f"v={draw(st.integers(0, q // 2)) * 2 + 1}"]
    else:
        divisors = [d for d in range(1, q + 2) if (q + 1) % d == 0]
        if tag == "T1":
            divisors = [d for d in divisors if d % 2 == 0 and gcd((q + 1) // d, d) == 1]
        d = draw(st.sampled_from(divisors))
        k = draw(st.integers(0, d - 1)) * 2 + 1 if tag == "T1" else draw(st.integers(0, 2 * d - 1))
        params = [f"d={d}", f"k={k}"]
    r = draw(st.integers(1, q * q - 2))
    return [f"family={tag}", f"q={q}", *params, f"r={r}..{r + draw(st.integers(1, 3))}", "c=all"]


T1_Q81_GRID = ["family=T1", "q=3^4", "d=2", "k=1,3", "r=1..6", "c=all"]


@given(argv=small_sweeps())
@example(argv=T1_Q81_GRID)
@settings(max_examples=5, deadline=None)
def test_sweep_verdicts_invariant_under_seed_and_jobs(argv):
    # stdout is the same at --jobs=1 and --jobs=2 but for the elapsed_us
    # column.  The oracle walks powers of the seeded generator, and the seed
    # changes the field's model, hence the c encodings, but not how many c
    # of each (d, k, u, v, r) give a permutation
    per_seed = []
    for seed in ("0", "1", "2"):
        outs = []
        with mock.patch.dict(os.environ, {"PPFORGE_SEED": seed}):
            for jobs in ("--jobs=1", "--jobs=2"):
                code, out, err = run_cli(jobs, "sweep", *argv)
                assert code == 0 and " disagreements=0" in err, err
                outs.append([line.rsplit(",", 1)[0] for line in out.splitlines()])
        assert outs[0] == outs[1]
        per_seed.append(Counter((row["d"], row["k"], row["u"], row["v"], row["r"])
                                for row in parse_csv(out) if row["oracle"] == "true"))
    assert per_seed[0] == per_seed[1] == per_seed[2]
    if argv == T1_Q81_GRID:
        assert "tuples=492 disagreements=0" in err
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


def test_start_up_imports_no_dataclasses():
    """import ppforge.cli, in a fresh interpreter without site, leaves
    dataclasses (and the inspect, ast and dis it pulls in) unimported; the
    set-up hook tables() then gives the five lists of logs() at q = 3^4,
    log_f, coset and z_f of q, q and q - 1 ints, la and lb of q + 1."""
    code = ("import ppforge.cli, sys; from ppforge import build_field; "
            "print('dataclasses' in sys.modules); "
            "print(*map(len, build_field(3, 4).tables()))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "81", "81", "80", "82", "82"]


def test_benchmark_child_traces_a_pooled_sweep(tmp_path):
    """perfbench/child.py, run as the benchmark runs it, in trace mode on a
    small pooled q=5 sweep: it wraps the ppforge names it reads (build_field,
    compute_rows, tables_supported, the layers' public calls), so a name it
    needs that is gone fails here rather than in a benchmark run."""
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    sweep = ["sweep", "family=T1", "q=5", "d=2", "k=1", "r=1..24", "c=all"]
    spec = {"mode": "trace", "field": [5, 1], "calls": [["--jobs=1", *sweep]],
            "pooled": [["--jobs=2", *sweep]], "spans_path": str(tmp_path / "spans.jsonl.gz"),
            "workload": "t1-q5"}
    proc = subprocess.run([sys.executable, "-B", str(child), json.dumps(spec)],
                          capture_output=True, text=True, cwd=child.parents[1],
                          env=dict(os.environ, PPFORGE_SEED="0"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    call, = result["calls"]
    assert call["rc"] == 0 and call["tuples"] == 24 * 3 and call["disagreements"] == 0
    assert result["pooled"][0]["jobs"] == 2 and "cli.build_grid" in result["layers"]
    assert (tmp_path / "spans.jsonl.gz").is_file()
