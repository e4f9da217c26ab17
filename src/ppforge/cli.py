"""Command-line front end: field-info, check, sweep, identities, search.

Parameters are space-separated key=value pairs after the subcommand, e.g.

    ppforge check family=T1 q=13 d=2 k=1 r=5 c=2
    ppforge sweep family=T1 q=13 d=2 k=1,3,5,7 r=1..167 c=all
    ppforge identities q=5,13
    ppforge search family=T5 q=11 k=0,2 r=1..119 c=all

q is an odd prime power, written plain or as p^h.  c is a canonical integer
or the literal `all` (the family's full valid-c set).  Ranges are a..b
(inclusive, a <= b) and lists are comma-separated; both may be mixed.  The
parameter tuples are sorted before any row is computed, and rows come out in
tuple order, so --jobs never changes the output.  Output is CSV (default) or
JSON lines.  All numeric I/O is exact integer text.

Every subcommand parses and size-checks each comma-separated q before it
builds any field.  A grid's size, the product of its factors' sizes, is
counted before any range or c=all is expanded; a grid above MAX_GRID tuples is
a usage error.  check is a sweep whose grid must be exactly one tuple.  A
sweep, search or check first validates the family hypotheses of every
requested q, once per (family, d, k, u, v, c) group: they do not depend on r.
It then builds one h per (family, d, k, u, v), so a negative exponent in h is
also an error before any row.  Rows are then computed and written as they
arrive: each group's h is built once, each r folds f = x^r h(x^(q-1)) mod
q^2 - 1 in one step, for both the oracle and the reduced_f column, and the
gcd criterion and the oracle run per tuple.

Exit codes: 0 agreement/permutation (sweep: zero disagreements), 1 agreement/
non-permutation, 2 disagreement, 64 usage error, 65 hypothesis violation
(raised before any row is computed).
"""

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import gcd

from .errors import HypothesesNotSatisfied, PPForgeError, SizeExceeded
from .families import (
    FamilyParams,
    TAGS,
    build_h,
    default_k_window,
    gcd_criterion,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    valid_c_count,
    valid_c_values,
    validate,
)
from .ffcore import (
    DEFAULT_MAX_FIELD_SIZE,
    DEFAULT_SEED,
    build_field,
    field_from_text,
    field_to_text,
    factorize,
    is_prime,
)
from .oracle import is_permutation_of_field
from .sparsepoly import SparsePoly

EXIT_OK = 0
EXIT_NON_PERMUTATION = 1
EXIT_DISAGREEMENT = 2
EXIT_USAGE = 64
EXIT_HYPOTHESES = 65

# Largest parameter grid a sweep, search or check builds, and the longest list
# a parameter may give.  Rows are streamed, not held, so the bound is on time:
# 2^20 rows take about 40 s at --jobs=1 (about 26k tuples/s on F_169).  Only
# the grid's tuples are held, about 0.1 KB each: a T3 q=13 sweep at --jobs=1
# peaks at 19.9 MB RSS at 10,752 tuples and 30.2 MB at 112,896.
MAX_GRID = 1 << 20

ROW_FIELDS = (
    "family", "q", "d", "k", "u", "v", "r", "c",
    "predicate", "oracle", "agree", "reduced_f", "elapsed_us",
)
SEARCH_FIELDS = ("family", "q", "d", "k", "u", "v", "r", "c", "reduced_f")
IDENTITY_FIELDS = ("q", "d", "lemma", "k", "result", "note")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text):
    """int(text), or a UsageError that names the text."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"not an integer: {text!r}") from None


def parse_prime_power(text, max_field=None):
    """(p, h) for q given plain or as p^h; must be an odd prime power.

    With max_field set, a q with q^2 above it raises SizeExceeded before any
    factoring.
    """
    if "^" in text:
        base, _, expo = text.partition("^")
        p, h = _int(base), _int(expo)
        if h < 1:
            raise UsageError(f"bad exponent in q={text}")
        if p < 3:
            raise UsageError(f"q must be a power of an odd prime, got base {p}")
        if max_field is not None and (h > max_field.bit_length() or p ** (2 * h) > max_field):
            raise SizeExceeded(f"{p}^{2 * h}", max_field)
    else:
        q = _int(text)
        if q < 3:
            raise UsageError(f"q={text} is not an odd prime power")
        if max_field is not None and q * q > max_field:
            raise SizeExceeded(q * q, max_field)
        factors = factorize(q)
        if len(factors) != 1:
            raise UsageError(f"q={text} is not a prime power")
        (p, h), = factors
    if p == 2 or not is_prime(p):
        raise UsageError(f"q must be a power of an odd prime, got base {p}")
    return p, h


def parse_int_list(text):
    """Comma-separated integers and a..b inclusive ranges with a <= b.

    The values are counted before any range is expanded; a count above
    MAX_GRID is a UsageError that names the count.
    """
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            lo, hi = _int(lo), _int(hi)
            if lo > hi:
                raise UsageError(f"reversed range {chunk!r}")
            parts.append(range(lo, hi + 1))
        elif chunk:
            parts.append((_int(chunk),))
    count = sum(map(len, parts))
    if not count:
        raise UsageError(f"empty list/range: {text!r}")
    if count > MAX_GRID:
        raise UsageError(f"{text!r} lists {count} values, above the bound of {MAX_GRID}")
    return [x for part in parts for x in part]


def parse_kv(pairs, allowed):
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"expected key=value, got {pair!r}")
        if key not in allowed:
            raise UsageError(f"unknown parameter {key!r} (allowed: {', '.join(sorted(allowed))})")
        if key in params:
            raise UsageError(f"duplicate parameter {key!r}")
        params[key] = value
    return params


def env_seed():
    return int(os.environ.get("PPFORGE_SEED", str(DEFAULT_SEED)))


# ---------------------------------------------------------------------------
# row computation
# ---------------------------------------------------------------------------

def _params_from_tuple(field, tup):
    tag, d, k, u, v, r, c = tup
    return FamilyParams(tag=tag, field=field, r=r, c=field.from_int(c),
                        d=d, k=k, u=u, v=v)


def _group(field, tup):
    """The c Element of tup and the terms (e, c) of its h, which depend only
    on tup's (tag, d, k, u, v, c) group, never on r."""
    params = _params_from_tuple(field, tup)
    return params.c, build_h(params).terms


def compute_row(field, tup, group):
    """One ResultRow dict for (tag, d, k, u, v, r, c_canonical) whose family
    hypotheses hold, given its group (_group).  f = x^r h(x^(q-1)) is built
    folded mod n = q^2 - 1, one SparsePoly for both the oracle and the
    reduced_f column: h's term c*x^e becomes c*x^((r + e(q-1) - 1) mod n + 1)."""
    start = time.perf_counter_ns()
    tag, d, k, u, v, r, _ = tup
    c, h_terms = group
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    params = FamilyParams(tag=tag, field=field, r=r, c=c, d=d, k=k, u=u, v=v)
    n, m = field.q2 - 1, field.q - 1
    f = SparsePoly(field, [((r + e * m - 1) % n + 1, coeff) for e, coeff in h_terms])
    pred = gcd_criterion(params)
    report = is_permutation_of_field(field, f)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    return {
        "family": tag,
        "q": field.q,
        "d": params.d,
        "k": params.k if tag != "T6" else None,
        "u": params.u if tag == "T6" else None,
        "v": params.v if tag == "T6" else None,
        "r": params.r,
        "c": int(params.c),
        "predicate": pred,
        "oracle": report.is_bijection,
        "agree": pred == report.is_bijection,
        "reduced_f": str(f),
        "elapsed_us": elapsed_us,
    }


def _rows(field, tuples):
    """compute_row of every tuple, in order.  Each group is built on its
    first tuple and kept while the (tag, d, k, u, v) combo lasts, so a
    sorted grid builds every group once."""
    groups, combo = {}, None
    for tup in tuples:
        if tup[:5] != combo:
            groups, combo = {}, tup[:5]
        group = groups.get(tup[6])
        if group is None:
            group = groups[tup[6]] = _group(field, tup)
        yield compute_row(field, tup, group)


def _worker_rows(field_args, tuples):
    return list(_rows(build_field(*field_args), tuples))


def _prepare(grids):
    """Validate each distinct (tag, d, k, u, v, c) group of every (field,
    tuples) grid once, in order, raising HypothesesNotSatisfied for the first
    that fails; then build one h per (tag, d, k, u, v) combo.  h's exponents
    depend on the combo alone, so that raises every NegativeExponent a row
    would, after every hypothesis violation and before any row."""
    for field, tuples in grids:
        for group in dict.fromkeys((tag, d, k, u, v, 1, c) for tag, d, k, u, v, _, c in tuples):
            report = validate(_params_from_tuple(field, group))
            if not report.satisfied:
                raise HypothesesNotSatisfied(report.violations)
    for field, tuples in grids:
        for tup in {tup[:5]: tup for tup in tuples}.values():
            _group(field, tup)


def iter_rows(field, tuples, jobs, seed, max_size, validated=False):
    """Rows for every parameter tuple, in tuple order, as they are computed.
    Every group is validated and every combo's h built before the first row,
    unless the caller already has (validated).

    Below two workers the rows are computed here.  Otherwise a pool of
    min(jobs, len(tuples), cores) processes, all started at once, takes
    contiguous slices of about len(tuples) / (8 * workers) tuples, and each
    slice's rows are yielded, in order, once it is done.  A worker looks the
    field up with build_field; the parent builds its logs first, so a forked
    worker finds them built in the cached field instead of building its own
    copy."""
    if not validated:
        _prepare([(field, tuples)])
    workers = min(jobs, len(tuples), os.cpu_count() or 1)
    if workers < 2:
        yield from _rows(field, tuples)
        return
    field.logs()
    size = -(-len(tuples) // (8 * workers))
    worker = partial(_worker_rows, (field.p, field.h, seed, max_size))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rows in pool.map(worker, [tuples[i:i + size] for i in range(0, len(tuples), size)]):
            yield from rows


def compute_rows(field, tuples, jobs, seed, max_size, validated=False):
    """list(iter_rows(...)): every row of the grid, in tuple order."""
    return list(iter_rows(field, tuples, jobs, seed, max_size, validated))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_rows(rows, fields, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[name]) for name in fields])
    else:
        for row in rows:
            out.write(json.dumps({name: row[name] for name in fields}) + "\n")


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

FAMILY_KEYS = {"family", "q", "d", "k", "u", "v", "r", "c"}


def build_grid(args_params, field, tag, for_sweep):
    """All (tag, d, k, u, v, r, c) tuples of the requested grid, sorted.

    A sweep defaults r to 1..q^2-1 and c to all; for check both are required.
    The grid's size is the product of its factors' sizes, checked against
    MAX_GRID before any factor above it or the grid itself is built.
    """
    if not for_sweep:
        for key in ("r", "c"):
            if key not in args_params:
                raise UsageError(f"{key} is required")
    q = field.q
    if tag in ("T1", "T2", "T3", "T4"):
        if "d" not in args_params:
            raise UsageError(f"{tag} requires d")
        d_values = parse_int_list(args_params["d"])
    elif tag == "T5":
        d_values = [4]
    else:
        d_values = [2]
    if any(d < 1 for d in d_values):
        raise UsageError("d values must be >= 1")

    if "r" in args_params:
        r_values = parse_int_list(args_params["r"])
        if any(r < 1 for r in r_values):
            raise UsageError("r values must be >= 1")
    else:
        r_values = range(1, q * q)

    if tag == "T6":
        if "u" not in args_params or "v" not in args_params:
            raise UsageError("T6 requires u and v")
        u_values = parse_int_list(args_params["u"])
        v_values = parse_int_list(args_params["v"])
        combo_count = len(u_values) * len(v_values)
    else:
        k_values = parse_int_list(args_params["k"]) if "k" in args_params else None
        windows = [(d, default_k_window(tag, d) if k_values is None else k_values)
                   for d in d_values]
        combo_count = sum(len(ks) for _, ks in windows)
    c_text = args_params.get("c", "all")
    c_values = None if c_text == "all" else parse_int_list(c_text)
    size = combo_count * len(r_values) * (
        valid_c_count(field, tag) if c_values is None else len(c_values))
    if size > MAX_GRID:
        raise UsageError(f"grid of {size} tuples exceeds the bound of {MAX_GRID}")
    if tag == "T6":
        combos = [(2, 0, u, v) for u in u_values for v in v_values]
    else:
        combos = [(d, k, 0, 0) for d, ks in windows for k in ks]
    if c_values is None:
        c_values = [int(c) for c in valid_c_values(field, tag)]
    # sorted factors make the product sorted: no sort of the whole grid
    tuples = [(tag, d, k, u, v, r, c) for d, k, u, v in sorted(combos)
              for r in sorted(r_values) for c in sorted(c_values)]
    if not tuples:
        raise UsageError("empty parameter grid")
    return tuples


def _fields(params, max_size):
    """The field of every comma-separated q, in the order given.  Every q is
    parsed and size-checked before any field is built."""
    if "q" not in params:
        raise UsageError("q is required")
    degrees = [parse_prime_power(text, max_size) for text in params["q"].split(",")]
    return [build_field(p, h, seed=env_seed(), max_size=max_size) for p, h in degrees]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field_info(ns, out, err):
    params = parse_kv(ns.params, {"q", "file"})
    if "," in params.get("q", ""):
        raise UsageError(f"field-info takes one q, got q={params['q']}")
    if "file" in params:
        with open(params["file"], "r", encoding="ascii") as fh:
            field = field_from_text(fh.read(), ns.max_field)
        if "q" in params and parse_prime_power(params["q"], ns.max_field) != (field.p, field.h):
            raise UsageError(f"file describes q={field.q}, not q={params['q']}")
    else:
        field, = _fields(params, ns.max_field)
    out.write(field_to_text(field))
    return EXIT_OK


def cmd_check(ns, out, err):
    row, = _sweep_common(ns)
    emit_rows([row], ROW_FIELDS, ns.format, out)
    if not row["agree"]:
        return EXIT_DISAGREEMENT
    return EXIT_OK if row["oracle"] else EXIT_NON_PERMUTATION


def _sweep_common(ns):
    """Rows of the grid at every requested q, in ascending q, streamed once
    every q's groups are validated and h built.  check is a sweep whose grid,
    over all q, must be exactly one tuple."""
    params = parse_kv(ns.params, FAMILY_KEYS)
    tag = params.get("family")
    if tag not in TAGS:
        raise UsageError(f"family must be one of {', '.join(TAGS)}")
    for_sweep = ns.command != "check"
    grids = [(field, build_grid(params, field, tag, for_sweep))
             for field in sorted(_fields(params, ns.max_field), key=lambda field: field.q)]
    if not for_sweep and sum(len(tuples) for _, tuples in grids) != 1:
        raise UsageError("check takes exactly one parameter tuple; use sweep for grids")
    _prepare(grids)
    return (row for field, tuples in grids
            for row in iter_rows(field, tuples, ns.jobs, env_seed(), ns.max_field,
                                 validated=True))


def _tally(rows, key, counts):
    """Yield the rows, counting each row[key] value in counts."""
    for row in rows:
        counts[row[key]] += 1
        yield row


def cmd_sweep(ns, out, err):
    counts = Counter()
    emit_rows(_tally(_sweep_common(ns), "agree", counts), ROW_FIELDS, ns.format, out)
    print(f"tuples={counts[True] + counts[False]} disagreements={counts[False]}", file=err)
    return EXIT_OK if counts[False] == 0 else EXIT_DISAGREEMENT


def cmd_search(ns, out, err):
    counts = Counter()
    hits = (row for row in _tally(_sweep_common(ns), "oracle", counts) if row["oracle"])
    emit_rows(hits, SEARCH_FIELDS, ns.format, out)
    print(f"tuples={counts[True] + counts[False]} permutations={counts[True]}", file=err)
    return EXIT_OK


def cmd_identities(ns, out, err):
    params = parse_kv(ns.params, {"q", "k"})
    k_values = parse_int_list(params["k"]) if "k" in params else [0, 1]
    rows = []

    def add(q, d, lemma, k, ok, note=None):
        result = "skipped" if ok is None else "pass" if ok else "fail"
        rows.append(dict(zip(IDENTITY_FIELDS, (q, d, lemma, k, result, note))))

    for field in _fields(params, ns.max_field):
        q = field.q
        for d in (d for d in range(1, q + 2) if (q + 1) % d == 0):
            if gcd(d, (q + 1) // d) != 1:
                add(q, d, "v", None, None, "cosets not disjoint")
                continue
            for k in k_values:
                add(q, d, "v", k, lemma_v_identity(field, d, k))
                add(q, d, "u", k, lemma_u_identity(field, d, k))
        if q % 8 == 3:
            add(q, 4, "d4", None, lemma_d4_identity(field))
        else:
            add(q, 4, "d4", None, None, "q != 3 (mod 8)")
    emit_rows(rows, IDENTITY_FIELDS, ns.format, out)
    fail = any(row["result"] == "fail" for row in rows)
    return EXIT_NON_PERMUTATION if fail else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser():
    parser = _Parser(prog="ppforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel workers for sweeps (default: cores); at most "
                             "one per core and one per parameter tuple")
    parser.add_argument("--max-field", type=int, default=DEFAULT_MAX_FIELD_SIZE,
                        help="refuse fields with q^2 above this size")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("field-info", "check", "sweep", "identities", "search"):
        cmd = sub.add_parser(name)
        cmd.add_argument("params", nargs="*", metavar="key=value")
    return parser


COMMANDS = {
    "field-info": cmd_field_info,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "identities": cmd_identities,
    "search": cmd_search,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        ns = make_parser().parse_args(argv)
        if ns.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        return COMMANDS[ns.command](ns, out, err)
    except HypothesesNotSatisfied as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=err)
        return EXIT_HYPOTHESES
    except (UsageError, SizeExceeded) as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (PPForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
