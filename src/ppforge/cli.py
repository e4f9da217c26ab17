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
a usage error, as is a key the family does not take.  check is a sweep
whose grid must be exactly one tuple.  A sweep, search or check first
validates the family hypotheses of every requested q, once per
(family, d, k, u, v, c) group: they do not depend on r.
It then builds one h per (family, d, k, u, v) combo, so a negative exponent in
h is also an error before any row.

Rows are then made by one kernel and written as they are made.  A grid is
held as its factors (grid.Grid): per (family, d, k, u, v) combo, its sorted
r and c lists.  The kernel formats each combo's constant cells once and
builds each group's h once, folded: its exponents reduced mod q + 1, equal
ones merged, and each coefficient's text kept.  Each r reads the gcd
criterion once, and each (r, c) folds f = x^r h(x^(q-1)) mod q^2 - 1 from
plain ints, whose sorted terms, joined with their texts, make the reduced_f
column.  That text names the folded f one to one, so it keys a memo of the
oracle's verdicts, kept per sweep and per field in each process: the oracle
is asked once per distinct f there, and itself runs its AGW test once per
class (H, e_0 mod (q + 1)) of f = x^(e_0) H(x^(q-1)) (oracle.permutes).
Every row that check, sweep and search
write, CSV or JSON lines, is one string from a line maker of the kernel;
compute_rows gets Row tuples from the same kernel.  A pooled sweep or
search hands its workers contiguous slices of the grid, each pickled as a
few blocks; a worker writes its slice's text and counts its rows, and the
parent writes the header, then the slices' text in order.  check's one
tuple is never pooled.

Exit codes: 0 agreement/permutation (sweep: zero disagreements), 1 agreement/
non-permutation, 2 disagreement, 64 usage error, 65 hypothesis violation
(raised before any row is computed).
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import groupby
from math import gcd
from operator import itemgetter

from .errors import HypothesesNotSatisfied, NotPrime, PPForgeError, SizeExceeded
from .families import (
    FamilyParams,
    TAGS,
    build_h,
    default_k_window,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    r_criterion,
    valid_c_count,
    valid_c_values,
    validate,
)
from .ffcore import (
    DEFAULT_MAX_FIELD_SIZE,
    DEFAULT_SEED,
    build_field,
    check_field,
    field_from_text,
    field_to_text,
    factorize,
)
from .grid import Grid
from .oracle import permutes

EXIT_OK = 0
EXIT_NON_PERMUTATION = 1
EXIT_DISAGREEMENT = 2
EXIT_USAGE = 64
EXIT_HYPOTHESES = 65

# Largest parameter grid a sweep, search or check builds, and the longest list
# a parameter may give.  A grid is held as its factors and rows are streamed,
# so the bound is on time: a T3 q=13 d=2,14 sweep, 903,168 tuples on F_169,
# took 1.8-1.9 s at --jobs=1 and 1.2 s at --jobs=2 to a null sink, on a shared
# 2-vCPU x86-64 host with Python 3.11.7.  What is held is the verdict memo: at
# --jobs=1 such sweeps peak at 17.8 MB RSS at 10,752 tuples, 20.2 MB at
# 112,896 and 20.5 MB at 903,168.
MAX_GRID = 1 << 20

# Longest field description file field-info reads, in bytes; a description
# is four short lines.
MAX_FIELD_FILE = 1 << 16

# The oracle's verdicts are memoised per sweep, keyed by reduced_f; the memo
# is emptied before it grows past VERDICT_MEMO_SIZE entries, as the oracle's
# lh_cache is.
VERDICT_MEMO_SIZE = 1 << 16

# One row of compute_rows: k is None on T6, u and v are None elsewhere, and c
# is the canonical integer.  Its pool workers send Rows to the parent, pickled
# as flat tuples; the CLI's workers send text instead, made without a Row.
Row = namedtuple("Row", (
    "family", "q", "d", "k", "u", "v", "r", "c",
    "predicate", "oracle", "agree", "reduced_f", "elapsed_us",
))
ROW_FIELDS = Row._fields
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


def parse_prime_power(text, max_field):
    """(p, h) for q given plain or as p^h; must be an odd prime power with q^2
    at most max_field.

    A plain q with q^2 above max_field raises SizeExceeded before any
    factoring, and a base p below 3 is a usage error before any size test.
    The size and odd-prime tests on (p, h) are ffcore's one guard
    (check_field).
    """
    if "^" in text:
        base, _, expo = text.partition("^")
        p, h = _int(base), _int(expo)
        if h < 1:
            raise UsageError(f"bad exponent in q={text}")
        if p < 3:
            raise UsageError(f"q must be a power of an odd prime, got base {p}")
    else:
        q = _int(text)
        if q < 3:
            raise UsageError(f"q={text} is not an odd prime power")
        if q * q > max_field:
            raise SizeExceeded(q * q, max_field)
        factors = factorize(q)
        if len(factors) != 1:
            raise UsageError(f"q={text} is not a prime power")
        (p, h), = factors
    try:
        check_field(p, h, max_field)
    except NotPrime:
        raise UsageError(f"q must be a power of an odd prime, got base {p}") from None
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


def _group(field, combo, c):
    """The constants of the (tag, d, k, u, v) combo's group at c, which r
    never moves: h's terms folded as f's will be, one (o, c, text) per term
    of f with o = e(q-1) - 1 for its exponent e mod q + 1, c its nonzero
    coefficient and text c's canonical integer, "" for 1.  f's exponent
    (r + e(q-1) - 1) mod n + 1, n = q^2 - 1, sees e only mod q + 1, since
    (q+1)(q-1) = n: so h's terms with equal e mod q + 1 land on one power of
    f at every r, and are merged here, a zero sum dropped."""
    q = field.q
    merged = {}
    for e, c in build_h(_params_from_tuple(field, (*combo, 1, c))).terms:
        e %= q + 1
        merged[e] = merged[e] + c if e in merged else c
    return tuple([(e * (q - 1) - 1, c, "" if c == field.one else str(int(c)))
                  for e, c in merged.items() if not c.is_zero()])


def _rows(field, grid, memo, make, tally=None):
    """The row kernel: one made row per (tag, d, k, u, v, r, c_canonical)
    tuple of the Grid, in order, its family hypotheses held.  Per combo,
    make(tag, q, d, k, u, v) gets the constant cells (k None on T6, u and v
    None elsewhere) and returns the function of (r, c, predicate, oracle,
    agree, reduced_f, elapsed_us) that makes a row; each (combo, c) group's
    constants (_group) are built on its first row.  Per r the gcd criterion
    is read once, and per c f = x^r h(x^(q-1)) is folded mod n = q^2 - 1:
    each of its at most three exponents is (r + o) mod n + 1, and the terms,
    sorted by exponent, are joined with their texts for reduced_f.  The
    oracle's verdict is memo's entry for reduced_f, which names the folded f
    one to one; on a miss the terms go to the oracle (permutes) and the
    verdict is kept, so a memo serves one field only.  After the last row,
    tally (a Counter) gains the counts of tuples, disagreements and
    permutations."""
    q, n = field.q, field.q2 - 1
    clock = time.perf_counter_ns
    count = bad = perms = 0
    for (tag, d, k, u, v), blocks in groupby(grid.blocks, itemgetter(0)):
        row = make(tag, q, d, None, u, v) if tag == "T6" else make(tag, q, d, k, None, None)
        groups = {}
        for combo, rs, cs in blocks:
            if rs[0] < 1:
                raise ValueError(f"r must be >= 1, got {rs[0]}")
            for r in rs:
                pred = r_criterion(tag, q, d, k, u, r)
                for c in cs:
                    group = groups.get(c)
                    if group is None:
                        group = groups[c] = _group(field, combo, c)
                    start = clock()
                    terms = sorted([((r + o) % n + 1, coeff, text) for o, coeff, text in group])
                    reduced_f = " + ".join([f"{text}x" if e == 1 else f"{text}x^{e}"
                                            for e, _, text in terms]) or "0"
                    oracle = memo.get(reduced_f)
                    if oracle is None:
                        if len(memo) >= VERDICT_MEMO_SIZE:
                            memo.clear()
                        oracle = memo[reduced_f] = permutes(
                            field, [(e, coeff) for e, coeff, _ in terms])
                    count += 1
                    bad += pred != oracle
                    perms += oracle
                    yield row(r, c, pred, oracle, pred == oracle, reduced_f,
                              (clock() - start) // 1000)
    if tally is not None:
        tally.update(tuples=count, disagreements=bad, permutations=perms)


def _row_list(field, grid, memo):
    """The Rows of a Grid (_rows): make(*combo) is partial(Row, *combo)."""
    return list(_rows(field, grid, memo, partial(partial, Row)))


# The verdict memo of the pool this process works for, keyed by the field
# arguments it serves.  A worker keeps it across its slices; the parent
# empties it when the pool is done, so a pool faked in the parent's own
# process leaves no verdict behind.
_pool_memos = {}


def _worker(field_args, finish, grid):
    """finish(field, grid, memo) of one slice, in a pool worker."""
    memo = _pool_memos.setdefault(field_args, {})
    return finish(build_field(*field_args), grid, memo)


def _prepare(grids):
    """Validate each distinct (tag, d, k, u, v, c) group of every (field,
    Grid) once, in order, raising HypothesesNotSatisfied for the first that
    fails: the distinct c of a combo are those of its blocks' c lists.  Then
    build one h per (tag, d, k, u, v) combo.  h's exponents depend on the
    combo alone, so that raises every NegativeExponent a row would, after
    every hypothesis violation and before any row."""
    combos = []
    for field, grid in grids:
        for combo, blocks in groupby(grid.blocks, itemgetter(0)):
            for c in dict.fromkeys(c for _, _, cs in blocks for c in cs):
                report = validate(_params_from_tuple(field, (*combo, 1, c)))
                if not report.satisfied:
                    raise HypothesesNotSatisfied(report.violations)
            combos.append((field, combo, c))
    for field, combo, c in combos:
        _group(field, combo, c)


def _workers(grid, jobs):
    """How many pool processes a grid gets at --jobs: at most one per core
    and one per tuple; below two it is computed in this process."""
    return min(jobs, len(grid), os.cpu_count() or 1)


def _pooled(field, grid, workers, seed, max_size, finish):
    """finish(field, grid, memo) of each slice of the Grid, in order, from a
    pool of workers processes, all started at once.  The slices are
    contiguous, of about len(grid) / (8 * workers) tuples each, and finish,
    a picklable function, runs in the worker, with the memo that worker
    keeps for this pool.  A worker looks the field up with build_field; the
    logs are built here first, so a forked worker finds them built in the
    cached field instead of building its own copy."""
    field.logs()
    size = -(-len(grid) // (8 * workers))
    worker = partial(_worker, (field.p, field.h, seed, max_size), finish)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, grid.chunks(size))
    finally:
        _pool_memos.clear()


def compute_rows(field, tuples, jobs, seed, max_size):
    """Every Row of tuples, a Grid or a sorted list (Grid.of), in order.
    Every group is validated and every combo's h built first (_prepare).
    Below two workers (_workers) the rows are computed here, with a verdict
    memo of this call's own; otherwise from the pool (_pooled)."""
    grid = tuples if isinstance(tuples, Grid) else Grid.of(tuples)
    _prepare([(field, grid)])
    workers = _workers(grid, jobs)
    if workers < 2:
        return _row_list(field, grid, {})
    return [row for rows in _pooled(field, grid, workers, seed, max_size, _row_list)
            for row in rows]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit_rows(rows, fields, fmt, out):
    """Write rows, tuples whose cells are named by fields, in order: CSV
    with a header line, None an empty cell, or one JSON object per line,
    None null.  A sweep, search or check writes only its header here."""
    if fmt != "csv":
        for row in rows:
            out.write(json.dumps(dict(zip(fields, row))) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

FAMILY_KEYS = {"family", "q", "d", "k", "u", "v", "r", "c"}


def build_grid(args_params, field, tag, for_sweep):
    """The requested grid's sorted (tag, d, k, u, v, r, c) tuples, as a
    Grid of one block per combo.

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
        combos = [(tag, 2, 0, u, v) for u in u_values for v in v_values]
    else:
        combos = [(tag, d, k, 0, 0) for d, ks in windows for k in ks]
    if c_values is None:
        c_values = [int(c) for c in valid_c_values(field, tag)]
    r_values, c_values = sorted(r_values), sorted(c_values)
    return Grid([(combo, r_values, c_values) for combo in sorted(combos)])


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
        with open(params["file"], "rb") as fh:
            text = fh.read(MAX_FIELD_FILE + 1)
        if len(text) > MAX_FIELD_FILE:
            raise UsageError(f"field description file is over {MAX_FIELD_FILE} bytes")
        field = field_from_text(text.decode("ascii"), ns.max_field)
        if "q" in params and parse_prime_power(params["q"], ns.max_field) != (field.p, field.h):
            raise UsageError(f"file describes q={field.q}, not q={params['q']}")
    else:
        field, = _fields(params, ns.max_field)
    out.write(field_to_text(field))
    return EXIT_OK


def cmd_check(ns, out, err):
    counts = _write_rows(ns, out, search=False)  # one tuple, so never pooled
    if counts["disagreements"]:
        return EXIT_DISAGREEMENT
    return EXIT_OK if counts["permutations"] else EXIT_NON_PERMUTATION


def _grids(ns):
    """(field, Grid) of the grid at every requested q, in ascending q, once
    every q's groups are validated and h built.  check is a sweep whose grid,
    over all q, must be exactly one tuple.  A key the family does not take is
    a usage error: T5 and T6 fix d (4 and 2), and T6 takes u and v, not k."""
    params = parse_kv(ns.params, FAMILY_KEYS)
    tag = params.get("family")
    if tag not in TAGS:
        raise UsageError(f"family must be one of {', '.join(TAGS)}")
    takes = {"T5": {"k"}, "T6": {"u", "v"}}.get(tag, {"d", "k"})
    refused = sorted(params.keys() - takes - {"family", "q", "r", "c"})
    if refused:
        raise UsageError(f"family {tag} does not take {', '.join(refused)}")
    for_sweep = ns.command != "check"
    grids = [(field, build_grid(params, field, tag, for_sweep))
             for field in sorted(_fields(params, ns.max_field), key=lambda field: field.q)]
    if not for_sweep and sum(len(grid) for _, grid in grids) != 1:
        raise UsageError("check takes exactly one parameter tuple; use sweep for grids")
    _prepare(grids)
    return grids


def _cells(*combo):
    """A combo's constant CSV cells, None empty, and the comma after them."""
    return "".join(f"{'' if cell is None else cell}," for cell in combo)


_BOOL = ("false", "true")


def _sweep_line(*combo):
    """make for a sweep's CSV lines (_rows): every ROW_FIELDS cell."""
    head = _cells(*combo)
    return lambda r, c, pred, oracle, agree, reduced_f, us: (
        f"{head}{r},{c},{_BOOL[pred]},{_BOOL[oracle]},{_BOOL[agree]},{reduced_f},{us}\n")


def _search_line(*combo):
    """make for a search's CSV lines (_rows): the SEARCH_FIELDS cells of a
    permuting row, and "" for any other."""
    head = _cells(*combo)
    return lambda r, c, pred, oracle, agree, reduced_f, us: (
        f"{head}{r},{c},{reduced_f}\n" if oracle else "")


def _json_line(*combo):
    """make for JSON lines (_rows): one object of every ROW_FIELDS cell."""
    return lambda *cells: json.dumps(dict(zip(ROW_FIELDS, combo + cells))) + "\n"


def _json_search_line(*combo):
    """make for a search's JSON lines (_rows): one object of the
    SEARCH_FIELDS cells of a permuting row, and "" for any other."""
    return lambda r, c, pred, oracle, agree, reduced_f, us: (
        json.dumps(dict(zip(SEARCH_FIELDS, (*combo, r, c, reduced_f)))) + "\n"
        if oracle else "")


# the line maker of each (format, search)
_MAKERS = {("csv", False): _sweep_line, ("csv", True): _search_line,
           ("jsonl", False): _json_line, ("jsonl", True): _json_search_line}


def _render(search, fmt, field, grid, memo, out=None):
    """Write the lines of a Grid (_rows), without the CSV header, to out or
    else to a new string: for a sweep or check every row, and for a search
    the SEARCH_FIELDS of each permuting one.  A CSV line holds exactly the
    bytes csv.writer writes for its cells: no cell holds a comma, quote or
    line break, so csv.writer would quote none.  Returns the string ("" with
    out) and the Counter of tuples, disagreements and permutations."""
    sink = io.StringIO() if out is None else out
    counts = Counter()
    sink.writelines(_rows(field, grid, memo, _MAKERS[fmt, search], counts))
    return ("" if out is not None else sink.getvalue()), counts


def _write_rows(ns, out, search):
    """Write a sweep's, a search's or a check's output (_render) over the
    grid of every requested q, after one header, and return the Counter of
    tuples, disagreements and permutations.  A grid computed here writes
    each line to out as it is made; a pooled one (_pooled) writes each
    slice's text as the worker rendered it."""
    grids = _grids(ns)
    emit_rows((), SEARCH_FIELDS if search else ROW_FIELDS, ns.format, out)
    finish = partial(_render, search, ns.format)
    counts = Counter()
    for field, grid in grids:
        workers = _workers(grid, ns.jobs)
        if workers < 2:
            pieces = [finish(field, grid, {}, out)]
        else:
            pieces = _pooled(field, grid, workers, env_seed(), ns.max_field, finish)
        for text, part in pieces:
            out.write(text)
            counts.update(part)
    return counts


def cmd_sweep(ns, out, err):
    counts = _write_rows(ns, out, search=False)
    print(f"tuples={counts['tuples']} disagreements={counts['disagreements']}", file=err)
    return EXIT_OK if counts["disagreements"] == 0 else EXIT_DISAGREEMENT


def cmd_search(ns, out, err):
    counts = _write_rows(ns, out, search=True)
    print(f"tuples={counts['tuples']} permutations={counts['permutations']}", file=err)
    return EXIT_OK


def cmd_identities(ns, out, err):
    params = parse_kv(ns.params, {"q", "k"})
    k_values = parse_int_list(params["k"]) if "k" in params else [0, 1]
    rows = []

    def add(q, d, lemma, k, ok, note=None):
        result = "skipped" if ok is None else "pass" if ok else "fail"
        rows.append((q, d, lemma, k, result, note))

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
    fail = any(result == "fail" for _, _, _, _, result, _ in rows)
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
