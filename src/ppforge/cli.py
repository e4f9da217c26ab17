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

A sweep or search first validates the family hypotheses of every requested q,
once per (family, d, k, u, v, c) group: they do not depend on r.  Only then are
rows computed, with the gcd criterion per r and the oracle per tuple.

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
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import gcd, isqrt

from .errors import HypothesesNotSatisfied, PPForgeError, SizeExceeded
from .families import (
    FamilyParams,
    TAGS,
    build_f,
    default_k_window,
    gcd_criterion,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    valid_c_values,
    validate,
)
from .ffcore import (
    DEFAULT_MAX_FIELD_SIZE,
    DEFAULT_SEED,
    build_field,
    field_from_text,
    field_to_text,
    is_prime,
)
from .oracle import is_permutation_of_field

EXIT_OK = 0
EXIT_NON_PERMUTATION = 1
EXIT_DISAGREEMENT = 2
EXIT_USAGE = 64
EXIT_HYPOTHESES = 65

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


def parse_prime_power(text, max_field=None):
    """(p, h) for q given plain or as p^h; must be an odd prime power.

    With max_field set, a q with q^2 above it raises SizeExceeded before any
    factoring; the least prime factor is searched only up to sqrt(q).
    """
    if "^" in text:
        base, _, expo = text.partition("^")
        p, h = int(base), int(expo)
        if h < 1:
            raise UsageError(f"bad exponent in q={text}")
        if p < 3:
            raise UsageError(f"q must be a power of an odd prime, got base {p}")
        if max_field is not None and (h > max_field.bit_length() or p ** (2 * h) > max_field):
            raise SizeExceeded(f"{p}^{2 * h}", max_field)
    else:
        q = int(text)
        if q < 3:
            raise UsageError(f"q={text} is not an odd prime power")
        if max_field is not None and q * q > max_field:
            raise SizeExceeded(q * q, max_field)
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        h = 0
        while q % p == 0:
            q //= p
            h += 1
        if q != 1:
            raise UsageError(f"q={text} is not a prime power")
    if p == 2 or not is_prime(p):
        raise UsageError(f"q must be a power of an odd prime, got base {p}")
    return p, h


def parse_int_list(text):
    """Comma-separated integers and a..b inclusive ranges with a <= b."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise UsageError(f"reversed range {chunk!r}")
            out.extend(range(lo, hi + 1))
        elif chunk:
            out.append(int(chunk))
    if not out:
        raise UsageError(f"empty list/range: {text!r}")
    return out


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


def compute_row(field, tup):
    """One ResultRow dict for (tag, d, k, u, v, r, c_canonical) whose family
    hypotheses hold; compute_rows validates them first."""
    start = time.perf_counter_ns()
    params = _params_from_tuple(field, tup)
    f = build_f(params)
    pred = gcd_criterion(params)
    report = is_permutation_of_field(field, f)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    tag = params.tag
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
        "reduced_f": str(f.reduce_mod()),
        "elapsed_us": elapsed_us,
    }


def _worker_row(field_args, tup):
    return compute_row(build_field(*field_args), tup)


def _validate_groups(field, tuples):
    """Validate each distinct (tag, d, k, u, v, c) group once, in tuple order;
    raise HypothesesNotSatisfied for the first that fails."""
    for group in dict.fromkeys((tag, d, k, u, v, 1, c) for tag, d, k, u, v, _, c in tuples):
        report = validate(_params_from_tuple(field, group))
        if not report.satisfied:
            raise HypothesesNotSatisfied(report.violations)


def compute_rows(field, tuples, jobs, seed, max_size):
    """Rows for every parameter tuple, in tuple order, on at most
    min(jobs, len(tuples)) processes.  Every group is validated before any
    row is computed."""
    _validate_groups(field, tuples)
    workers = min(jobs, len(tuples))
    if workers < 2:
        return [compute_row(field, tup) for tup in tuples]
    worker = partial(_worker_row, (field.p, field.h, seed, max_size))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tuples, chunksize=64))


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
    """All (tag, d, k, u, v, r, c) tuples of the requested grid, sorted."""
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

    r_values = parse_int_list(args_params["r"]) if "r" in args_params else list(range(1, q * q))
    if any(r < 1 for r in r_values):
        raise UsageError("r values must be >= 1")

    c_text = args_params.get("c", "all" if for_sweep else None)
    if c_text is None:
        raise UsageError("c is required")

    if tag == "T6":
        u_values = parse_int_list(args_params["u"]) if "u" in args_params else None
        v_values = parse_int_list(args_params["v"]) if "v" in args_params else None
        if not u_values or not v_values:
            raise UsageError("T6 requires u and v")
        combos = [(2, 0, u, v) for u in u_values for v in v_values]
    else:
        combos = []
        for d in d_values:
            k_values = (parse_int_list(args_params["k"]) if "k" in args_params
                        else default_k_window(tag, d))
            combos.extend((d, k, 0, 0) for k in k_values)
    if c_text == "all":
        c_values = [int(c) for c in valid_c_values(field, tag)]
    else:
        c_values = parse_int_list(c_text)
    # sorted factors make the product sorted: no sort of the whole grid
    tuples = [(tag, d, k, u, v, r, c) for d, k, u, v in sorted(combos)
              for r in sorted(r_values) for c in sorted(c_values)]
    if not tuples:
        raise UsageError("empty parameter grid")
    return tuples


def _field_for(args_params, max_size):
    if "q" not in args_params:
        raise UsageError("q is required")
    p, h = parse_prime_power(args_params["q"], max_size)
    return build_field(p, h, seed=env_seed(), max_size=max_size)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field_info(ns, out, err):
    params = parse_kv(ns.params, {"q", "file"})
    if "file" in params:
        with open(params["file"], "r", encoding="ascii") as fh:
            field = field_from_text(fh.read(), ns.max_field)
        if "q" in params:
            p, h = parse_prime_power(params["q"], ns.max_field)
            if (p, h) != (field.p, field.h):
                raise UsageError(f"file describes q={field.q}, not q={params['q']}")
    else:
        field = _field_for(params, ns.max_field)
    out.write(field_to_text(field))
    return EXIT_OK


def cmd_check(ns, out, err):
    params = parse_kv(ns.params, FAMILY_KEYS)
    tag = params.get("family")
    if tag not in TAGS:
        raise UsageError(f"family must be one of {', '.join(TAGS)}")
    field = _field_for(params, ns.max_field)
    for key in ("r", "c"):
        if key not in params:
            raise UsageError(f"{key} is required")
    tuples = build_grid(params, field, tag, for_sweep=False)
    if len(tuples) != 1:
        raise UsageError("check takes exactly one parameter tuple; use sweep for grids")
    row, = compute_rows(field, tuples, ns.jobs, env_seed(), ns.max_field)
    emit_rows([row], ROW_FIELDS, ns.format, out)
    if not row["agree"]:
        return EXIT_DISAGREEMENT
    return EXIT_OK if row["oracle"] else EXIT_NON_PERMUTATION


def _sweep_common(ns):
    """Rows of the grid at every requested q, in ascending q."""
    params = parse_kv(ns.params, FAMILY_KEYS)
    tag = params.get("family")
    if tag not in TAGS:
        raise UsageError(f"family must be one of {', '.join(TAGS)}")
    if "q" not in params:
        raise UsageError("q is required")
    seed = env_seed()
    fields = []
    for q_text in params["q"].split(","):
        p, h = parse_prime_power(q_text, ns.max_field)
        fields.append(build_field(p, h, seed=seed, max_size=ns.max_field))
    grids = [(field, build_grid(params, field, tag, for_sweep=True))
             for field in sorted(fields, key=lambda field: field.q)]
    for field, tuples in grids[1:]:  # compute_rows validates the first grid itself
        _validate_groups(field, tuples)
    return [row for field, tuples in grids
            for row in compute_rows(field, tuples, ns.jobs, seed, ns.max_field)]


def cmd_sweep(ns, out, err):
    rows = _sweep_common(ns)
    emit_rows(rows, ROW_FIELDS, ns.format, out)
    disagreements = sum(1 for row in rows if not row["agree"])
    print(f"tuples={len(rows)} disagreements={disagreements}", file=err)
    return EXIT_OK if disagreements == 0 else EXIT_DISAGREEMENT


def cmd_search(ns, out, err):
    rows = _sweep_common(ns)
    hits = [row for row in rows if row["oracle"]]
    emit_rows(hits, SEARCH_FIELDS, ns.format, out)
    print(f"tuples={len(rows)} permutations={len(hits)}", file=err)
    return EXIT_OK


def cmd_identities(ns, out, err):
    params = parse_kv(ns.params, {"q", "k"})
    if "q" not in params:
        raise UsageError("q is required")
    k_values = parse_int_list(params["k"]) if "k" in params else [0, 1]
    rows = []
    all_pass = True
    for q_text in params["q"].split(","):
        p, h = parse_prime_power(q_text, ns.max_field)
        field = build_field(p, h, seed=env_seed(), max_size=ns.max_field)
        q = field.q
        divisors = [d for d in range(1, q + 2) if (q + 1) % d == 0]
        for d in divisors:
            if gcd(d, (q + 1) // d) != 1:
                rows.append({"q": q, "d": d, "lemma": "v", "k": None,
                             "result": "skipped", "note": "cosets not disjoint"})
                continue
            for k in k_values:
                ok = lemma_v_identity(field, d, k)
                all_pass &= ok
                rows.append({"q": q, "d": d, "lemma": "v", "k": k,
                             "result": "pass" if ok else "fail", "note": None})
                ok = lemma_u_identity(field, d, k)
                all_pass &= ok
                rows.append({"q": q, "d": d, "lemma": "u", "k": k,
                             "result": "pass" if ok else "fail", "note": None})
        if q % 8 == 3:
            ok = lemma_d4_identity(field)
            all_pass &= ok
            rows.append({"q": q, "d": 4, "lemma": "d4", "k": None,
                         "result": "pass" if ok else "fail", "note": None})
        else:
            rows.append({"q": q, "d": 4, "lemma": "d4", "k": None,
                         "result": "skipped", "note": "q != 3 (mod 8)"})
    emit_rows(rows, IDENTITY_FIELDS, ns.format, out)
    return EXIT_OK if all_pass else EXIT_NON_PERMUTATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser():
    parser = _Parser(prog="ppforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel workers for sweeps (default: cores)")
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
