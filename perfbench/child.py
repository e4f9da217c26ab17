"""One repetition of a benchmark workload, in a fresh process.

Run from the repository root by perfbench/run.py:

    python3 perfbench/child.py '<json spec>'

The spec holds the field (p, h), the CLI argv lists to pass to
ppforge.cli.main and a mode:

  setup  time the set-up only: import ppforge, build_field(p, h) and the
         field tables when the field supports them;
  run    set-up, then every cli.main call, untraced;
  trace  the same with a span around each call into a ppforge layer, made by
         wrapping the layer's public functions from here; src/ppforge is not
         modified.  Afterwards, for a sweep whose argv asked for --jobs > 1,
         two untraced cli.compute_rows calls, serial and at that many jobs.

PPFORGE_SEED in the environment selects the field, as for the CLI.  The last
stdout line is one JSON object with the measurements; the CLI's own output is
captured in memory and only counted.
"""

import csv
import gzip
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

CLOCK = time.CLOCK_MONOTONIC  # system-wide, so the parent can time from spawn

ROOT = Path(__file__).resolve().parent.parent


def clock():
    return time.clock_gettime(CLOCK)


class Tracer:
    """In-memory spans [id, name, start, end, parent, tuple]; times in ns."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tuple_id = None
        self.patched = []

    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        record = [len(spans), name, 0, 0, stack[-1][0] if stack else None, self.tuple_id]
        spans.append(record)
        stack.append(record)
        record[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            stack.pop()

    def patch(self, owner, attr, name, per_tuple=False):
        """Replace owner.attr by a wrapper that records a span per call.

        per_tuple marks the call that certifies one parameter tuple (its second
        argument); spans opened inside it carry that tuple as their id."""
        original = getattr(owner, attr, None)
        if original is None:  # the layer no longer has it: its metric reads 0
            return
        tracer = self

        if per_tuple:
            def wrapper(*args, **kwargs):
                tracer.tuple_id = ",".join(map(str, args[1]))
                try:
                    return tracer.span(name, original, *args, **kwargs)
                finally:
                    tracer.tuple_id = None
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)

        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def layers(self):
        """name -> {"calls", "total_s", "self_s"}; self time excludes child spans."""
        child_ns = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
        return out

    def durations_s(self, name):
        return [(end - start) / 1e9 for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path, workload):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, tuple_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": workload, "tuple": tuple_id,
                }) + "\n")


def instrument(tracer):
    """Wrap the public calls the CLI makes into each layer."""
    from ppforge import cli, families, oracle, unity
    from ppforge.sparsepoly import SparsePoly

    # cli imported these by name, so they are wrapped where cli looks them up
    tracer.patch(cli, "build_field", "ffcore.build_field")
    tracer.patch(cli, "build_grid", "cli.build_grid")
    tracer.patch(cli, "valid_c_values", "families.valid_c")
    tracer.patch(cli, "validate", "families.validate")
    tracer.patch(cli, "compute_rows", "cli.compute_rows")
    tracer.patch(cli, "compute_row", "cli.compute_row", per_tuple=True)
    tracer.patch(cli, "build_f", "sparsepoly.build_f")
    tracer.patch(cli, "predicate", "families.predicate")
    tracer.patch(cli, "is_permutation_of_field", "oracle.is_permutation")
    tracer.patch(cli, "emit_rows", "cli.emit")
    for lemma in ("lemma_v_identity", "lemma_u_identity", "lemma_d4_identity"):
        tracer.patch(cli, lemma, "families.lemma")
    # calls made inside the layers, looked up in their own modules
    tracer.patch(families, "validate", "families.validate")
    tracer.patch(families, "make_mu", "unity.mu")
    tracer.patch(families, "make_partition", "unity.mu")
    tracer.patch(unity.MuContext, "elements", "unity.mu")
    tracer.patch(oracle, "evaluate_on_field", "oracle.evaluate")
    tracer.patch(SparsePoly, "reduce_mod", "sparsepoly.reduce")
    tracer.patch(SparsePoly, "__str__", "sparsepoly.reduce")


def deep_size(obj):
    """Bytes held by obj and the lists, tuples and ints inside it, each once."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def count_output(argv, text):
    """Counts from one call's captured stdout: rows, permutations, failures."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if "identities" in argv:
        return {"identity_rows": len(rows),
                "identity_fails": sum(row["result"] == "fail" for row in rows)}
    return {"tuples": len(rows),
            "permutations": sum(row["oracle"] == "true" for row in rows),
            "disagreements": sum(row["agree"] != "true" for row in rows)}


def cpu_and_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is KiB


def main():
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    if not (src / "ppforge" / "__init__.py").is_file():
        print(f"perfbench: no ppforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    mode = spec["mode"]
    tracer = Tracer() if mode == "trace" else None
    seed = int(os.environ.get("PPFORGE_SEED", "0"))
    p, h = spec["field"]

    def timed(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer else fn(*args)

    setup_start = clock()
    timed("setup.import", __import__, "ppforge")
    from ppforge import cli, ffcore

    field = timed("ffcore.build_field", ffcore.build_field, p, h, seed)

    def build_tables():
        supported = getattr(field, "tables_supported", None)
        return field.tables() if supported is not None and supported() else None

    tables = timed("ffcore.tables", build_tables)
    setup_s = clock() - setup_start
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer:
        instrument(tracer)
    calls = []
    sweep_s = 0.0
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        rc = cli.main(argv, out=out, err=err)
        if "sweep" in argv:
            sweep_s += clock() - start
        calls.append({"argv": argv, "rc": rc, "stderr": err.getvalue(), "stdout": out.getvalue()})
    result["end"] = clock()
    result["cpu_s"], result["peak_rss_mb"] = cpu_and_rss()
    result["sweep_s"] = sweep_s

    if tracer:
        tracer.unpatch()
        result["layers"] = tracer.layers()
        result["compute_row_s"] = tracer.durations_s("cli.compute_row")
        result["pooled"] = pooled_compute_rows(cli, field, seed, spec)
        result["table_bytes"] = deep_size(tables) if tables is not None else 0
        result["q2"] = field.q2
        tracer.write(spec["spans_path"], spec["workload"])

    for call in calls:
        call.update(count_output(call["argv"], call.pop("stdout")))
    result["calls"] = calls
    print(json.dumps(result))
    return 0


def pooled_compute_rows(cli, field, seed, spec):
    """Untraced cli.compute_rows of each pooled sweep in the spec, serial and at
    its --jobs."""
    pooled = []
    for argv in spec.get("pooled", []):
        ns = cli.make_parser().parse_args(argv)
        params = cli.parse_kv(ns.params, cli.FAMILY_KEYS)
        tuples = cli.build_grid(params, field, params["family"], True)
        seconds = {}
        for jobs in (1, ns.jobs):
            start = clock()
            cli.compute_rows(field, tuples, jobs, seed, ns.max_field)
            seconds[jobs] = clock() - start
        pooled.append({"jobs": ns.jobs, "serial_s": seconds[1], "pooled_s": seconds[ns.jobs]})
    return pooled


if __name__ == "__main__":
    sys.exit(main())
