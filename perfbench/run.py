"""ppforge benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Run from the repository root (standard library only, nothing to build):

    python3 perfbench/run.py --workload grid-q13 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

`all` runs every workload below in turn.  BENCHMARK.json lists all but
untabled-q521: its one tuple takes 35-70 s on a 2-core box, longer than a
run's measuring window, so a run cannot repeat it to take a median.  Run it
by name.

Each repetition of a workload is a fresh process (perfbench/child.py), so
lru_cache and the field tables start cold.  It times the set-up (import
ppforge, build_field, tables) and then calls ppforge.cli.main with each of the
workload's argv lists, stdout captured in memory.  --seed becomes
PPFORGE_SEED, which selects the field's modulus and generator; the recorded
tuple and permutation counts do not depend on it.  Repetitions run while the
next one is predicted to end inside --seconds (always at least one), and
set-up-only processes top the set-up samples up to MIN_SETUPS.  Every
repetition's output is checked: exit code 0, disagreements=0, no failed
identity, and the recorded counts.

--trace 0 reports the medians of the end-to-end metrics in BENCHMARK.json.
--trace 1 makes two serial repetitions (--jobs=1): one untraced, one with a
span around every call into a ppforge layer.  It reports the per-layer
metrics in BENCHMARK.json, the tracing overhead as traced minus untraced
wall_s, and for a pooled workload two untraced cli.compute_rows calls, serial
and at its --jobs.  Spans, the per-layer table and the full result (with
Python version, nproc, platform and git commit) go to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (for `all`, the metrics of each workload under "workloads").
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
OUT = ROOT / "perfbench" / "out"
HARD_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUPS = 7

# argv per cli.main call, field (p, h) for set-up, and the counts every
# repetition must reproduce; they depend only on the predicate, not the seed.
WORKLOADS = {
    "grid-q13": {
        "field": (13, 1),
        "calls": [["--jobs=2", "sweep", "family=T1", "q=13", "d=2,14", "r=1..167", "c=all"]],
        "tuples": 18704, "permutations": 5376,
    },
    "oracle-q509": {
        "field": (509, 1),
        "calls": [["--jobs=1", "sweep", "family=T6", "q=509", "u=1", "v=1", "r=19..30", "c=2"]],
        "tuples": 12, "permutations": 2,
    },
    "ext-q81": {
        "field": (3, 4),
        "calls": [["identities", "q=3^4"],
                  ["--jobs=1", "sweep", "family=T1", "q=3^4", "d=2", "k=1,3", "r=1..6", "c=all"]],
        "tuples": 492, "permutations": 82,
    },
    "untabled-q521": {
        "field": (521, 1),
        "calls": [["--jobs=1", "sweep", "family=T6", "q=521", "u=1", "v=1", "r=23", "c=2"]],
        "tuples": 1, "permutations": 1,
    },
}

# per-layer metric -> the end-to-end metric it should move, and on which workload
MOVES = {
    "ffcore.build_field_s": "setup_s on every workload",
    "ffcore.tables_s": "setup_s on oracle-q509 and ext-q81; only the tables_supported() check on untabled-q521",
    "ffcore.table_bytes": "peak_rss_mb on oracle-q509; computed as the deep getsizeof of tables()",
    "sparsepoly.build_f_s": "tuples_per_s on grid-q13",
    "sparsepoly.reduce_s": "tuples_per_s on grid-q13; reduce_mod plus str",
    "families.validate_s": "tuples_per_s on grid-q13",
    "families.validate_calls": "tuples_per_s on grid-q13",
    "families.predicate_s": "tuples_per_s on grid-q13; self time, validate excluded",
    "families.valid_c_s": "tuples_per_s on grid-q13; 0 where c is given explicitly",
    "families.lemma_s": "wall_s on ext-q81; self time, unity excluded; 0 without identities",
    "unity.mu_s": "wall_s on ext-q81; make_mu, .elements(), make_partition",
    "oracle.evaluate_s": "tuples_per_s on oracle-q509, ext-q81, untabled-q521; a small share on grid-q13",
    "oracle.points": "tuples_per_s on oracle-q509, ext-q81, untabled-q521; q^2 per evaluate_on_field call",
    "oracle.ns_per_point": "tuples_per_s on oracle-q509, ext-q81, untabled-q521",
    "oracle.collision_s": "tuples_per_s on oracle-q509; is_permutation_of_field minus evaluate_on_field",
    "oracle.non_bijection_share": "bounds what an early exit can save on each workload; base: tuples",
    "cli.build_grid_s": "wall_s on grid-q13; self time, valid_c excluded",
    "cli.emit_s": "wall_s on grid-q13",
    "cli.compute_row_ms.p50": "tuples_per_s on grid-q13",
    "cli.compute_row_ms.tail": "tuples_per_s on grid-q13",
    "cli.compute_rows_s": "wall_s and cpu_s on grid-q13; at the workload's --jobs",
    "cli.pool_efficiency": "wall_s and cpu_s on grid-q13; serial compute_rows / (jobs x pooled)",
    "trace.overhead_s": "cost of tracing: traced minus untraced serial wall_s",
}


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cap_jobs(argv, jobs_limit):
    out = []
    for arg in argv:
        if arg.startswith("--jobs="):
            arg = f"--jobs={min(int(arg[7:]), jobs_limit)}"
        out.append(arg)
    return out


def run_child(spec, seed, deadline):
    """Run one child to completion; returns (result or None, spawn time, error)."""
    env = dict(os.environ, PPFORGE_SEED=str(seed))
    spawn = clock()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        for _ in range(100):  # until the whole process group has gone
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return None, spawn, "timed out"
    if proc.returncode != 0 or not stdout.strip():
        return None, spawn, f"exit {proc.returncode}: {stderr.strip()[-500:]}"
    return json.loads(stdout.strip().splitlines()[-1]), spawn, None


def check(result, workload):
    """Problems with one repetition's output; empty when every check passes."""
    wl = WORKLOADS[workload]
    problems = []
    tuples = permutations = 0
    for call in result["calls"]:
        name = " ".join(call["argv"])
        if call["rc"] != 0:
            problems.append(f"{name}: exit code {call['rc']}")
        if "identities" in call["argv"]:
            if call["identity_fails"] or not call["identity_rows"]:
                problems.append(f"{name}: {call['identity_fails']} fail rows of {call['identity_rows']}")
            continue
        tuples += call["tuples"]
        permutations += call["permutations"]
        if "disagreements=0" not in call["stderr"].split():
            problems.append(f"{name}: stderr {call['stderr'].strip()!r}")
        if f"tuples={call['tuples']}" not in call["stderr"].split():
            problems.append(f"{name}: {call['tuples']} rows but stderr {call['stderr'].strip()!r}")
        if call["disagreements"]:
            problems.append(f"{name}: {call['disagreements']} disagreeing rows")
    if (tuples, permutations) != (wl["tuples"], wl["permutations"]):
        problems.append(f"counts {tuples}/{permutations}, expected {wl['tuples']}/{wl['permutations']}")
    return problems


class Run:
    """Repetitions of one workload, their checks and their failure counts."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.reps = []  # results of the repetitions that ran, with "wall_s" added
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def rep(self, spec):
        """One repetition; a failed check counts all its tuples as failed."""
        expected = WORKLOADS[self.workload]["tuples"]
        self.attempted += expected
        result, spawn, error = run_child(spec, self.seed, self.deadline)
        problems = [error] if error else check(result, self.workload)
        if problems:
            self.failed += expected
            self.problems.extend(problems)
        if result is None:
            return None
        result["wall_s"] = result["end"] - spawn
        self.reps.append(result)
        return result

    def setup_only(self, spec):
        result, _, error = run_child(dict(spec, mode="setup"), self.seed, self.deadline)
        if error:
            self.problems.append(f"set-up: {error}")
            return None
        return result["setup_s"]


def spread(values):
    """(median, q1, q3, n); quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def measure(run, spec, seconds):
    """--trace 0: repetitions for `seconds`, then the end-to-end metrics."""
    start = clock()
    while True:
        began = clock()
        run.rep(spec)
        now = clock()
        if run.problems or now + (now - began) > min(start + seconds, run.deadline):
            break
    setups = [r["setup_s"] for r in run.reps]
    while setups and len(setups) < MIN_SETUPS and not run.problems:
        setup = run.setup_only(spec)
        if setup is not None:
            setups.append(setup)
    if not run.reps:
        return None, {}
    samples = {
        "wall_s": [r["wall_s"] for r in run.reps],
        "setup_s": setups,
        "tuples_per_s": [sum(c.get("tuples", 0) for c in r["calls"]) / r["sweep_s"] for r in run.reps],
        "cpu_s": [r["cpu_s"] for r in run.reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in run.reps],
    }
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def percentile(values, pct):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # nearest rank
    return ordered[int(rank) - 1]


def tail(values):
    """(label, value) of the highest percentile with at least ten samples beyond it."""
    for pct in (99.99, 99.9, 99, 90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct:g}", percentile(values, pct)
    return "max", max(values)


def trace(run, spec):
    """--trace 1: untraced and traced serial repetitions, then per-layer metrics."""
    serial = [cap_jobs(argv, 1) for argv in spec["calls"]]
    pooled = [argv for argv in spec["calls"] if argv != cap_jobs(argv, 1)]
    untraced = run.rep(dict(spec, calls=serial))
    spans_path = OUT / f"{run.workload}-seed{run.seed}.spans.jsonl.gz"
    traced = run.rep(dict(spec, calls=serial, mode="trace", pooled=pooled,
                          spans_path=str(spans_path), workload=run.workload))
    if untraced is None or traced is None:
        return None, {}
    layers = traced["layers"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    tuples = sum(c.get("tuples", 0) for c in traced["calls"])
    permutations = sum(c.get("permutations", 0) for c in traced["calls"])
    points = calls("oracle.evaluate") * traced["q2"]
    row_s = traced["compute_row_s"]
    tail_label, tail_s = tail(row_s) if row_s else ("none", 0.0)
    if traced["pooled"]:  # untraced calls, serial and at the workload's --jobs
        jobs = traced["pooled"][0]["jobs"]
        rows_s = sum(p["pooled_s"] for p in traced["pooled"])
        serial_s = sum(p["serial_s"] for p in traced["pooled"])
    else:
        jobs = 1
        rows_s = layers.get("cli.compute_rows", {}).get("total_s", 0.0)
        serial_s = sum(row_s)
    metrics = {
        "ffcore.build_field_s": self_s("ffcore.build_field"),
        "ffcore.tables_s": self_s("ffcore.tables"),
        "ffcore.table_bytes": traced["table_bytes"],
        "sparsepoly.build_f_s": self_s("sparsepoly.build_f"),
        "sparsepoly.reduce_s": self_s("sparsepoly.reduce"),
        "families.validate_s": self_s("families.validate"),
        "families.validate_calls": calls("families.validate"),
        "families.predicate_s": self_s("families.predicate"),
        "families.valid_c_s": self_s("families.valid_c"),
        "families.lemma_s": self_s("families.lemma"),
        "unity.mu_s": self_s("unity.mu"),
        "oracle.evaluate_s": self_s("oracle.evaluate"),
        "oracle.points": points,
        "oracle.ns_per_point": self_s("oracle.evaluate") * 1e9 / points if points else 0.0,
        "oracle.collision_s": self_s("oracle.is_permutation"),
        "oracle.non_bijection_share": (tuples - permutations) / tuples if tuples else 0.0,
        "cli.build_grid_s": self_s("cli.build_grid"),
        "cli.emit_s": self_s("cli.emit"),
        "cli.compute_row_ms.p50": percentile(row_s, 50) * 1e3 if row_s else 0.0,
        "cli.compute_row_ms.tail": tail_s * 1e3,
        "cli.compute_rows_s": rows_s,
        "cli.pool_efficiency": serial_s / (jobs * rows_s) if rows_s else 0.0,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    detail = {
        "layers": layers,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "compute_row_tail": tail_label,
        "compute_row_samples": len(row_s),
        "pool_jobs": jobs,
        "non_bijections": f"{tuples - permutations} of {tuples} tuples",
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def layer_table(detail, metrics, units):
    wall = detail["traced_wall_s"]
    lines = [f"{'layer span':<24}{'calls':>8}{'self s':>11}{'share':>8}"]
    for name, entry in sorted(detail["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<24}{entry['calls']:>8}{entry['self_s']:>11.4f}"
                     f"{entry['self_s'] / wall:>8.1%}")
    lines.append(f"traced wall_s {wall:.4f}, untraced {detail['untraced_wall_s']:.4f}, "
                 f"overhead {metrics['trace.overhead_s']:+.4f} s")
    lines.append("")
    lines.append(f"{'metric':<28}{'value':>16} {'unit':<8} should move")
    for name, value in metrics.items():
        lines.append(f"{name:<28}{value:>16.6g} {units[name]:<8} {MOVES[name]}")
    lines.append(f"compute_row tail = {detail['compute_row_tail']} of "
                 f"{detail['compute_row_samples']} samples; non-bijections "
                 f"{detail['non_bijections']}; pool jobs {detail['pool_jobs']}")
    return "\n".join(lines)


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "commit": commit}


def run_workload(workload, seed, seconds, traced, units):
    """One workload: prints its report and returns the contract's result dict."""
    deadline = clock() + HARD_LIMIT_S
    jobs_limit = os.cpu_count() or 1
    wl = WORKLOADS[workload]
    spec = {"mode": "run", "field": wl["field"],
            "calls": [cap_jobs(argv, jobs_limit) for argv in wl["calls"]]}
    run = Run(workload, seed, deadline)
    if traced:
        metrics, detail = trace(run, spec)
    else:
        metrics, detail = measure(run, spec, seconds)
    env = environment()
    print(f"workload {workload} seed {seed} trace {int(traced)}: {len(run.reps)} repetitions; "
          f"python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    if metrics is None:
        return None
    if traced:
        table = layer_table(detail, metrics, units)
        print(table)
        (OUT / f"{workload}-seed{seed}.layers.txt").write_text(table + "\n")
    else:
        for name, values in detail.items():
            med, q1, q3, n = spread(values)
            print(f"  {name:<14}{med:>14.6g} {units[name]:<6} median, q1 {q1:.6g}, q3 {q3:.6g}, n={n}")
    print(f"  failed_ratio  {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} tuples)")
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(
        dict(result, workload=workload, seed=seed, seconds=seconds, environment=env,
             detail=detail, problems=run.problems), indent=1) + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ppforge" / "__init__.py").is_file():
        print(f"perfbench: no ppforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, seconds, args.trace, units) for name in names}
    if any(r is None for r in results.values()):
        print("perfbench: a workload produced no measurement", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": {name: r["metrics"] for name, r in results.items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
