"""wpcalc benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout (wpcalc is imported from its ``src/``)::

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``enum``: cold ``serial.enumerate_thick`` on U(1..4) and A(1..5); an op
  is one category.
* ``sheaf_table``: all-pairs ``wpl.hom_ext`` over 48 seeded classes on
  weights (2,3,5), long-arc tail included; an op is one row of the table
  (``hom_ext`` from one class to all 48), and its time is the sum of its
  pairs' fastest times.
* ``cli``: ``python -m wpcalc.cli`` processes, one after another (one
  client, closed loop): README examples, seeded queries, small
  enumerations and malformed literals; an op is one command.
* ``oracle``: the matrix route (``serial.realize``, ``nilrep.hom_dim``,
  ``nilrep.ext1_dim``) against ``serial.dims``; an op is one pair.

Every pass runs in a fresh worker process (``worker.py``), so caches start
cold, and passes repeat the same ops in the same order until ``--seconds``
have gone by (one client, closed loop, one process at a time).

With ``--trace 0`` the last line reports the end-to-end metrics.  The
machine is shared, and other tenants only ever add time, so each timing
is the fastest of its repetitions in the run: an op's time is its fastest
over the passes, and ``setup_s`` is the fastest worker start (interpreter
plus ``import wpcalc``), over ``SETUP_STARTS`` extra starts and one per
pass.  ``ops_per_s`` is ops per pass over the sum of those op times (plus
the fastest untimed preparation, the oracle's ``realize`` step);
``op_p50_ms``/``op_p90_ms`` are quantiles of the op times over the ops of
a pass; ``peak_rss_mb`` is the worker's maximum RSS (for ``cli``, the
largest ``wpc`` process), median over passes.

The machine's speed also changes, by up to about 70% and for seconds to
minutes at a time, and a run that falls wholly in a slow spell has no fast
repetition to keep.  So every run also times bare interpreter starts
(``python3 -c pass``, which no change to wpcalc touches): before each
worker start, before each pass and, on ``cli``, before each ``wpc``
process.  Every time above is scaled by
``FLOOR_REF_S`` over the fastest of these floor starts, that is, reported
as it would read on a machine whose interpreter starts in ``FLOOR_REF_S``.

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports per-layer call counts (from the first traced pass; they must repeat
exactly in every traced pass) and self times (median over traced passes)
of spans recorded around wpcalc's public functions
(``worker.install_tracer``).  ``trace.overhead_ratio`` is the sum of the
ops' fastest traced times over the sum of their fastest untraced times.

The last line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; ``failed`` counts wrong answers, unexpected exit codes,
tracebacks and per-op timeouts, so ``error_rate = failed / attempted``.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("enum", "sheaf_table", "cli", "oracle")
SETUP_STARTS = 10  # start-up-only workers per run, on top of one per pass
FLOOR_STARTS = 5  # bare-interpreter and import-only starts per traced run
START_TIMEOUT_S = 30.0
RUN_BUDGET_S = 170.0  # every run ends well within 180 s, even if a pass hangs
# A bare interpreter start on the machine the baseline was recorded on
# (x86_64, 2 CPUs, Python 3.11.7); end-to-end times are scaled to it.
FLOOR_REF_S = 0.045

# Workload-specific names of the generic end-to-end metrics, printed beside them.
ALIASES = {
    "enum": {"ops_per_s": "enumerate_thick calls/s (enum_wall_s = ops per pass / ops_per_s)"},
    "sheaf_table": {"ops_per_s": "table rows/s (table_pairs_per_s = 48 * ops_per_s)"},
    "oracle": {"ops_per_s": "oracle_pairs_per_s"},
    "cli": {"op_p50_ms": "cli_p50_ms", "op_p90_ms": "cli_p90_ms"},
}

LAYERS = [
    "serial.dims",
    "serial.enumerate_thick",
    "serial.perp_arc",
    "serial.realize",
    "wpl.hom_ext",
    "wpl.tube_dims",
    "wpl.parse_sheaf",
    "lgroup.normalize",
    "lgroup.arith",
    "lgroup.parse_element",
    "nilrep.Rep.init",
    "nilrep.hom_dim",
    "linalg.kernel_dimension",
    "cli.build_parser",
    "cli.main",
]
COUNTED = [
    "serial.dims",
    "serial.perp_arc",
    "wpl.hom_ext",
    "wpl.tube_dims",
    "lgroup.normalize",
    "lgroup.arith",
    "nilrep.hom_dim",
    "linalg.kernel_dimension",
]


class WorkerFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so traced call counts repeat
    env["PYTHONPATH"] = SRC
    return env


def start_worker():
    """A worker that has imported wpcalc; returns (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=HERE,
        env=_env(),
    )
    ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise WorkerFailed(f"worker did not start: {err.strip()[-2000:]}")
    return proc, seconds


def run_worker(job, timeout):
    """One pass in a fresh worker: (start-up seconds, result or None on timeout)."""
    proc, setup = start_worker()
    try:
        out, err = proc.communicate(json.dumps(job) + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return setup, None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def time_start(code):
    """Seconds for ``python3 -c code`` to start, run and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=HERE, env=_env())
    return time.perf_counter() - t0


class Run:
    """Passes of one run and their bookkeeping."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.t0 = time.perf_counter()
        self.setups = []
        self.floors = []  # bare interpreter starts, seconds
        self.passes = {}  # mode -> list of results
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None

    def do_pass(self, mode):
        first = not any(self.passes.values())
        job = {"workload": self.workload, "seed": self.seed, "size": "full", "mode": mode,
               "full_check": first}
        timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.t0))
        self.floors.append(time_start("pass"))
        setup, res = run_worker(job, timeout)
        self.setups.append(setup)
        if res is None:
            known = [p["attempted"] for ps in self.passes.values() for p in ps]
            self.attempted += known[0] if known else 1
            self.failed += known[0] if known else 1
            self.errors.append(f"{mode} pass timed out")
            return None
        self.floors += res["floor_s"]
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]
        if "digest" in res:
            if self.digest is None:
                self.digest = res["digest"]
            elif res["digest"] != self.digest:
                self.failed += 1
                self.errors.append(f"{mode} pass answered differently from the first pass")
        self.passes.setdefault(mode, []).append(res)
        return res

    def elapsed(self):
        return time.perf_counter() - self.t0


def _median(values):
    return statistics.median(values) if values else 0.0


def best_per_op(passes):
    """Each op's fastest time over the passes (None if it never finished).

    An op of several timed calls (a sheaf_table row, whose pairs take
    microseconds each) takes the sum of its calls' fastest times."""
    best = []
    for times in zip(*(p["lat_s"] for p in passes)):
        done = [t for t in times if t is not None]
        best.append(min(done) if done else None)
    n = passes[0]["group"]
    return [None if None in best[i:i + n] else sum(best[i:i + n]) for i in range(0, len(best), n)]


def end_to_end(run):
    for _ in range(SETUP_STARTS):
        run.floors.append(time_start("pass"))
        proc, seconds = start_worker()
        proc.communicate("null\n", timeout=START_TIMEOUT_S)
        run.setups.append(seconds)
    while not run.attempted or run.elapsed() < min(run.seconds, RUN_BUDGET_S / 2):
        run.do_pass("plain")
    done = run.passes.get("plain", [])
    best = [t for t in best_per_op(done) if t is not None]
    if not best:
        raise WorkerFailed("no op finished")
    floor = min(run.floors)
    scale = FLOOR_REF_S / floor
    raw_pass_s = min(p["prep_s"] for p in done) + sum(best)
    best = [t * scale for t in best]
    pass_s = raw_pass_s * scale
    return {
        "setup_s": (min(run.setups) * scale, "s"),
        "ops_per_s": (len(best) / pass_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_p90_ms": (1000 * (statistics.quantiles(best, n=10)[-1] if best[1:] else best[0]), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in done), "MB"),
    }, {
        "passes": len(done),
        "ops per pass": done[0]["attempted"],
        "worker starts": len(run.setups),
        "floor starts": len(run.floors),
        "fastest floor_s": round(floor, 5),
        "best pass_s": round(raw_pass_s, 4),
        "scaled": round(pass_s, 4),
    }


def per_layer(run):
    baseline_mode = "inprocess" if run.workload == "cli" else "plain"
    while not run.attempted or run.elapsed() < min(run.seconds, RUN_BUDGET_S / 3):
        run.do_pass(baseline_mode)
        run.do_pass("traced")
    traced = run.passes.get("traced", [])
    plain = run.passes.get(baseline_mode, [])
    if not traced or not plain:
        raise WorkerFailed("no traced pass finished")
    layers = [t["trace"]["layers"] for t in traced]
    counts = [{name: rows.get(name, {}).get("calls", 0) for name in LAYERS} for rows in layers]
    if any(c != counts[0] for c in counts):
        run.failed += 1
        run.errors.append("traced call counts differ between passes")
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (counts[0][name], "count")
    for name in LAYERS:
        self_s = [rows.get(name, {}).get("self_s", 0.0) for rows in layers]
        metrics[f"{name}.self_s"] = (_median(self_s), "s")
    subcats = traced[0].get("subcategories", 0)
    waste = counts[0]["serial.dims"] / subcats if subcats else 0.0
    metrics["serial.dims_per_subcat"] = (waste, "ratio")
    for bucket in ("short", "long"):
        per_call = [
            1e6 * total / calls
            for calls, total in (t["trace"]["hom_ext_buckets"][bucket] for t in traced)
            if calls
        ]
        metrics[f"wpl.hom_ext.us_per_call.{bucket}"] = (_median(per_call), "us")
    interp = [time_start("pass") for _ in range(FLOOR_STARTS)]
    imported = [time_start("import wpcalc.cli") for _ in range(FLOOR_STARTS)]
    metrics["cli.interp_s"] = (_median(interp), "s")
    metrics["cli.import_s"] = (_median(imported) - _median(interp), "s")
    exit2 = [x for t in traced for x in t.get("exit2_lat_s", [])]
    metrics["cli.exit2_p50_ms"] = (1000 * _median(exit2), "ms")
    ratio = sum(filter(None, best_per_op(traced))) / sum(filter(None, best_per_op(plain)))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, {
        "traced passes": len(traced),
        "untraced passes": len(plain),
        "exit2 samples": len(exit2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wpcalc", "__init__.py")):
        print(f"error: no wpcalc sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, notes = per_layer(run) if args.trace else end_to_end(run)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} wall={run.elapsed():.1f}s")
    print("  " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"  error_rate = {error_rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
    for err in run.errors[:10]:
        print(f"  failure: {err}")
    aliases = ALIASES.get(args.workload, {})
    for name, (value, unit) in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name} = {value:.6g} {unit}{alias}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
