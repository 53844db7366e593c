"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --label seed --seeds 10 --seconds 20

For every workload, runs ``run.py`` once per seed (1..N) with tracing off
and prints, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over the median) against the metric's bound
in ``BENCHMARK.json``.  Then makes one traced run per workload.  With
``--label`` everything is written to ``perfbench/results/BENCH_<label>.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="write perfbench/results/BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    out = {
        "label": args.label,
        "commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "seeds": list(seeds),
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        rows = {}
        for name in runs[0]["metrics"]:
            rows[name] = summarize([r["metrics"][name]["value"] for r in runs])
            rows[name]["unit"] = runs[0]["metrics"][name]["unit"]
        out["end_to_end"][workload] = {
            "failed": failed,
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": rows,
        }
        print(f"{workload}: {len(runs)} runs, {failed} failed ops")
        for name, row in rows.items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:12s} median {row['median']:.6g} {row['unit']}"
                  f"  spread {row['spread']:.3f} (bound {bounds[name]}){flag}")
            print("    " + " ".join(f"{v:.4g}" for v in row["values"]))
        sys.stdout.flush()
    for workload in workloads:
        r = run_once(workload, 1, seconds, 1)
        out["per_layer"][workload] = {name: m["value"] for name, m in r["metrics"].items()}
        ratio = out["per_layer"][workload]["trace.overhead_ratio"]
        print(f"{workload} traced: overhead {ratio:.3f}")
    if args.label:
        path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
