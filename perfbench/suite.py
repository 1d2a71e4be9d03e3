"""Run every workload of the benchmark over several seeds, check every
output, print each metric by name with its unit, and write a result file.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/results/base.json
    python3 perfbench/suite.py --seeds 1-3 --trace        # adds traced runs

Each run is ``run.py`` in its own process, one after another.  The result
file holds every run's metrics plus the machine (``nproc``), the Python,
numpy and scipy versions and the git SHA, and is what compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment():
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=200)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, names):
    """Per workload and metric: (q1, median, q3, spread, unit)."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == wl]
        for name in names:
            vals = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
            if not vals:
                continue
            unit = next(r["metrics"][name]["unit"] for r in rows if name in r["metrics"])
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            out[(wl, name)] = (q1, med, q3, spread, unit)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", action="store_true", help="also run each seed traced")
    ap.add_argument("--out", help="result file to write")
    args = ap.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            for trace in ((0, 1) if args.trace else (0,)):
                res = run_once(wl, seed, seconds, trace)
                res.update(workload=wl, seed=seed, trace=trace)
                runs.append(res)
    report = {"environment": environment(), "seconds": seconds, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':13s} {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}  unit")
    names = list(e2e) + [m["name"] for m in spec["per_layer"]]
    for (wl, name), (q1, med, q3, spread, unit) in summarize(runs, names).items():
        bound = e2e[name]["bound"] if name in e2e else None
        print(f"{wl:13s} {name:46s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}"
              f" {bound if bound is not None else '':>6}  {unit}")
    for wl in workloads:
        rows = [r for r in runs if r["workload"] == wl]
        print(f"{wl}: {sum(r['failed'] for r in rows)} failed of "
              f"{sum(r['attempted'] for r in rows)} attempted; "
              f"correct in {sum(r['correct'] for r in rows)} of {len(rows)} runs")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
