"""Run one workload of the orlicalc benchmark and print its result.

    python3 perfbench/run.py --workload norms --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded Python process (worker.py) that imports orlicalc from the
checkout's ``src``.  Set-up is measured SETUP_SPAWNS times per run, as the
wall time from spawning a worker until it has imported orlicalc and built
its inputs, scaled to the reference speed by the calibration loop the
worker runs right after (see worker.py); the last of these workers goes on
to measure.  The last line of standard output is the JSON result; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SPAWNS = 5
DEADLINE_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, setup_only, t_stop):
    """Start a worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(t_stop - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        scale = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or not scale.startswith("SCALE ") or code != 0:
        raise WorkerFailed(f"worker exited with code {code} "
                           f"(ready line {ready.strip()!r})")
    setup_s *= float(scale.split()[1])
    if setup_only:
        return setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if not lines:
        raise WorkerFailed("worker printed no result")
    return setup_s, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_stop = perf_counter() + DEADLINE_S
    setups = []
    try:
        # the traced run reports no set-up time, so it spawns once
        for _ in range(0 if args.trace else SETUP_SPAWNS - 1):
            setups.append(spawn(args, True, t_stop)[0])
        setup_s, result = spawn(args, False, t_stop)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
