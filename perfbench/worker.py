"""One workload in one fresh process: import orlicalc, build the inputs,
say READY, then run the closed loop and print one JSON result line.

Started by run.py, which times the spawn-to-READY set-up and sets the
single-thread environment.  Operation times are wall times of the program
call alone; checking the output is the client's think time and is not
timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import orlicalc  # noqa: E402  (from SRC, checked in main)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

POOL_ROUNDS = 16     # distinct rounds built at set-up; a longer run cycles them
CAL_REF_S = 0.8e-3   # calibrate()'s typical mean in a run, on the machine of README.md
CAL_SETUP_N = 100    # calibration loops right after set-up, to scale setup_s
# At least 8 rounds: op_tail_ms needs 40 operations, and in norms its rank
# (the 11th slowest) must fall among the two 160-piece norms of each round.
MIN_ROUNDS = 8
PROBE_MIN_S = 0.02   # a probe faster than this is repeated, up to 10 times


class Ledger:
    """Operation times by kind, and the attempted / failed counts of the
    workload's own operations (probes are timed but not counted)."""

    def __init__(self):
        self.times = defaultdict(list)
        self.own_times = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []     # failures of operations with no known fault
        self.fixed = set()       # known-failing operations that passed

    def record(self, op, dt, error, counted=True):
        self.times[op.kind].append(dt)
        if counted:
            self.own_times.append(dt)
            self.attempted += 1
            self.failed += error is not None
        if error is not None and op.known_fault is None:
            self.unexpected.append(f"{op.label}: {error}")
        if error is None and op.known_fault is not None:
            self.fixed.add(op.label)


_CAL_T = np.geomspace(1e-3, 1e3, 200)
_CAL_V = _CAL_T ** 2.0


def calibrate():
    """A fixed mix of small numpy calls and interpreted arithmetic, like
    orlicalc's scalar paths, timed next to every operation: its mean over a
    run measures how fast the machine ran during that run."""
    t0 = perf_counter()
    s = 0.0
    for i in range(40):
        x = np.atleast_1d(np.asarray(0.5 + 0.01 * i))
        k = int(np.searchsorted(_CAL_T, x)[0])
        lt, lv = np.log(_CAL_T[k - 1:k + 1]), np.log(_CAL_V[k - 1:k + 1])
        s += float(np.exp(lv[0] + (np.log(x) - lt[0]) * (lv[1] - lv[0])
                          / (lt[1] - lt[0]))[0])
        for j in range(100):
            s += (i * j) % 7
    return perf_counter() - t0


def run_op(op, ledger, tracer=None, counted=True):
    if tracer:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = op.call()
        error = None
    except Exception:        # a crash in the program is a failed operation
        out, error = None, "raised " + traceback.format_exc(limit=-1).strip()
    dt = perf_counter() - t0
    if tracer:
        tracer.active = False
    if error is None:
        try:
            op.check(out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    ledger.record(op, dt, error, counted)
    return dt


def tail(times):
    """The highest order statistic with at least ten operations above it."""
    s = sorted(times)
    return s[len(s) - 11]


def untraced(pool, probes, seconds):
    """Run rounds, each followed by the probes, until the time is up.  A
    fast probe runs again, back to back, to gather enough samples.  The
    calibration loop runs before every operation; every time metric is
    scaled by CAL_REF_S over its mean, to the reference machine's speed."""
    ledger = Ledger()
    cal = []
    r = 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or r < MIN_ROUNDS:
        for op in pool[r % len(pool)]:
            cal.append(calibrate())
            run_op(op, ledger)
        for op in probes:
            cal.append(calibrate())
            dt = run_op(op, ledger, counted=False)
            for _ in range(min(int(PROBE_MIN_S / dt), 10) - 1):
                run_op(op, ledger, counted=False)
        r += 1
    scale = CAL_REF_S / statistics.fmean(cal)
    own = ledger.own_times
    metrics = {
        "ops_per_s": (len(own) / (sum(own) * scale), "op/s"),
        "op_p50_ms": (statistics.median(own) * scale * 1e3, "ms"),
        "op_tail_ms": (tail(own) * scale * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    for kind, name in workloads.KIND_METRIC.items():
        metrics[name] = (statistics.fmean(ledger.times[kind]) * scale * 1e3, "ms")
    print(f"speed scale {scale:.4f}: raw ops_per_s {len(own) / sum(own):.4g}, "
          f"raw op_p50_ms {statistics.median(own) * 1e3:.4g}", file=sys.stderr)
    return ledger, r, metrics


def traced(pool, seconds):
    """Run each round twice, plain and traced, alternating which goes first,
    until the time is up and both orders have run; the per-layer metrics
    come from the traced runs and the tracing overhead from comparing the
    two."""
    tr = tracing.Tracer()
    ledger = Ledger()
    plain_s = traced_s = 0.0
    n_traced = 0
    r = 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or r < 2:
        ops = pool[r % len(pool)]
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if with_trace:
                tr.install()
                try:
                    traced_s += sum(run_op(op, ledger, tr) for op in ops)
                finally:
                    tr.uninstall()
                n_traced += len(ops)
            else:
                plain_s += sum(run_op(op, ledger) for op in ops)
        r += 1
    units = tracing.per_layer_units()
    metrics = {k: (v, units[k]) for k, v in tr.metrics(n_traced).items()}
    plain_rate, traced_rate = n_traced / plain_s, n_traced / traced_s
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "op/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "op/s")
    metrics["trace.overhead_pct"] = ((plain_rate - traced_rate) / plain_rate * 100.0,
                                     "%")
    return ledger, r, metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.abspath(orlicalc.__file__).startswith(SRC + os.sep):
        print(f"orlicalc was imported from {orlicalc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pool = [workloads.WORKLOADS[args.workload](args.seed, r) for r in range(POOL_ROUNDS)]
    probes = [] if args.trace else workloads.probe_ops(args.workload)
    print("READY", flush=True)
    cal = statistics.fmean(calibrate() for _ in range(CAL_SETUP_N))
    print(f"SCALE {CAL_REF_S / cal!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        ledger, rounds, metrics = traced(pool, args.seconds)
    else:
        ledger, rounds, metrics = untraced(pool, probes, args.seconds)
    for msg in ledger.unexpected[:20]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    for label in sorted(ledger.fixed):
        print(f"known-failing query now passes: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": rounds,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
