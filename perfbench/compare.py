"""Compare two result files of suite.py, for example parent and change.

    python3 perfbench/compare.py perfbench/results/base.json perfbench/results/change.json

For each workload and end-to-end metric it prints both medians with their
quartiles, the ratio change/base, and a verdict against the metric's bound
in BENCHMARK.json:

- ``met``: the change's median is no worse than the base's by more than the
  bound, and the base's own spread (quartile distance over median) is within
  the bound;
- ``unresolved``: the base's spread is wider than the bound, so a difference
  within it cannot be told from noise, unless every run of the change beats
  every run of the base;
- ``broken``: the change's median is worse by more than the bound.

Per-layer metrics of traced runs are printed with their ratio only.  Each
workload's failed / attempted counts close its block.
"""

from __future__ import annotations

import argparse
import json
import sys

from suite import load_spec, summarize


def load(path):
    with open(path) as fh:
        return json.load(fh)


def verdict(base_runs, new_runs, name, better, bound, b, n):
    _, bmed, _, bspread, _ = b
    _, nmed, _, _, _ = n
    worse = (nmed - bmed) / bmed if better == "lower" else (bmed - nmed) / bmed
    if worse > bound:
        return "broken"
    if bspread > bound:
        bv = [r["metrics"][name]["value"] for r in base_runs]
        nv = [r["metrics"][name]["value"] for r in new_runs]
        all_better = max(nv) < min(bv) if better == "lower" else min(nv) > max(bv)
        return "met" if all_better else "unresolved"
    return "met"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = load_spec()
    base, new = load(args.base), load(args.change)
    for key in ("nproc", "python", "numpy", "scipy", "git_sha"):
        print(f"{key:8s} base {base['environment'][key]}  change {new['environment'][key]}")

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = [m["name"] for m in spec["per_layer"]]
    bsum = summarize(base["runs"], list(e2e) + layer)
    nsum = summarize(new["runs"], list(e2e) + layer)
    broken = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        print(f"\n{wl}")
        print(f"  {'metric':46s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'ratio':>7s}  verdict")
        for name in list(e2e) + layer:
            b, n = bsum.get((wl, name)), nsum.get((wl, name))
            if b is None or n is None:
                continue
            ratio = n[1] / b[1] if b[1] else float("nan")
            if name in e2e:
                runs = lambda res: [r for r in res["runs"]
                                    if r["workload"] == wl and name in r["metrics"]]
                v = verdict(runs(base), runs(new), name, e2e[name]["better"],
                            e2e[name]["bound"], b, n)
                broken += v == "broken"
                v = f"{v} (bound {e2e[name]['bound']})"
            else:
                v = ""
            fmt = lambda s: f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}] {s[4]}"
            print(f"  {name:46s} {fmt(b):>34s} {fmt(n):>34s} {ratio:7.3f}  {v}")
        for label, res in (("base", base), ("change", new)):
            rows = [r for r in res["runs"] if r["workload"] == wl]
            print(f"  {label}: {sum(r['failed'] for r in rows)} failed of "
                  f"{sum(r['attempted'] for r in rows)} attempted")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
