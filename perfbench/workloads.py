"""The three workloads: their seeded inputs, their operations and the check
of each operation's output.

A workload is a list of rounds; a round is a list of operations that the
closed loop runs one after another.  Round ``r`` of seed ``s`` is drawn from
``numpy.random.default_rng([s, r])``, so every run of a seed sees the same
inputs, and every round has the same shape: the same number of operations
of each kind, and the same known-failing queries.  The program only ever
receives these generated inputs; it is driven through ``orlicalc.cli.main``
and the public functions of its modules, always looked up on the module at
call time so that the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import orlicalc.cli as cli
import orlicalc.diagonality as diagonality
import orlicalc.rearrangement as rearrangement
import orlicalc.young as young
from orlicalc.monotone import MonotoneFn, geometric_grid

import reference as ref

# Operation kinds that have an end-to-end metric of their own.
KIND_METRIC = {
    "luxemburg": "luxemburg_ms",
    "lambda": "lambda_ms",
    "marcinkiewicz": "marcinkiewicz_ms",
    "maximal_target": "maximal_target_ms",
    "symbolic": "symbolic_query_ms",
    "gap": "gap_ms",
    "witness": "witness_ms",
}

# Tolerances, with the reason for each in README.md.
POWER_RTOL = 1e-9        # closed forms for t**p
TAIL_RTOL = 1e-6         # closed forms with a power tail (numeric tail sums)
EXP1_RTOL = 1e-3         # exp_young(1) against its brentq root
CHAIN_RTOL = 1e-3        # lambda >= luxemburg >= marcinkiewicz
CONJ_RTOL = 1e-9         # conj of t**p
CONJ_EXP_RTOL = 2e-4     # conj of e**t - 1 - t, a table
CLI_RTOL = 1e-9          # CLI values with closed forms
LEVEL_RATIO = 4.0        # generators "on the level of" t**p, up to this ratio


class CheckFailed(AssertionError):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def close(got, want, rtol, what):
    ok = (got == want) if math.isinf(want) else abs(got - want) <= rtol * abs(want)
    expect(ok, f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")


@dataclass
class Op:
    kind: str                          # a KIND_METRIC key, or "other"
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]       # raises on a wrong answer
    known_fault: Optional[str] = None  # why this query fails today


# -- shared input builders ---------------------------------------------------


def rng_for(seed, r):
    return np.random.default_rng([seed, r])


def random_steps(rng, n, vmax=10.0):
    vals = rng.uniform(0.01, vmax, size=n)
    widths = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    return [(float(v), float(w)) for v, w in zip(vals, widths)]


def profile_steps(rng, n):
    """n geometric steps of s**-a on (lo, lo * 10**decades)."""
    decades = 4 if n >= 128 else 3
    lo = 10.0 ** rng.uniform(-4.5, -3.5)
    a = rng.uniform(0.1, 0.6)
    f = rearrangement.from_profile(lambda s: s ** -a, lo, lo * 10.0 ** decades,
                                   per_decade=n // decades)
    return list(f.pieces)


def power_tail(rng, steps, p):
    """A tail with expo * p < 1 that sits above every step.  Exponents stay
    above 0.2: below, lambda_norm turns NaN for power-log generators (see
    ``power_log_tail_lambda``)."""
    expo = rng.uniform(0.2, 0.8 / p)
    width = 10.0 ** rng.uniform(-3.0, -1.0)
    top = max(v for v, _ in steps)
    coef = top * width ** expo * rng.uniform(1.0, 2.0)
    return (float(coef), float(expo), float(width))


def sampled(steps, tail=None):
    pt = rearrangement.PowerTail(*tail) if tail else None
    return rearrangement.SampledFn(steps, tail=pt)


# -- norms ------------------------------------------------------------------

# (generator class, piece count, piece source, with a power tail)
NORM_SLOTS = [
    ("power", 1, "steps", False),
    ("exp1", 4, "steps", False),
    ("power-log", 12, "steps", True),
    ("table", 24, "steps", False),
    ("exp1", 48, "profile", False),
    ("power", 160, "profile", True),
]


def random_table_young(rng):
    """A table-class generator: the integral of c1 t**q1 + c2 t**q2 sampled
    at 32 points a decade, with numeric-only descriptors."""
    t = geometric_grid(1e-4, 1e4, 32)
    q = rng.uniform(0.2, 3.0, size=2)
    c = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
    return young.young_from_derivative(
        MonotoneFn(t, (c[:, None] * t[None, :] ** q[:, None]).sum(axis=0)))


def make_generator(kind, rng):
    if kind == "power":
        p = float(rng.uniform(1.2, 3.0))
        return young.power_young(p), p
    if kind == "power-log":
        # the ranges of tests/test_young.py, with p < 3 for the tail's sake;
        # the derivative stays monotone
        p = float(rng.uniform(1.2, 3.0))
        a0 = float(rng.uniform(-1.5, min(1.5, p - 1.0)))
        ai = float(rng.uniform(max(-1.5, 1.0 - p), 1.5))
        return young.power_log_young(p, alpha_zero=a0, alpha_inf=ai), p
    if kind == "exp1":
        return young.exp_young(1.0), None
    return random_table_young(rng), None


def coarse_table_indicator():
    """The three norms of an indicator must be equal; with a coarse table
    generator they are not, because ``A(x)`` interpolates the value table
    while ``integral_value`` integrates the derivative table."""
    t = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])
    A = young.young_from_derivative(
        MonotoneFn(t, np.array([0.1, 0.2, 1.0, 1.5, 4.0, 5.0, 9.0])))
    ops = norm_ops("coarse-table/indicator", A, None, "table", [(1.0, 0.5)], None,
                   indicator=True)
    ops[2].known_fault = ("A(x) and integral_value disagree between the nodes "
                          "of a coarse table")
    return ops


def power_log_tail_lambda():
    """The Lambda norm of a power tail with a small exponent under a
    generator with a log factor at infinity must be finite; it is NaN."""
    A = young.power_log_young(2.0, alpha_zero=0.0, alpha_inf=0.5)
    f = rearrangement.SampledFn([], tail=rearrangement.PowerTail(1.0, 0.13, 0.0025))

    def check(val):
        expect(0 < val < math.inf, f"lambda {val!r} not positive finite")

    return Op("lambda", "lambda power-log/tail expo 0.13",
              lambda: rearrangement.lambda_norm(f, A), check,
              known_fault="phi of the tail's subnormal level measures is inf")


def norms_round(seed, r):
    rng = rng_for(seed, r)
    ops = []
    for gkind, n, source, with_tail in NORM_SLOTS:
        A, p = make_generator(gkind, rng)
        steps = random_steps(rng, n) if source == "steps" else profile_steps(rng, n)
        tail = power_tail(rng, steps, p) if with_tail else None
        ops.extend(norm_ops(f"{gkind}/{n}{'+tail' if tail else ''}", A, p,
                            gkind, steps, tail))
    return ops + coarse_table_indicator() + [power_log_tail_lambda()]


def norm_ops(label, A, p, gkind, steps, tail, indicator=False):
    """Luxemburg, Lambda and Marcinkiewicz norms of one function; the last
    check also demands lambda >= luxemburg >= marcinkiewicz, or, for an
    indicator, that the three are equal."""
    f = sampled(steps, tail)
    seen = {}
    rtol = TAIL_RTOL if tail else POWER_RTOL

    def lux_check(val):
        seen["luxemburg"] = val
        if gkind == "power":
            close(val, ref.power_luxemburg(steps, p, tail), rtol, "luxemburg")
        elif gkind == "exp1":
            close(val, ref.exp1_luxemburg(steps), EXP1_RTOL, "luxemburg")
        expect(0 < val < math.inf, f"luxemburg {val!r} not positive finite")

    def lam_check(val):
        seen["lambda"] = val
        if gkind == "power":
            close(val, ref.power_lambda(steps, p, tail), rtol, "lambda")
        expect(0 < val < math.inf, f"lambda {val!r} not positive finite")

    def mar_check(val):
        if gkind == "power":
            close(val, ref.power_marcinkiewicz(steps, p, tail), rtol,
                  "marcinkiewicz")
        expect(0 < val < math.inf, f"marcinkiewicz {val!r} not positive finite")
        lux, lam = seen.get("luxemburg"), seen.get("lambda")
        if lux is None or lam is None:
            return
        if indicator:
            expect(max(lux, lam, val) <= min(lux, lam, val) * (1 + CHAIN_RTOL),
                   f"indicator norms differ: lambda {lam!r}, luxemburg {lux!r}, "
                   f"marcinkiewicz {val!r}")
        else:
            expect(lam >= lux * (1 - CHAIN_RTOL) and lux >= val * (1 - CHAIN_RTOL),
                   f"chain lambda {lam!r} >= luxemburg {lux!r} >= "
                   f"marcinkiewicz {val!r} broken")

    R = rearrangement
    return [
        Op("luxemburg", f"luxemburg {label}", lambda: R.luxemburg_norm(f, A),
           lux_check),
        Op("lambda", f"lambda {label}", lambda: R.lambda_norm(f, A), lam_check),
        Op("marcinkiewicz", f"marcinkiewicz {label}",
           lambda: R.marcinkiewicz_norm(f, A), mar_check),
    ]


# -- decisions ---------------------------------------------------------------


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json"] + argv)
    return code, buf.getvalue()


def report_of(out, want_code=0):
    code, text = out
    expect(code == want_code, f"exit code {code}, want {want_code}: {text.strip()[:200]}")
    return json.loads(text)


def num(x):
    return math.inf if x == "inf" else float(x)


def js(obj):
    return json.dumps(obj, separators=(",", ":"))


def power_json(p):
    return js({"class": "power-log", "p": p})


def lorentz_json(p, q):
    return js({"family": "lorentz", "params": {"p": p, "q": q}})


def grid_of(report_young):
    g = np.array([[num(t), num(v)] for t, v in report_young["grid"]])
    return g[:, 0], g[:, 1]


def cli_op(kind, argv, check, known_fault=None):
    return Op(kind, " ".join(argv[:2]), lambda: run_cli(argv), check, known_fault)


def alternative_checks(n, p):
    ps = n * p / (n - p)

    def lebesgue(side, expo):
        def check(out):
            o = report_of(out)["outcome"]
            expect(o["result"] == "optimal", f"{side}: {o['result']}")
            expect(o["space"]["family"] == "lebesgue", f"{side}: {o['space']}")
            close(num(o["space"]["params"]["p"]), expo, CLI_RTOL, f"{side} exponent")
        return check

    def exp_target(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "optimal", f"exp target: {o['result']}")
        gamma = o["space"]["params"]["young"]["gamma"]
        close(float(gamma), n / (n - 1.0), CLI_RTOL, "exp target gamma")

    def none(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "no-optimal", f"domain L^({n},1): {o['result']}")

    lz = js({"family": "lorentz-zygmund", "params": {"p": "inf", "q": n, "alpha": -1}})
    return [
        cli_op("symbolic", ["alternative", "target", "--space", lorentz_json(ps, p)],
               lebesgue("target", ps)),
        cli_op("symbolic", ["alternative", "target", "--space", lz], exp_target),
        cli_op("symbolic", ["alternative", "domain", "--space", lorentz_json(p, ps)],
               lebesgue("domain", p)),
        cli_op("symbolic", ["alternative", "domain", "--space", lorentz_json(n, 1)],
               none),
    ]


def decisions_round(seed, r):
    rng = rng_for(seed, r)
    n = int(rng.integers(3, 7))
    p = float(rng.uniform(1.2, n - 0.3))
    ops = alternative_checks(n, p)

    # gradient embeddings: the growth-index gate and the target profile
    nm = ["--m", "1", "--n", str(n)]

    def sob_linfty(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "no-optimal", f"sobolev linfty: {o['result']}")
        close(float(o["evidence"]["witness"]), float(n), CLI_RTOL, "growth index")

    ps = float(rng.uniform(1.2, n - 0.3))
    q = n * ps / (n - ps)

    def sob_power(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "optimal", f"sobolev L^{q}: {o['result']}")
        close(float(o["evidence"]["witness"]), ps, CLI_RTOL, "growth index")

    pt = float(rng.uniform(1.2, n - 0.3))

    def sob_target(out):
        o = report_of(out)["outcome"]
        expect(o["condition"]["status"] == "holds", f"condition {o['condition']}")
        for t, v in o["target_profile"].items():
            close(num(v), float(t) ** (1.0 / pt - 1.0 / n), CLI_RTOL,
                  f"target profile at {t}")

    ops += [
        cli_op("symbolic", ["sobolev", "domain", "--target", "linfty"] + nm, sob_linfty),
        cli_op("symbolic", ["sobolev", "domain", "--target", power_json(q)] + nm,
               sob_power),
        cli_op("other", ["sobolev", "target", "--space",
                         js({"family": "lebesgue", "params": {"p": pt}})] + nm,
               sob_target),
    ]

    # the maximal operator, at the exponents of acceptance criterion 6; the
    # decision flips on the last bits of p (FOUND in CHANGES.md), so seeded
    # exponents would fail on some seeds only
    def max_target(pm):
        def check(out):
            o = report_of(out)["outcome"]
            expect(o["result"] == "optimal", f"maximal target t^{pm}: {o['result']}")
            t, v = grid_of(o["space"]["params"]["young"])
            win = (t >= 1e-3) & (t <= 1e3)
            ratio = v[win] / t[win] ** pm
            expect(win.sum() >= 10 and ratio.max() <= LEVEL_RATIO * ratio.min(),
                   f"maximal target t^{pm} off level: ratio in "
                   f"[{ratio.min():.4g}, {ratio.max():.4g}]")
        return check

    def max_target_l1(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "no-optimal", f"maximal target t: {o['result']}")

    for pm in (1.5, 2.0, 3.0):
        ops.append(cli_op("maximal_target",
                          ["maximal", "target", "--young", power_json(pm)],
                          max_target(pm)))
    ops.append(cli_op("maximal_target", ["maximal", "target", "--young",
                                         power_json(1)], max_target_l1))
    ops.append(cli_op("maximal_target", ["maximal", "target", "--young",
                                         power_json(4)], max_target(4.0),
                      known_fault="maximal target of t^p reports no-optimal "
                                  "(tail regime fails) for p in (3, 5)"))

    pd = float(rng.uniform(1.2, 3.0))

    def max_domain(out):
        o = report_of(out)["outcome"]
        expect(o["result"] == "optimal", f"maximal domain t^{pd}: {o['result']}")
        t, v = grid_of(o["space"]["params"]["young"])
        win = (t >= 1e-4) & (t <= 1e4)
        np_ok = np.allclose(v[win], t[win] ** pd / (pd - 1.0), rtol=1e-6)
        expect(win.any() and np_ok, f"maximal domain t^{pd} differs from t^p/(p-1)")

    ops.append(cli_op("other", ["maximal", "domain", "--young", power_json(pd)],
                      max_domain))

    # the exponential-kernel transform: a smallest target exactly for p in [1, 2]
    for pl, want in ((float(rng.uniform(1.0, 2.0)), "optimal"),
                     (float(rng.uniform(2.2, 4.0)), "no-optimal")):
        def lap(out, pl=pl, want=want):
            o = report_of(out)["outcome"]
            expect(o["result"] == want, f"laplace t^{pl}: {o['result']}, want {want}")
        ops.append(cli_op("other", ["laplace", "target", "--young", power_json(pl)],
                          lap))

    # sub-diagonality of Lorentz spaces: uniform iff q <= p
    pg = float(rng.uniform(1.5, 4.0))
    for qq, want in ((float(rng.uniform(1.0, pg)), "uniformly-sub-diagonal"),
                     (float(rng.uniform(pg * 1.05, 8.0)), "not-sub-diagonal")):
        def diag(out, qq=qq, want=want):
            st = report_of(out)["outcome"]["status"]
            expect(st == want, f"diag L^({pg},{qq}): {st}, want {want}")
        ops.append(cli_op("symbolic", ["diag", "--space", lorentz_json(pg, qq)], diag))

    # dilation order of powers: t^lo sits below t^hi near infinity, not near 0
    hi_p = float(rng.uniform(2.0, 4.0))
    lo_p = float(rng.uniform(1.0, hi_p - 0.5))
    for regime, want in (("near-infinity", "holds"), ("near-zero", "fails")):
        def dom(out, regime=regime, want=want):
            st = report_of(out)["outcome"]["status"]
            expect(st == want, f"dominates {regime}: {st}, want {want}")
        ops.append(cli_op("symbolic", ["dominates", "--young", power_json(hi_p),
                                       "--below", power_json(lo_p),
                                       "--regime", regime], dom))

    # conjugates, inverses, fundamental functions against closed forms
    pts = np.round(10.0 ** rng.uniform(-2.0, 2.0, size=3), 6)
    at = ",".join(repr(float(x)) for x in pts)
    pc = float(rng.uniform(1.3, 4.0))

    def values_check(fn, rtol, what):
        def check(out):
            vals = report_of(out)["outcome"]["values"]
            expect(len(vals) == len(pts), f"{what}: {len(vals)} values")
            for k, v in vals.items():
                close(num(v), fn(float(k)), rtol, f"{what} at {k}")
        return check

    ops += [
        cli_op("other", ["conj", "--young", power_json(pc), "--at", at],
               values_check(lambda s: ref.conj_power(pc, s), CONJ_RTOL, "conj t^p")),
        cli_op("other", ["conj", "--young", js({"class": "exponential", "gamma": 1}),
                         "--at", at],
               values_check(ref.conj_exp1, CONJ_EXP_RTOL, "conj exp")),
        cli_op("other", ["inverse", "--young", power_json(pc), "--at", at],
               values_check(lambda s: s ** (1.0 / pc), CLI_RTOL, "inverse t^p")),
    ]
    pf, qf = float(rng.uniform(1.5, 5.0)), float(rng.uniform(1.0, 6.0))
    upts = np.round(10.0 ** rng.uniform(-5.0, 0.0, size=3), 8)
    ops.append(cli_op("other", ["fundamental", "--space", lorentz_json(pf, qf),
                                "--at", ",".join(repr(float(x)) for x in upts)],
                      values_check(lambda t: t ** (1.0 / pf), CLI_RTOL,
                                   "fundamental L^(p,q)")))

    # norms, witness and lift on small seeded step functions
    steps = random_steps(rng, int(rng.integers(2, 6)))
    fn = js({"pieces": [[v, w] for v, w in steps]})
    pn = float(rng.uniform(1.2, 4.0))

    def value_check(want, what):
        def check(out):
            close(num(report_of(out)["outcome"]["value"]), want, CLI_RTOL, what)
        return check

    def witness(out):
        c = num(report_of(out)["outcome"]["certificate_at_unit_scale"])
        expect(c <= 1.0 + 1e-9, f"witness certificate {c!r} > 1 + 1e-9")

    ops += [
        cli_op("other", ["norm", "--space",
                         js({"family": "lebesgue", "params": {"p": pn}}), "--fn", fn],
               value_check(ref.lp_norm(steps, pn), "norm L^p")),
        cli_op("other", ["norm", "--space",
                         js({"family": "orlicz",
                             "params": {"young": {"class": "power-log", "p": pn}}}),
                         "--fn", fn],
               value_check(ref.power_luxemburg(steps, pn), "norm Orlicz t^p")),
        cli_op("other", ["witness", "--generator", power_json(pn), "--fn", fn],
               witness),
        cli_op("other", ["lift", "--young", power_json(2), "--space",
                         js({"family": "lebesgue", "params": {"p": 1}}), "--fn", fn],
               value_check(ref.lp_norm(steps, 2.0), "lift t^2 over L^1")),
    ]
    return ops + known_failing_queries()


_RELOADED = {}


def reloaded_conj(young_json):
    """The JSON function that ``conj`` prints for ``young_json``."""
    if young_json not in _RELOADED:
        code, text = run_cli(["conj", "--young", young_json, "--at", "1"])
        if code != 0:
            raise RuntimeError(f"conj {young_json} exited {code}: {text}")
        _RELOADED[young_json] = js(json.loads(text)["outcome"]["function"])
    return _RELOADED[young_json]


def known_failing_queries():
    """Queries with a known correct answer that the program gets wrong
    today; each fails on every run until the fault is mended."""

    def conj_values(want, what):
        def check(out):
            vals = report_of(out)["outcome"]["values"]
            for (k, v), w in zip(vals.items(), want):
                close(num(v), w, CONJ_RTOL, f"{what} at {k}")
        return check

    def lz_profile(out):
        vals = report_of(out)["outcome"]["values"]
        t = np.array([float(k) for k in vals])
        v = np.array([num(x) for x in vals.values()])
        expect(np.all(np.diff(v) >= 0), "profile not non-decreasing")
        ratio = v / (t ** 0.5 * (1.0 - np.log(t)))
        expect(ratio.max() <= LEVEL_RATIO * ratio.min(), "profile off level")

    table = js({"class": "table", "grid": [[1, 1], [2, 4], [4, 16]]})
    linfty2 = reloaded_conj(js({"class": "linfty", "threshold": 2}))
    exp1 = reloaded_conj(js({"class": "exponential", "gamma": 1}))
    lz = js({"family": "lorentz-zygmund", "params": {"p": 2, "q": 2, "alpha": 1}})
    return [
        cli_op("other", ["conj", "--young", table, "--at", "0.5,1,2"],
               conj_values([0.0625, 0.25, 1.0], "conj of sampled t^2"),
               known_fault="young_from_values rejects coarse convex data"),
        cli_op("other", ["conj", "--young", linfty2, "--at", "1,3"],
               conj_values([0.0, math.inf], "double conj of linfty(2)"),
               known_fault="the double conjugate of linfty(2) loses its threshold"),
        cli_op("other", ["conj", "--young", exp1, "--at", "65000"],
               conj_values([math.inf], "double conj of exp"),
               known_fault="integral_value beyond the grid raises OverflowError"),
        cli_op("other", ["fundamental", "--space", lz], lz_profile,
               known_fault="t^(1/p)(1-log t)^alpha decreases near 1 for "
                           "alpha > 1/p"),
    ]


# -- certificates -------------------------------------------------------------

_CERT_GENS = {}


def cert_generators():
    """The generator sets of the threshold inequality and of the witness."""
    if not _CERT_GENS:
        A_set = [young.power_young(1.5), young.power_young(2.0),
                 young.power_young(3.0), young.exp_young(1.0), young.linfty_young()]
        E_set = [young.QuasiConvexFn(g.base) for g in A_set[:4]]
        _CERT_GENS.update(A=A_set, E=E_set)
    return _CERT_GENS["A"], _CERT_GENS["E"]


def random_small(rng, n, vmax=10.0):
    vals = rng.uniform(0.01, vmax, size=n)
    widths = 10.0 ** rng.uniform(-2.0, 1.5, size=n)
    return rearrangement.SampledFn(list(zip(vals, widths)))


def certificates_round(seed, r):
    rng = rng_for(seed, r)
    A_set, E_set = cert_generators()
    ops = []
    # every (A, G) pair of the threshold inequality once per round, each with
    # a weight v, a function f and a scale lam drawn as in criterion 10; the
    # piece counts (up to 3 for v, 5 for f) cycle instead of being drawn, so
    # that every round holds the same amount of work
    finite = []
    for i, (A, G) in enumerate((A, G) for A in A_set for G in A_set[:4]):
        v = random_small(rng, 1 + i % 3, vmax=3.0)
        f = random_small(rng, 1 + i % 5)
        lam = float(10.0 ** rng.uniform(-1.5, 1.5))
        ops.append(gap_op(A, G, v, f, lam, finite))
    ops[-1].check = non_vacuous(ops[-1].check, finite)
    # every endpoint generator of the witness once per round, as in
    # criterion 9, with 2, 4, 6 and 8 pieces
    for e, E in enumerate(E_set):
        ops.append(witness_op(E, random_small(rng, 2 + 2 * e)))
    return ops


MIN_FINITE_RHS = 6   # 30% of the rows, as in criterion 10


def non_vacuous(check, finite):
    """The last gap check of a round also demands that enough of the
    round's rows had a finite right side to test the inequality."""
    def wrapped(out):
        check(out)
        n = sum(finite[-20:])
        finite.clear()
        expect(n >= MIN_FINITE_RHS, f"only {n} of 20 rows had a finite rhs")
    return wrapped


def gap_op(A, G, v, f, lam, finite):
    D = diagonality

    def check(out):
        lhs, rhs = out
        finite.append(math.isfinite(rhs))
        if math.isfinite(rhs):
            expect(lhs <= rhs * (1 + 1e-12) + 1e-12, f"lhs {lhs!r} > rhs {rhs!r}")
        else:
            expect(math.isfinite(lhs) or f.is_zero, f"lhs {lhs!r} with infinite rhs")

    return Op("gap", "ol_inequality_gap",
              lambda: D.ol_inequality_gap(A, G, v, f, lam), check)


def witness_op(E, f):
    D, R = diagonality, rearrangement

    def call():
        A = D.construct_witness_young(f, E)
        return A, D.orlicz_lambda_Nlambda(A, E, 1.0)

    def check(out):
        A, n1 = out
        lamE = R.lambda_norm(f, E)
        m = R.modular(f, A, scale=1.0 / (2.0 * lamE))
        expect(m <= 1.0 + 1e-12, f"modular at 1/(2 lam_E) is {m!r} > 1")
        lux = R.luxemburg_norm(f, A)
        expect(lux <= 2.0 * lamE * (1 + 1e-9), f"luxemburg {lux!r} > 2 lam_E")
        expect(n1 <= 1.0 + 1e-9, f"certificate {n1!r} > 1 + 1e-9")

    return Op("witness", "witness + certificate", call, check)


WORKLOADS = {"norms": norms_round, "decisions": decisions_round,
             "certificates": certificates_round}


PROBES_PER_KIND = 2
PROBE_SEED = 0


def probe_ops(workload):
    """The first PROBES_PER_KIND operations of each kind that ``workload``
    lacks, from round 0 of the workload that owns the kind, so that every
    run reports every end-to-end metric.  Their seed is fixed: a probe
    metric then times the same work in every run."""
    ops = []
    for owner in WORKLOADS:
        if owner == workload:
            continue
        mine = [op for op in WORKLOADS[owner](PROBE_SEED, 0)
                if op.kind in KIND_METRIC and op.known_fault is None]
        for kind in dict.fromkeys(op.kind for op in mine):
            ops += [op for op in mine if op.kind == kind][:PROBES_PER_KIND]
    return ops
