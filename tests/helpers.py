"""Shared generators and brute-force oracles for the test suite."""

import math

import numpy as np

from orlicalc.monotone import (
    INF, MonotoneFn, NUMERIC_DESC, _power_segment_integral, geometric_grid)
from orlicalc.rearrangement import _char_profile, maximal


def scan_right_inverse(fn, s, taus):
    """sup{tau : F(tau) <= s} by direct scan over a dense tau grid."""
    vals = fn(taus)
    ok = vals <= s
    return float(taus[ok][-1]) if ok.any() else 0.0


def scan_left_inverse(fn, s, taus):
    """inf{tau : F(tau) >= s} by direct scan over a dense tau grid."""
    vals = fn(taus)
    ok = vals >= s
    return float(taus[ok][0]) if ok.any() else INF


def random_step_monotone(rng, n_max=12, with_plateaus=True):
    """A random non-decreasing step-ish table with numeric-only tails."""
    n = rng.integers(3, n_max + 1)
    t = np.sort(rng.uniform(-3, 3, size=n))
    t = 10.0 ** t
    t = np.unique(t)
    inc = rng.uniform(0.0 if with_plateaus else 0.05, 1.0, size=t.size)
    if with_plateaus:
        inc[rng.random(t.size) < 0.3] = 0.0
    v = 0.1 * 10.0 ** rng.uniform(-2, 2) + np.cumsum(inc)
    return MonotoneFn(t, v, NUMERIC_DESC, NUMERIC_DESC)


def dense_taus(lo=1e-6, hi=1e6, n=120001):
    return np.geomspace(lo, hi, n)


# -- one-scale-at-a-time references for the batched Luxemburg search ----------


def sequential_least_admissible_scale(ok, start, rel_tol):
    """The scale search one scalar predicate call at a time: bracket by
    halving or doubling (the step squares itself past start * 2**64), then
    bisect the log scale."""
    b = start
    if ok(b):
        a = b
        while True:
            a /= 2.0
            if a < 1e-300:
                return 0.0
            if not ok(a):
                break
        b = 2.0 * a
    else:
        step = 2.0
        while True:
            if b >= 1e300:
                return INF
            a = b
            if b > start * 2.0 ** 64:
                step *= step
            b = min(b * step, 1e300)
            if ok(b):
                break
    while b / a > 1.0 + rel_tol:
        mid = math.sqrt(a * b)
        if not a < mid < b:
            mid = math.sqrt(a) * math.sqrt(b)
        if ok(mid):
            b = mid
        else:
            a = mid
    return b


def scalar_tail_modular(A, tail, scale):
    """Integral of A(scale * tail profile) over (0, width) at one scale."""
    c = scale * tail.coef
    u0 = c * tail.width ** (-tail.expo)
    w_exp = -1.0 / tail.expo - 1.0
    base = A.base
    t = base.t[base.t > u0]
    pts = np.concatenate(([u0], t))
    vals = A(pts)
    if np.isinf(vals).any():
        return INF
    seg = _power_segment_integral(vals[:-1], vals[1:], pts[:-1], pts[1:], w_exp)
    total = float(np.sum(seg))
    hi = pts[-1]
    ext = geometric_grid(hi, hi * 1e30, 8)
    ve = A(ext)
    if np.isinf(ve).any():
        return INF
    seg2 = _power_segment_integral(ve[:-1], ve[1:], ext[:-1], ext[1:], w_exp)
    total += float(np.sum(seg2))
    p_eff = base.inf_desc.p if base.inf_desc.kind == "power-log" else base._edge_slope_inf()
    if p_eff + w_exp + 1.0 >= 0:
        return INF
    total += float(ve[-1] * ext[-1] ** (w_exp + 1.0) / -(p_eff + w_exp + 1.0))
    return (c ** (1.0 / tail.expo) / tail.expo) * total


def scalar_modular(f, A, scale=1.0):
    """The modular at one scale: a running sum over the pieces in order,
    plus the tail."""
    if f.is_zero:
        return 0.0
    total = 0.0
    if f.pieces:
        values, widths = np.array(f.pieces).T
        av = A.integral_value(scale * values) if hasattr(A, "integral_value") \
            else A(scale * values)
        if np.isinf(av).any():
            return INF
        total = float(np.cumsum(av * widths)[-1])
    if f.tail is not None:
        total += scalar_tail_modular(A, f.tail, scale)
    return total


def sequential_luxemburg_norm(f, A, rel_tol=1e-10):
    """inf{lam : modular(f / lam) <= 1}, one scale per modular call."""
    if f.is_zero:
        return 0.0
    start = max(f.sup_value(), 1.0)
    if math.isinf(start):
        start = 1.0
    return sequential_least_admissible_scale(
        lambda lam: scalar_modular(f, A, 1.0 / lam) <= 1.0, start, rel_tol)


def pointwise_average(avg, x):
    """Reference for AveragedDecreasing.__call__: one scalar point, found by a
    scan over the pieces."""
    if x <= 0:
        return INF if avg.pieces else 0.0
    for p in avg.pieces:
        if p.lo <= x < p.hi:
            if p.kind == "hyperbolic":
                return p.c1 + p.c2 / x
            return p.c1 * x ** p.c2
    return avg.total / x


def loop_marcinkiewicz(f, A, tol=1e-12):
    """The golden-section reference for marcinkiewicz_norm: one piece at a
    time, scalar calls for the grid samples, and a search in log t around
    the best one, from 1e-12 * width near 0 to 1e8 * support."""
    if f.is_zero:
        return 0.0
    phi = _char_profile(A)
    avg = maximal(f)

    def h(t):
        return phi(t) * pointwise_average(avg, t)

    if not np.isfinite(avg.total):
        return INF
    best = 0.0
    pieces = [(p.lo, p.hi) for p in avg.pieces]
    if avg.support > 0:
        pieces.append((avg.support, avg.support * 1e8))
    for p_lo, p_hi in pieces:
        lo = p_lo if p_lo > 0 else min(p_hi, avg.support) * 1e-12
        hi = p_hi if np.isfinite(p_hi) else avg.support * 1e8
        cand = np.sort(np.concatenate((phi.t[(phi.t > lo) & (phi.t < hi)], [lo, hi])))
        vals = [h(float(c)) for c in cand]
        k = int(np.argmax(vals))
        best = max(best, vals[k])
        a = float(cand[max(k - 1, 0)])
        b = float(cand[min(k + 1, len(cand) - 1)])
        a, b = min(a, b), max(a, b)
        if a <= 0 or b <= a:
            continue
        la, lb = math.log(a), math.log(b)
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = lb - gr * (lb - la)
        x2 = la + gr * (lb - la)
        f1, f2 = h(math.exp(x1)), h(math.exp(x2))
        while lb - la > tol:
            if f1 < f2:
                la, x1, f1 = x1, x2, f2
                x2 = la + gr * (lb - la)
                f2 = h(math.exp(x2))
            else:
                lb, x2, f2 = x2, x1, f1
                x1 = lb - gr * (lb - la)
                f1 = h(math.exp(x1))
        best = max(best, f1, f2)
    return float(best)
