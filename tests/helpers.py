"""Shared generators and brute-force oracles for the test suite."""

import math

import numpy as np

from scipy import special

from orlicalc.monotone import (
    INF, MonotoneFn, NUMERIC_DESC, _power_segment_integral, geometric_grid)
from orlicalc.operators import (
    _BLOCK, _exp_weight_cutoffs, _exp_weight_tail, _gamma_integral, _log_gamma_diff)
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


# -- the mask-per-case evaluation that the segment table replaced -------------


def reference_eval(fn, x):
    """F(x) as MonotoneFn evaluated before its segment table: a boolean mask
    and a gather per case, on every call.  Defined for x >= 0 or +inf."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xq = np.atleast_1d(arr)
    out = np.empty_like(xq)
    m_zero = xq == 0.0
    m_inf = np.isinf(xq)
    out[m_zero] = fn.value_at_zero
    out[m_inf] = fn.value_at_inf
    m_mid = ~(m_zero | m_inf)
    if m_mid.any():
        out[m_mid] = _reference_eval_positive(fn, xq[m_mid])
    return float(out[0]) if scalar else out


def _reference_eval_positive(fn, x):
    t = fn.t
    out = np.empty_like(x)
    lo = x < t[0]
    hi = x > t[-1]
    mid = ~(lo | hi)
    if mid.any():
        out[mid] = _reference_interp(fn, x[mid])
    if lo.any():
        out[lo] = fn._tail_zero(x[lo])
    if hi.any():
        out[hi] = fn._tail_inf(x[hi])
    return out


def _reference_interp(fn, x):
    t, v = fn.t, fn.v
    if t.size == 1:
        return np.full_like(x, v[0])
    idx = np.searchsorted(t, x, side="right") - 1
    idx = np.clip(idx, 0, t.size - 2)
    tl, tr = t[idx], t[idx + 1]
    vl, vr = v[idx], v[idx + 1]
    out = np.empty_like(x)
    jump = np.isinf(vr)
    hit_left = x <= tl
    out[jump & hit_left] = vl[jump & hit_left]
    out[jump & ~hit_left] = INF
    ramp = (vl == 0.0) & np.isfinite(vr) & (vr > 0.0)
    if ramp.any():
        out[ramp] = vr[ramp] * (x[ramp] - tl[ramp]) / (tr[ramp] - tl[ramp])
    flat0 = (vl == 0.0) & (vr == 0.0)
    out[flat0] = 0.0
    pw = (vl > 0.0) & np.isfinite(vr)
    if pw.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.where(vr[pw] == vl[pw], 0.0,
                         np.log(vr[pw] / vl[pw]) / np.log(tr[pw] / tl[pw]))
            out[pw] = vl[pw] * np.exp(s * np.log(x[pw] / tl[pw]))
    exact_l = x == tl
    out[exact_l] = vl[exact_l]
    exact_r = x == tr
    out[exact_r] = vr[exact_r]
    return out


# -- the exponential-weight transform before its head and ramp trims ----------


def reference_exp_weight_transform(F, t_grid=None, cutoff=50.0):
    """exp_weight_transform with a geomspace call per block for the head
    refinements and masked gathers for the ramp and power segments."""
    if t_grid is None:
        t_grid = geometric_grid(1e-8, 1e8, 16)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.full(t_grid.shape, INF)
    if F.t_inf < INF:
        return t_grid, out
    cut = _exp_weight_cutoffs(F.inf_desc, t_grid, cutoff)
    live = np.flatnonzero(np.isfinite(cut))
    step = max(1, _BLOCK // F.t.size)
    for lo in range(0, live.size, step):
        idx = live[lo:lo + step]
        out[idx] = _reference_exp_weight_block(F, t_grid[idx], cut[idx], cutoff)
    return t_grid, out


def _reference_exp_weight_block(F, t, cut, cutoff):
    n = t.size
    taus, rows = _reference_tau_breakpoints(F.t, t, cut)
    vals = F(t[rows] * taus)
    bounds = np.searchsorted(rows, np.arange(n + 1))
    bad = np.zeros(n, dtype=bool)
    bad[rows[np.isinf(vals)]] = True
    seg = (rows[:-1] == rows[1:]) & (vals[1:] > 0) & (taus[1:] > taus[:-1])
    if bad.any():
        seg &= ~bad[rows[:-1]]
    a, b, va, vb = taus[:-1][seg], taus[1:][seg], vals[:-1][seg], vals[1:][seg]
    seg_rows = rows[:-1][seg]
    ramp = va == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ar, br = a[ramp], b[ramp]
        c = vb[ramp] / (br - ar)
        ramp_pieces = c * (_gamma_integral(1.0, ar, br)
                           - ar * _gamma_integral(0.0, ar, br))
        pw = ~ramp
        a, b, va, vb = a[pw], b[pw], va[pw], vb[pw]
        sigma = np.where(vb == va, 0.0, np.log(vb / va) / np.log(b / a))
        log_piece = (np.log(va) - sigma * np.log(a)
                     + special.gammaln(sigma + 1.0) + _log_gamma_diff(sigma, a, b))
        pieces = np.exp(log_piece)
    pw_rows = seg_rows[pw]
    bad[pw_rows[~np.isfinite(pieces)]] = True
    ramp_bounds = np.searchsorted(seg_rows[ramp], np.arange(n + 1))
    pw_bounds = np.searchsorted(pw_rows, np.arange(n + 1))
    total = np.empty(n)
    for i in range(n):
        total[i] = (float(np.sum(ramp_pieces[ramp_bounds[i]:ramp_bounds[i + 1]]))
                    + float(np.sum(pieces[pw_bounds[i]:pw_bounds[i + 1]])))
    tail = _exp_weight_tail(F.inf_desc, vals[bounds[1:] - 1], cut, cutoff)
    total += tail
    total[bad | np.isinf(tail)] = INF
    return total


def _reference_tau_breakpoints(grid, t, cut):
    n = t.size
    inner = grid[None, :] / t[:, None]
    inside = (inner > 0) & (inner < cut[:, None])
    first = inner[np.arange(n), inside.argmax(axis=1)]
    b_head = np.where(inside.any(axis=1), first, cut)
    head = np.geomspace(b_head * 1e-12, b_head, 120, axis=1)
    table = np.concatenate((np.zeros((n, 1)), head, inner, cut[:, None]), axis=1)
    keep = np.concatenate((np.ones((n, 121), dtype=bool), inside,
                           np.ones((n, 1), dtype=bool)), axis=1)
    taus = table[keep]
    rows = np.repeat(np.arange(n), keep.sum(axis=1))
    new = np.ones(taus.size, dtype=bool)
    new[1:] = (taus[1:] != taus[:-1]) | (rows[1:] != rows[:-1])
    return taus[new], rows[new]


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


def loop_rearrange(f):
    """The rearrangement one piece at a time: a sort by value, then equal
    values merged into a running width.  Returns (values, widths)."""
    pieces = sorted((p for p in f.pieces if p[0] > 0.0), key=lambda p: -p[0])
    values, widths = [], []
    for v, w in pieces:
        if values and v == values[-1]:
            widths[-1] += w
        else:
            values.append(v)
            widths.append(w)
    return values, widths


def loop_maximal(f):
    """The averaged rearrangement one piece at a time, as (lo, hi, power,
    c1, c2) per piece and the total integral."""
    values, widths = loop_rearrange(f)
    pieces = []
    acc = 0.0
    lo = 0.0
    if f.tail:
        t = f.tail
        if t.expo >= 1.0:
            return [(0.0, INF, False, INF, 0.0)], INF
        pieces.append((0.0, t.width, True, t.coef / (1.0 - t.expo), -t.expo))
        acc = t.coef * t.width ** (1.0 - t.expo) / (1.0 - t.expo)
        lo = t.width
    for v, w in zip(values, widths):
        hi = lo + w
        pieces.append((lo, hi, False, v, acc - v * lo))
        acc += v * w
        lo = hi
    return pieces, acc


def averaged_pieces(avg):
    """The pieces of an AveragedDecreasing as (lo, hi, power, c1, c2)."""
    lo = np.append(0.0, avg.hi[:-1])
    return list(zip(lo.tolist(), avg.hi.tolist(), avg.power.tolist(),
                    avg.c1.tolist(), avg.c2.tolist()))


def pointwise_average(avg, x):
    """Reference for AveragedDecreasing.__call__: one scalar point, found by a
    scan over the pieces."""
    pieces = averaged_pieces(avg)
    if x <= 0:
        return INF if pieces else 0.0
    for lo, hi, power, c1, c2 in pieces:
        if lo <= x < hi:
            return c1 * x ** c2 if power else c1 + c2 / x
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
    pieces = [(p[0], p[1]) for p in averaged_pieces(avg)]
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
