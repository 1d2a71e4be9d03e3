"""Shared generators and brute-force oracles for the test suite."""

import math
import sys

import numpy as np

from scipy import special

import mpmath as mp

from orlicalc.monotone import (
    EXPONENTIAL, INF, INFINITE_BEYOND, ZERO_ON_INTERVAL, MonotoneFn, NUMERIC_DESC, _TINY,
    _integral_off_grid, _log_mass_from_end, _log_quotient, _power_increment,
    _power_segment_integral, geometric_grid)
from orlicalc.operators import _BLOCK, _exp_weight_cutoffs, _exp_weight_tail
from orlicalc.diagonality import _outer_chunks, build_gw
from orlicalc.rearrangement import SampledFn, lambda_norm, maximal, modular, rearrange
from orlicalc.young import _desc_to_json, _integral_above_grid, _num_to_json


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
        # where a ratio overflows (or underflows), its log is the difference
        # of the logs of its terms, and where vl e**y overflows it is
        # e**(log vl + y)
        def log_of_ratio(a, b):
            q = a / b
            return np.where(np.isfinite(q) & (q > 0.0), np.log(q), np.log(a) - np.log(b))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.where(vr[pw] == vl[pw], 0.0,
                         log_of_ratio(vr[pw], vl[pw]) / log_of_ratio(tr[pw], tl[pw]))
            y = s * log_of_ratio(x[pw], tl[pw])
            val = vl[pw] * np.exp(y)
            far = np.isinf(val)
            val[far] = np.exp(np.log(vl[pw][far]) + y[far])
            out[pw] = val
    exact_l = x == tl
    out[exact_l] = vl[exact_l]
    exact_r = x == tr
    out[exact_r] = vr[exact_r]
    return out


# -- the segment and A(x) kernels before their one-pass fast paths ------------


def reference_power_segment_integral(vl, vr, tl, tr, weight_exp=0.0):
    """Exact integral of the log-log interpolant times t**weight_exp over
    [tl, tr], one mask and one gather per class of segment on every call:
    degenerate, +inf, zero-zero, ramp, and power segments, whose ratios are
    taken from logs where they leave the float range.  Takes arguments of
    one shape, or all scalars."""
    vl = np.asarray(vl, dtype=float)
    vr = np.asarray(vr, dtype=float)
    tl = np.asarray(tl, dtype=float)
    tr = np.asarray(tr, dtype=float)
    out = np.zeros(np.broadcast(vl, vr, tl, tr).shape)
    degenerate = np.broadcast_to(tr <= tl, out.shape)
    inf_seg = (np.isinf(vl) | np.isinf(vr)) & ~degenerate
    out[inf_seg] = INF
    zz = (vl == 0.0) & (vr == 0.0)
    ramp = (vl == 0.0) & (vr > 0.0) & ~inf_seg
    pw = (vl > 0.0) & ~inf_seg
    if ramp.any():
        w = weight_exp
        a, b = tl[ramp], tr[ramp]
        c = vr[ramp] / (b - a)
        if w == 0.0:
            out[ramp] = 0.5 * c * (b - a) ** 2
        else:
            log_r = np.log(b / a)
            with np.errstate(over="ignore"):
                scale = vr[ramp] * np.exp((w + 2.0) * np.log(a) - np.log(b - a))
            out[ramp] = scale * (_power_increment(w + 2.0, log_r) - _power_increment(w + 1.0, log_r))
    if pw.any():
        a, b = tl[pw], tr[pw]
        va, vb = vl[pw], vr[pw]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            log_r = np.log(b / a)
            s = np.where(vb == va, 0.0, np.log(vb / va) / log_r)
            far = ~np.isfinite(s * log_r) | (va < _TINY)
            if far.any():
                log_r[far] = _log_quotient(b[far], a[far])
                s[far] = np.where(vb[far] == va[far], 0.0,
                                  _log_quotient(vb[far], va[far]) / log_r[far])
            e = s + weight_exp + 1.0
            coef = va * a ** (weight_exp + 1.0)
            res = np.where(np.abs(e) < 1e-12,
                           coef * log_r,
                           coef * (np.exp(e * log_r) - 1.0) / np.where(e == 0.0, 1.0, e))
            right = far & (e >= 1e-12)
            if right.any():
                er = e[right]
                res[right] = (vb[right] * b[right] ** (weight_exp + 1.0)
                              * -np.expm1(-er * log_r[right]) / er)
        out[pw] = res
    out[zz] = 0.0
    out[degenerate] = 0.0
    return out


def reference_exact_value(A, x):
    """A(x) for a 1-d array x, one mask per class of point on every call:
    0 at x <= 0, A's value at +inf, the head and tail off the derivative's
    grid, and on it the table value at the node to the left plus the
    segment's integral up to x (:func:`reference_power_segment_integral`)."""
    a, base = A.derivative, A.base
    t = a.t
    out = np.full_like(x, np.nan)
    out[x <= 0.0] = 0.0
    out[x == INF] = base.value_at_inf
    head = (x > 0.0) & (x < t[0])
    if head.any():
        out[head] = _integral_off_grid(a, x[head], 0.0, True)
    tail = (x > t[-1]) & (x < INF)
    if tail.any():
        out[tail] = _integral_above_grid(A, x[tail])
    grid = (x >= t[0]) & (x <= t[-1])
    if grid.any():
        xg = x[grid]
        i = np.searchsorted(t, xg, side="right") - 1
        out[grid] = base.v[i] + reference_power_segment_integral(a.v[i], a(xg), t[i], xg)
    return out


# -- the per-row table writer that the array pass replaced ---------------------


def reference_table_to_json(fn, prefix):
    """young._table_to_json with one conversion per number."""
    return {
        prefix + "grid": [[float(t), _num_to_json(v)] for t, v in zip(fn.t, fn.v)],
        prefix + "zero_desc": _desc_to_json(fn.zero_desc),
        prefix + "inf_desc": _desc_to_json(fn.inf_desc),
        prefix + "value_at_zero": _num_to_json(fn.value_at_zero),
        prefix + "value_at_inf": _num_to_json(fn.value_at_inf),
    }


# -- the exponential-weight transform before its head and ramp trims ----------


def reference_exp_weight_transform(F, t_grid=None, cutoff=50.0, closed_head=False):
    """exp_weight_transform of a table that it integrates as it stands, with
    a geomspace call per block for the 120 head points below the first node
    (or, with ``closed_head``, F's zero-end power integrated in closed form
    from 0 to the first node) and masked gathers for the ramp and power
    segments."""
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
        out[idx] = _reference_exp_weight_block(F, t_grid[idx], cut[idx], cutoff,
                                               closed_head)
    return t_grid, out


def two_branch_log_gamma_mass(s, a, b):
    """log of the integral of v**(s - 1) e**-v over [a, b] for s > 0, from
    scipy's regularized incomplete gammas with both differences evaluated
    on every element: of Q where a >= s or b = inf, of P elsewhere; where
    that difference underflows, the kernel's form from the larger end."""
    s, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, a, b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where((a >= s) | (b == INF),
                        special.gammaincc(s, a) - special.gammaincc(s, b),
                        special.gammainc(s, b) - special.gammainc(s, a))
        out = np.asarray(special.gammaln(s) + np.log(np.maximum(diff, 0.0)))
    low = (s > 0) & (diff < np.finfo(float).tiny) & (a < b) & ((a > s) | (b < s))
    out[low] = _log_mass_from_end(s[low], a[low], b[low])
    return out


def _reference_exp_weight_block(F, t, cut, cutoff, closed_head):
    n = t.size
    taus, rows = _reference_tau_breakpoints(F.t, t, cut, closed_head)
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
        ramp_pieces = c * (np.exp(two_branch_log_gamma_mass(2.0, ar, br))
                           - ar * np.exp(two_branch_log_gamma_mass(1.0, ar, br)))
        pw = ~ramp
        a, b, va, vb = a[pw], b[pw], va[pw], vb[pw]
        sigma = np.where(vb == va, 0.0, np.log(vb / va) / np.log(b / a))
        log_piece = (np.log(va) - sigma * np.log(a)
                     + two_branch_log_gamma_mass(sigma + 1.0, a, b))
        pieces = np.exp(log_piece)
    pw_rows = seg_rows[pw]
    bad[pw_rows[~np.isfinite(pieces)]] = True
    ramp_bounds = np.searchsorted(seg_rows[ramp], np.arange(n + 1))
    pw_bounds = np.searchsorted(pw_rows, np.arange(n + 1))
    total = np.empty(n)
    for i in range(n):
        total[i] = (float(np.sum(ramp_pieces[ramp_bounds[i]:ramp_bounds[i + 1]]))
                    + float(np.sum(pieces[pw_bounds[i]:pw_bounds[i + 1]])))
    if closed_head:
        p = F.power_log_form(True)[0]
        b, vb = taus[bounds[:-1]], vals[bounds[:-1]]
        total += vb * np.exp(two_branch_log_gamma_mass(p + 1.0, 0.0, b) - p * np.log(b))
    tail = _exp_weight_tail(F.inf_desc, vals[bounds[1:] - 1], cut, cutoff)
    total += tail
    total[bad | np.isinf(tail)] = INF
    return total


def _reference_tau_breakpoints(grid, t, cut, closed_head):
    n = t.size
    inner = grid[None, :] / t[:, None]
    inside = (inner > 0) & (inner < cut[:, None])
    first = inner[np.arange(n), inside.argmax(axis=1)]
    b_head = np.where(inside.any(axis=1), first, cut)
    head = (b_head[:, None] if closed_head else
            np.concatenate((np.zeros((n, 1)), np.geomspace(b_head * 1e-12, b_head, 120, axis=1)),
                           axis=1))
    table = np.concatenate((head, inner, cut[:, None]), axis=1)
    keep = np.concatenate((np.ones(head.shape, dtype=bool), inside,
                           np.ones((n, 1), dtype=bool)), axis=1)
    taus = table[keep]
    rows = np.repeat(np.arange(n), keep.sum(axis=1))
    new = np.ones(taus.size, dtype=bool)
    new[1:] = (taus[1:] != taus[:-1]) | (rows[1:] != rows[:-1])
    return taus[new], rows[new]


# -- one-scale-at-a-time references for the batched Luxemburg search ----------


def sequential_least_admissible_scale(ok, start, rel_tol):
    """The scale search one scalar predicate call at a time: bracket by
    halving or doubling (the step squares itself past start * 2**64), with
    one last rung at the least normal float below 1e-300 and at the largest
    float past 1e300, then bisect the log scale."""
    b = start
    if ok(b):
        a = b
        while True:
            b, a = a, a / 2.0
            if a < 1e-300:
                a = sys.float_info.min
                if ok(a):
                    return 0.0
                break
            if not ok(a):
                break
    else:
        step = 2.0
        while True:
            if b >= 1e300:
                a, b = b, sys.float_info.max
                if not ok(b):
                    return INF
                break
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


def reference_tail_modular(A, tail, scale, dps=40, a_u0=None):
    """The modular of the tail alone at one scale, at ``dps`` digits, by
    parts on the exact A.  With u0 = scale * coef * width**-expo it is
    width * (A(u0) + u0**(1/expo) * integral of a(u) u**(-1/expo) over
    u > u0) for a Young function with derivative a, A(u0) being the
    integral of a over (0, u0), or ``a_u0`` where that is given;
    (width / expo) * u0**(1/expo) times the integral of F(u)
    u**(-1/expo - 1) over u > u0 for a quasi-convex table F.  See
    :func:`mp_table_integral` for how each integral is taken."""
    with mp.workdps(dps):
        e = mp.mpf(tail.expo)
        u0 = mp.mpf(scale) * tail.coef * mp.mpf(tail.width) ** -e
        if hasattr(A, "derivative"):
            a = A.derivative
            head = mp_table_integral(a, 0, u0, 0) if a_u0 is None else mp.mpf(a_u0)
            return tail.width * (head + u0 ** (1 / e) * mp_table_integral(a, u0, mp.inf, -1 / e))
        return tail.width / e * u0 ** (1 / e) * mp_table_integral(
            A.base, u0, mp.inf, -1 / e - 1)


def mp_table_integral(fn, lo, hi, w):
    """The integral of F(u) u**w over (lo, hi) at the working precision, for
    a MonotoneFn F: each log-log segment of the table in closed form (a
    zero-left ramp by quadrature), and off the table the descriptor's
    power-log form (:meth:`MonotoneFn.power_log_form`) by quadrature in
    log u; +inf where an infinite value or an exponential end is reached."""
    t = [mp.mpf(x) for x in fn.t.tolist()]
    v = fn.v.tolist()
    lo, hi, w = mp.mpf(lo), mp.mpf(hi), mp.mpf(w)
    total = mp.mpf(0)
    if lo < t[0] and fn.zero_desc.kind != ZERO_ON_INTERVAL:
        total += _mp_off_grid(fn, True, lo, min(hi, t[0]), w)
    for i in range(len(t) - 1):
        a, b = max(lo, t[i]), min(hi, t[i + 1])
        if a >= b or v[i + 1] == 0.0:
            continue
        if math.isinf(v[i + 1]):
            return mp.inf
        vl, vr = mp.mpf(v[i]), mp.mpf(v[i + 1])
        if vl == 0:
            total += mp.quad(lambda u: vr * (u - t[i]) / (t[i + 1] - t[i]) * u ** w, [a, b])
            continue
        s = mp.log(vr / vl) / mp.log(t[i + 1] / t[i])
        k = s + w + 1
        total += vl * t[i] ** -s * (mp.log(b / a) if k == 0 else (b ** k - a ** k) / k)
    if hi > t[-1]:
        d = fn.inf_desc
        if math.isinf(v[-1]) or d.kind in (EXPONENTIAL, INFINITE_BEYOND):
            return mp.inf
        total += _mp_off_grid(fn, False, max(lo, t[-1]), hi, w)
    return total


def _mp_off_grid(fn, zero_side, lo, hi, w):
    """The integral of F(u) u**w over (lo, hi) off the table, where F is
    va (u / anchor)**p m**alpha, m = 1 + slope x, x = log(u / anchor): the
    integral of e**(k x) m**alpha over x, k = p + w + 1.  Without a log
    factor that is (e**(k x1) - e**(k x0)) / k; with one and c = -k / slope
    > 0 it is e**c c**(-alpha - 1) / |slope| times the incomplete gamma of
    alpha + 1 between c m at the two ends.  A finite range where c < 0 is
    integrated by quadrature split at 1, 2, 4, ... units of 1 / |k| from
    the end where e**(k x) peaks."""
    form = fn.power_log_form(zero_side)
    if form is None:
        return mp.mpf(0)
    p, alpha, anchor, slope, va = (mp.mpf(x) for x in form)
    k = p + w + 1
    x0 = mp.log(lo / anchor) if lo > 0 else -mp.inf
    x1 = mp.log(hi / anchor) if hi < mp.inf else mp.inf
    c = -k / slope
    if alpha == 0:
        part = x1 - x0 if k == 0 else (mp.exp(k * x1) - mp.exp(k * x0)) / k
    elif c > 0:
        m = sorted(c * (1 + slope * x) for x in (x0, x1))
        part = mp.exp(c) * c ** (-alpha - 1) * mp.gammainc(alpha + 1, *m) / abs(slope)
    elif mp.isfinite(x0) and mp.isfinite(x1):
        peak, step = (x1, -1) if k > 0 else (x0, 1)
        pts = [peak + step * 2 ** j / max(abs(k), 1) for j in range(16)]
        part = mp.quad(lambda x: mp.exp(k * x) * (1 + slope * x) ** alpha,
                       sorted([x0, x1] + [x for x in pts if x0 < x < x1]))
    else:
        return mp.inf
    return va * anchor ** (w + 1) * part


def scalar_modular(f, A, scale=1.0):
    """The modular at one scale: a running sum over the pieces in order,
    plus the tail, as the tail alone gives it at that scale."""
    if f.is_zero:
        return 0.0
    total = 0.0
    if f.pieces:
        values, widths = np.array(f.pieces).T
        av = A(scale * values)
        if np.isinf(av).any():
            return INF
        total = float(np.cumsum(av * widths)[-1])
    if f.tail is not None:
        total += modular(SampledFn([], tail=f.tail), A, scale)
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
    phi = A.char_profile
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


# -- the per-piece loops that the step-function arrays replaced ---------------


def loop_distribution(f):
    """lambda -> |{|f| > lambda}| as the step and tail classes computed it:
    a search in the ascending values, the measure above the last value
    passed, and the tail's (coef / lambda)**(1/expo) above its edge."""
    star = rearrange(f)

    def step(q):
        out = np.zeros_like(q)
        if star.values.size:
            asc = star.values[::-1]
            count_gt = star.values.size - np.searchsorted(asc, q, side="right")
            pos = count_gt > 0
            out[pos] = star.breaks[1:][count_gt[pos] - 1]
        return out

    def d(lam):
        arr = np.asarray(lam, dtype=float)
        q = np.atleast_1d(arr)
        if star.tail is None:
            out = step(q)
        else:
            t = star.tail
            out = np.zeros_like(q)
            hi = q >= t.value_at(t.width)
            out[hi] = (t.coef / np.maximum(q[hi], 1e-300)) ** (1.0 / t.expo)
            out[~hi] = np.maximum(step(q[~hi]), t.width)
        return float(out[0]) if arr.ndim == 0 else out

    return d


def loop_lambda_norm(f, A):
    """lambda_norm with the step values accumulated one at a time."""
    if f.is_zero:
        return 0.0
    phi = A.char_profile
    star = rearrange(f)
    total = 0.0
    prev_value = 0.0
    vals = star.values[::-1]
    for v, phi_m in zip(vals, phi(star.breaks[1:][::-1])):
        total += (v - prev_value) * phi_m
        prev_value = v
    if star.tail is not None:
        total = loop_lambda_tail(phi, star.tail, total, prev_value)
    return total


def loop_lambda_tail(phi, t, total, prev_value):
    """``total`` plus the tail's part of lambda_norm, one segment of phi at a
    time: the thresholds up to the tail's top see its whole width, and above
    it the measure m = (coef / lambda)**(1 / expo) turns them into expo coef
    times the integral of phi(m) m**(-expo - 1) over (0, width): phi's head
    below its first node, then each segment up to width, then geometric
    segments past its last node."""
    total += (t.value_at(t.width) - prev_value) * phi(t.width)
    w = -t.expo - 1.0
    integral = float(_integral_off_grid(phi, [min(t.width, phi.t[0])], w, True)[0])
    ends = [x for x in phi.t.tolist() if x < t.width]
    ends += (geometric_grid(phi.t[-1], t.width)[1:].tolist() if t.width > phi.t[-1]
             else [t.width])
    for tl, tr in zip(ends, ends[1:]):
        integral += float(_power_segment_integral(phi(tl), phi(tr), tl, tr, w))
    return total + t.expo * t.coef * integral


def loop_classical_lorentz_norm(f, w, q):
    """classical_lorentz_norm one weight step at a time, each step summing
    its overlaps with the pieces of f* one at a time."""
    if f.is_zero:
        return 0.0
    star = rearrange(f)
    total = 0.0
    pos = 0.0
    for wv, ww in w.pieces:
        lo, hi = pos, pos + ww
        pos = hi
        if wv == 0.0:
            continue
        total += wv * _loop_power_integral(star, lo, hi, q)
        if math.isinf(total):
            return INF
    return total ** (1.0 / q)


def _loop_power_integral(star, lo, hi, q):
    total = 0.0
    if star.tail:
        t = star.tail
        a, b = max(lo, 0.0), min(hi, t.width)
        if b > a:
            e = 1.0 - q * t.expo
            if a == 0.0 and e <= 0:
                return INF
            if e == 0.0:
                total += t.coef ** q * math.log(b / max(a, 1e-300))
            else:
                total += t.coef ** q * (b ** e - (a ** e if a > 0 else 0.0)) / e
    for v, plo, phi_ in zip(star.values, star.breaks[:-1], star.breaks[1:]):
        a, b = max(lo, plo), min(hi, phi_)
        if b > a:
            total += v ** q * (b - a)
    return total


def loop_pairing(f, g):
    """pairing with each function laid out one piece at a time."""
    fb = np.concatenate(([0.0], np.cumsum([w for _, w in f.pieces])))
    gb = np.concatenate(([0.0], np.cumsum([w for _, w in g.pieces])))
    edges = np.unique(np.concatenate((fb, gb)))
    return float(np.sum(_loop_layout(f, edges) * _loop_layout(g, edges) * np.diff(edges)))


def _loop_layout(f, edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.zeros_like(mids)
    pos = 0.0
    for v, w in f.pieces:
        lo, hi = pos, pos + w
        pos = hi
        m = (mids >= lo) & (mids < hi)
        vals[m] = v
    return vals


def loop_classical_lorentz_fundamental(w, q):
    """The nodes and values of the classical Lorentz fundamental function,
    the weight's mass accumulated one step at a time."""
    breaks = [0.0]
    vals = [0.0]
    acc = 0.0
    for wv, ww in w.pieces:
        acc += wv * ww
        breaks.append(breaks[-1] + ww)
        vals.append(acc)
    return np.asarray(breaks[1:]), np.asarray(vals[1:]) ** (1.0 / q)


def reference_outer_reciprocal(outer, table, c, lo=0.0, hi=INF):
    """integrate_outer_reciprocal as it was for one interval per call, a
    float: one array pass over the table's segments, then the residuals
    toward 0 and toward infinity."""
    t0, t1 = table.t[0], table.t[-1]
    lo_eff = max(lo, t0 * 1e-40)
    hi_eff = min(hi, t1 * 1e40)
    if hi_eff <= lo_eff:
        return 0.0
    parts = [np.asarray([lo_eff, hi_eff])]
    if lo_eff < t0 < hi_eff:
        parts.append(geometric_grid(lo_eff, t0, 8))
    inner_pts = table.t[(table.t > lo_eff) & (table.t < hi_eff)]
    parts.append(inner_pts)
    if lo_eff < t1 < hi_eff:
        parts.append(geometric_grid(t1, hi_eff, 8))
    edges = np.unique(np.concatenate(parts))
    tv = table(edges)
    # refine segments that cross a vanishing or an infinite table value
    trans = ((tv[:-1] == 0.0) & (tv[1:] > 0.0)) | \
            (np.isfinite(tv[:-1]) & (tv[:-1] > 0) & np.isinf(tv[1:]))
    if trans.any():
        k = np.flatnonzero(trans)
        extra = np.geomspace(edges[k] * (1 + 1e-12), edges[k + 1], 33)
        edges = np.unique(np.concatenate((edges, extra.ravel())))
        tv = table(edges)
    ta, tb = edges[:-1], edges[1:]
    va, vb = tv[:-1], tv[1:]
    with np.errstate(divide="ignore", over="ignore"):
        u_a, u_b = c / va, c / vb  # inner values at the edges (u_a >= u_b)
    # Where the table is 0 at both ends or at the left end (a leading sliver
    # of a ramp), or so small that c / va overflows (u_a = inf: conservative),
    # +inf at the left end (u_a = 0), +inf at the right end (the inner
    # argument falls from u_a to zero: bounded by its left edge) or where
    # u_a == u_b, the integrand is charged outer(u_a) over the whole segment.
    pieces = outer(u_a) * (tb - ta)
    chunked = np.isfinite(u_a) & np.isfinite(vb) & (u_a != u_b)
    pieces[chunked] = _outer_chunks(outer, ta[chunked], tb[chunked], va[chunked],
                                    vb[chunked], u_a[chunked], u_b[chunked])
    if np.isinf(pieces).any():
        return INF
    total = float(np.cumsum(pieces)[-1])  # left to right, segment by segment
    res = reference_residual_zero(outer, table, c, lo, lo_eff)
    if math.isinf(res):
        return INF
    total += res
    res = reference_residual_inf(outer, table, c, hi_eff, hi)
    if math.isinf(res):
        return INF
    return total + res


def _integrand_at(outer, table, c, t):
    v = float(table(t))
    if v == 0.0:
        return float(outer.value_at_inf)
    if np.isinf(v):
        return float(outer(0.0))
    return float(outer(c / v))


def reference_residual_zero(outer, table, c, lo, lo_eff):
    """reference_outer_reciprocal's residual of the composed integrand over
    (lo, lo_eff): classify the local power and integrate it; near-harmonic
    classes count as divergent."""
    if lo >= lo_eff or lo_eff <= 0:
        return 0.0
    o1 = _integrand_at(outer, table, c, lo_eff / 2.0)
    o2 = _integrand_at(outer, table, c, lo_eff)
    if math.isinf(o1) or math.isinf(o2):
        return INF
    if o1 == 0.0:
        return 0.0
    if o2 == 0.0 or o1 <= o2:
        return o2 * lo_eff  # bounded toward zero
    e = math.log(o2 / o1) / math.log(2.0)  # integrand ~ t**e toward zero
    if e <= -1.0 + 1e-9:
        return INF
    return o2 * lo_eff / (e + 1.0)


def reference_residual_inf(outer, table, c, hi_eff, hi):
    """reference_outer_reciprocal's residual toward infinity."""
    if hi <= hi_eff:
        return 0.0
    o1 = _integrand_at(outer, table, c, hi_eff / 2.0)
    o2 = _integrand_at(outer, table, c, hi_eff)
    if math.isinf(o2):
        return INF
    if o2 == 0.0:
        return 0.0
    if o1 <= o2 or o1 == 0.0:
        return INF if math.isinf(hi) else o2 * (hi - hi_eff)
    e = math.log(o2 / o1) / math.log(2.0)
    if e >= -1.0 - 1e-9:
        return INF if math.isinf(hi) else o2 * (hi - hi_eff)
    return o2 * hi_eff / (-e - 1.0)


def loop_ol_inequality_gap(A, G, v, f, lam):
    """ol_inequality_gap reading the weight through per-piece lists."""
    G_inv = G.base.left_inverse()
    g_inv = G.derivative.left_inverse()
    d = loop_distribution(f)
    weights = np.asarray([wv for wv, _ in v.pieces], dtype=float)
    breaks = np.concatenate(([0.0], np.cumsum([ww for _, ww in v.pieces])))
    value_knots = rearrange(f).values if f.pieces else np.asarray([])
    cuts = np.unique(np.clip(np.concatenate((breaks, value_knots)), 0.0, breaks[-1]))
    a, b = cuts[:-1], cuts[1:]
    w_cut = weights[np.searchsorted(breaks, a, side="right") - 1]
    on = w_cut != 0.0
    terms = G_inv(d(0.5 * (a[on] + b[on]))) * w_cut[on] * (b[on] - a[on])
    lhs = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    rhs = 0.0
    for wv, seg_lo, seg_hi in zip(weights, breaks[:-1], breaks[1:]):
        if wv == 0.0:
            continue
        piece = reference_outer_reciprocal(g_inv, A.derivative, wv / lam, seg_lo, seg_hi)
        if math.isinf(piece):
            return lhs, INF
        rhs += piece * wv
    mod = modular(f, A)
    if math.isinf(mod):
        return lhs, INF
    rhs += lam * mod
    return lhs, rhs


def loop_classical_lorentz_Nlambda(A, w, q, lam):
    """classical_lorentz_Nlambda with the thresholds gathered one weight step
    at a time and each derivative segment cut and summed on its own."""
    vals = [pv for pv, _ in w.pieces]
    if any(b > a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:])):
        raise ValueError("the weight must be non-increasing")
    thresholds = []
    masses = []
    acc_mass = 0.0
    for pv, pw in w.pieces:
        acc_mass += pv * pw
        if thresholds and pv == thresholds[-1]:
            masses[-1] = acc_mass
        else:
            thresholds.append(pv)
            masses.append(acc_mass)
    thresholds = np.asarray(thresholds)
    masses = np.asarray(masses)
    total_mass = acc_mass

    def outer_step(y):
        if y <= 0:
            return total_mass
        idx = np.searchsorted(-thresholds, -y, side="right")
        return float(masses[idx - 1]) if idx > 0 else 0.0

    a = A.derivative
    t0, t1 = a.t[0], a.t[-1]
    edges = np.unique(np.concatenate((geometric_grid(t0 * 1e-30, t0, 8),
                                      a.t, geometric_grid(t1, t1 * 1e30, 8))))
    av = a(edges)
    total = 0.0
    for k in range(edges.size - 1):
        ta, tb = float(edges[k]), float(edges[k + 1])
        va, vb = float(av[k]), float(av[k + 1])
        piece = _loop_step_outer_piece(outer_step, thresholds, lam, q, ta, tb, va, vb)
        if math.isinf(piece):
            return INF
        total += piece
    lead = outer_step(lam * av[0] * edges[0] ** (1.0 - q)) if av[0] > 0 else total_mass
    total += lead * edges[0] ** q / q
    v1, v2 = a(edges[-1] / 2.0), a(edges[-1])
    grow = (v2 * edges[-1] ** (1.0 - q)) / max(v1 * (edges[-1] / 2.0) ** (1.0 - q), 1e-300)
    if grow <= 1.0 + 1e-12:
        inner_end = lam * v2 * edges[-1] ** (1.0 - q)
        if outer_step(inner_end) > 0:
            return INF
    return total


def _loop_step_outer_piece(outer_step, thresholds, lam, q, ta, tb, va, vb):
    if tb <= ta or vb == 0.0:
        mass = outer_step(0.0) if vb == 0.0 else 0.0
        return mass * (tb ** q - ta ** q) / q if vb == 0.0 else 0.0
    if np.isinf(va):
        return 0.0
    sigma = 0.0 if (vb == va or va == 0.0) else math.log(vb / va) / math.log(tb / ta)
    expo = sigma + 1.0 - q
    if va == 0.0:
        va = vb * (ta / tb) ** max(sigma, 1.0)
    C = lam * va * ta ** (-sigma)
    cuts = [ta, tb]
    for y in thresholds:
        if C <= 0 or expo == 0.0 or y <= 0:
            continue
        t_star = (y / C) ** (1.0 / expo)
        if ta < t_star < tb:
            cuts.append(t_star)
    cuts = np.unique(np.asarray(cuts))
    total = 0.0
    for a_, b_ in zip(cuts[:-1], cuts[1:]):
        tm = math.sqrt(a_ * b_)
        mass = outer_step(C * tm ** expo)
        if mass > 0:
            total += mass * (b_ ** q - a_ ** q) / q
    return total


def loop_witness_derivative(f, E):
    """The derivative table of construct_witness_young, one level and one
    node pair per value of the normalized function."""
    data = build_gw(E)
    h = rearrange(f.scale(1.0 / (2.0 * lambda_norm(f, E))))
    values = h.values[::-1]
    above = h.breaks[1:][::-1]
    levels = [float(data.w(float(above[0])))]
    for m in above[1:]:
        levels.append(float(data.w(float(m))))
    grid, vals = [], []
    prev = 0.0
    for v_j, lev in zip(values, levels):
        if prev > 0.0:
            grid.append(prev)
            vals.append(lev)
        grid.append(np.nextafter(float(v_j), 0.0))
        vals.append(lev)
        prev = float(v_j)
    grid.append(prev)
    vals.append(vals[-1])
    grid.append(prev * (1 + 2 ** -40))
    vals.append(INF)
    grid = np.asarray(grid)
    vals = np.maximum.accumulate(np.asarray(vals))
    keep = np.empty(grid.size, dtype=bool)
    keep[0] = True
    keep[1:] = grid[1:] > grid[:-1]
    return grid[keep], vals[keep]


def loop_weight_halving_constant(w):
    """The halving search one scale c = 2**-k at a time."""
    if not w.pieces:
        return None
    breaks = np.concatenate(([0.0], np.cumsum([pw for _, pw in w.pieces])))
    mids = 0.5 * (breaks[:-1] + breaks[1:])

    def val(x):
        idx = np.searchsorted(breaks, x, side="right") - 1
        out = np.zeros_like(x)
        inside = (idx >= 0) & (idx < len(w.pieces))
        vals = np.asarray([pv for pv, _ in w.pieces])
        out[inside] = vals[idx[inside]]
        return out

    for k in range(1, 24):
        c = 2.0 ** (-k)
        if np.all(2.0 * val(c * mids) <= val(mids) + 1e-300):
            lead = val(np.asarray([c * mids[0]]))[0]
            if lead > 0 and np.all(val(mids) > 0):
                return c
    return None
