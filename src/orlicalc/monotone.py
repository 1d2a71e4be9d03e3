"""Monotone functions on [0, inf] sampled on geometric grids.

This is the numeric substrate for the whole package.  A non-decreasing
function is stored as a strictly increasing positive abscissa grid with
non-decreasing values (+inf allowed), plus a symbolic descriptor of its
behaviour below and above the grid.  Between grid points the function is
interpolated log-log, so pure powers are exact; a jump to +inf is located
at the last finite grid point and the function is left-continuous there.

Generalized inverses are computed by transposing the table (exact on power
segments) with sup/inf plateau conventions, and the reciprocal-reflection
``t -> 1/F(1/t)`` is an exact grid transform.  Grids are assumed geometric:
abscissae separated by more than a few ulp, so reciprocal transforms cannot
collapse neighbouring points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

INF = math.inf

GRID_LO_EXP = -8
GRID_HI_EXP = 8
POINTS_PER_DECADE = 64

# Largest value kept in a table; constructors trim the grid instead of
# storing astronomically large finite values.
HUGE = 1e290

# Descriptor kinds.  The first five form the public vocabulary; the last two
# are internal closures of that vocabulary under reciprocal reflection and
# generalized inversion.
POWER_LOG = "power-log"
EXPONENTIAL = "exponential"
ZERO_ON_INTERVAL = "zero-on-interval"
INFINITE_BEYOND = "infinite-beyond"
NUMERIC_ONLY = "numeric-only"
EXP_RECIPROCAL = "exp-reciprocal"
LIMIT_CONST = "limit-const"

NEAR_ZERO = "near-zero"
NEAR_INFINITY = "near-infinity"
GLOBAL = "global"
REGIMES = (NEAR_ZERO, NEAR_INFINITY, GLOBAL)


@dataclass(frozen=True)
class AsymptoticDescriptor:
    """Symbolic growth class of a monotone function at one end of its grid.

    kind        meaning (near zero / near infinity)
    ----        -----------------------------------
    power-log   F(t) ~ t**p * log(1/t)**alpha   /   t**p * log(t)**alpha
    exponential F(t) ~ exp(t**gamma)            (near infinity only)
    exp-reciprocal  F(t) ~ exp(-t**(-gamma))    (near zero only)
    zero-on-interval   F == 0 on [0, threshold]
    infinite-beyond    F == +inf beyond threshold
    limit-const F(t) -> limit at the relevant end
    numeric-only       no symbolic information; extrapolate from the grid
    """

    kind: str
    regime: str = ""
    p: float = 0.0
    alpha: float = 0.0
    gamma: float = 0.0
    threshold: float = 0.0
    limit: float = 0.0

    def with_regime(self, regime):
        return replace(self, regime=regime)


def power_log_desc(p, alpha=0.0):
    return AsymptoticDescriptor(POWER_LOG, p=float(p), alpha=float(alpha))


def exponential_desc(gamma):
    return AsymptoticDescriptor(EXPONENTIAL, gamma=float(gamma))


def exp_reciprocal_desc(gamma):
    return AsymptoticDescriptor(EXP_RECIPROCAL, gamma=float(gamma))


def zero_on_interval_desc(threshold):
    return AsymptoticDescriptor(ZERO_ON_INTERVAL, threshold=float(threshold))


def infinite_beyond_desc(threshold):
    return AsymptoticDescriptor(INFINITE_BEYOND, threshold=float(threshold))


def limit_const_desc(limit):
    return AsymptoticDescriptor(LIMIT_CONST, limit=float(limit))


NUMERIC_DESC = AsymptoticDescriptor(NUMERIC_ONLY)


def default_grid(lo_exp=GRID_LO_EXP, hi_exp=GRID_HI_EXP):
    n = int(round((hi_exp - lo_exp) * POINTS_PER_DECADE)) + 1
    return np.logspace(lo_exp, hi_exp, n)


def geometric_grid(lo, hi, per_decade=POINTS_PER_DECADE):
    decades = math.log10(hi / lo)
    n = max(2, int(math.ceil(decades * per_decade)) + 1)
    return np.geomspace(lo, hi, n)


class MonotoneFn:
    """A non-decreasing function on [0, inf] backed by a sample table."""

    __slots__ = ("t", "v", "zero_desc", "inf_desc", "value_at_zero",
                 "value_at_inf", "_i_first_pos", "_i_last_fin")

    def __init__(self, t, v, zero_desc=NUMERIC_DESC, inf_desc=NUMERIC_DESC,
                 value_at_zero=None, value_at_inf=None, validate=True):
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if validate:
            if t.ndim != 1 or t.size == 0 or t.shape != v.shape:
                raise ValueError("grid and values must be equal-length 1-d arrays")
            if not np.all(np.isfinite(t)) or not np.all(t > 0):
                raise ValueError("abscissae must be finite and positive")
            if t.size > 1 and not np.all(np.diff(t) > 0):
                raise ValueError("abscissae must be strictly increasing")
            if np.any(np.isnan(v)) or np.any(v < 0):
                raise ValueError("values must be nonnegative (inf allowed)")
            with np.errstate(invalid="ignore"):
                dv = np.diff(v)
            fin = np.isfinite(v[:-1]) & np.isfinite(v[1:])
            slack = 1e-12 * np.maximum(np.abs(v[:-1]), 1.0)
            if np.any(dv[fin] < -slack[fin]):
                raise ValueError("values must be non-decreasing")
            inf_idx = np.flatnonzero(np.isinf(v))
            if inf_idx.size and not np.all(np.isinf(v[inf_idx[0]:])):
                raise ValueError("+inf values must form a terminal block")
        self.t = t
        self.v = v
        self.zero_desc = zero_desc.with_regime(NEAR_ZERO)
        self.inf_desc = inf_desc.with_regime(NEAR_INFINITY)
        pos = np.flatnonzero(np.isfinite(v) & (v > 0))
        self._i_first_pos = int(pos[0]) if pos.size else -1
        fin = np.flatnonzero(np.isfinite(v))
        self._i_last_fin = int(fin[-1]) if fin.size else -1
        if value_at_zero is None:
            value_at_zero = self._default_value_at_zero()
        if value_at_inf is None:
            value_at_inf = self._default_value_at_inf()
        self.value_at_zero = float(value_at_zero)
        self.value_at_inf = float(value_at_inf)

    # -- limits ---------------------------------------------------------

    def _default_value_at_zero(self):
        d = self.zero_desc
        if d.kind == ZERO_ON_INTERVAL:
            return 0.0
        if d.kind == LIMIT_CONST:
            return d.limit
        if d.kind == POWER_LOG:
            if d.p > 0 or (d.p == 0 and d.alpha < 0):
                return 0.0
            if d.p == 0 and d.alpha == 0:
                return self.v[0] if self._i_first_pos == 0 else 0.0
            return 0.0
        if d.kind == EXP_RECIPROCAL:
            return 0.0
        # numeric-only: zero start stays zero, flat start keeps its value
        if self.v[0] == 0.0 or not np.isfinite(self.v[0]):
            return 0.0
        if self.t.size > 1 and np.isfinite(self.v[1]) and self.v[1] > self.v[0] * (1 + 1e-12):
            return 0.0
        return float(self.v[0])

    def _default_value_at_inf(self):
        d = self.inf_desc
        if np.isinf(self.v[-1]) or d.kind in (INFINITE_BEYOND, EXPONENTIAL):
            return INF
        if d.kind == LIMIT_CONST:
            return d.limit
        if d.kind == POWER_LOG:
            if d.p > 0 or (d.p == 0 and d.alpha > 0):
                return INF
            return float(self.v[self._i_last_fin]) if self._i_last_fin >= 0 else INF
        # numeric-only: growing table extends to inf, flat one to its cap
        if self.t.size > 1 and self.v[-1] > self.v[-2] * (1 + 1e-12):
            return INF
        return float(self.v[-1])

    @property
    def t_zero(self):
        """sup of the interval where the function vanishes."""
        zeros = np.flatnonzero(self.v == 0.0)
        last = self.t[zeros[-1]] if zeros.size else 0.0
        if self.zero_desc.kind == ZERO_ON_INTERVAL:
            last = max(last, self.zero_desc.threshold)
        if zeros.size == self.v.size and self.inf_desc.kind != INFINITE_BEYOND:
            return INF
        return float(last)

    @property
    def t_inf(self):
        """inf of the interval where the function is +inf."""
        if np.isinf(self.v[-1]):
            if self._i_last_fin >= 0:
                return float(self.t[self._i_last_fin])
            return 0.0
        if self.inf_desc.kind == INFINITE_BEYOND:
            return float(self.inf_desc.threshold)
        return INF

    # -- evaluation -----------------------------------------------------

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        xq = np.atleast_1d(arr)
        out = np.empty_like(xq)
        m_zero = xq == 0.0
        m_inf = np.isinf(xq)
        out[m_zero] = self.value_at_zero
        out[m_inf] = self.value_at_inf
        m_mid = ~(m_zero | m_inf)
        if m_mid.any():
            out[m_mid] = self._eval_positive(xq[m_mid])
        return float(out[0]) if scalar else out

    def _eval_positive(self, x):
        t, v = self.t, self.v
        out = np.empty_like(x)
        lo = x < t[0]
        hi = x > t[-1]
        mid = ~(lo | hi)
        if mid.any():
            out[mid] = self._interp(x[mid])
        if lo.any():
            out[lo] = self._tail_zero(x[lo])
        if hi.any():
            out[hi] = self._tail_inf(x[hi])
        return out

    def _interp(self, x):
        t, v = self.t, self.v
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
        # node hits must be bitwise exact: steep inverse tails amplify a
        # one-ulp interpolation residue into visible error
        exact_l = x == tl
        out[exact_l] = vl[exact_l]
        exact_r = x == tr
        out[exact_r] = vr[exact_r]
        return out

    def _anchor_zero(self):
        i = self._i_first_pos
        i = 0 if i < 0 else i
        return self.t[i], self.v[i]

    def _anchor_inf(self):
        i = self._i_last_fin
        i = self.t.size - 1 if i < 0 else i
        return self.t[i], self.v[i]

    def _tail_zero(self, x):
        d = self.zero_desc
        if d.kind == ZERO_ON_INTERVAL:
            return np.zeros_like(x)
        if d.kind == LIMIT_CONST:
            return np.full_like(x, d.limit)
        ta, va = self._anchor_zero()
        if va == 0.0 or not np.isfinite(va):
            return np.zeros_like(x)
        if d.kind == EXP_RECIPROCAL:
            with np.errstate(over="ignore", under="ignore"):
                return va * np.exp(ta ** (-d.gamma) - x ** (-d.gamma))
        if d.kind == POWER_LOG:
            p, alpha = d.p, d.alpha
        else:  # numeric-only (exponential is invalid near zero)
            p, alpha = self._edge_slope_zero(), 0.0
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            out = va * np.exp(p * np.log(x / ta))
            if alpha != 0.0:
                # log(1/x) / log(1/ta) is non-positive at x <= 1 when
                # ta >= 1; the form anchored at ta stays positive there
                log_ratio = (np.log(1.0 / x) / np.log(1.0 / ta) if ta < 1.0
                             else 1.0 + np.log(ta / x))
                out = out * log_ratio ** alpha
        return out

    def _tail_inf(self, x):
        d = self.inf_desc
        if np.isinf(self.v[-1]):
            return np.full_like(x, INF)
        if d.kind == INFINITE_BEYOND:
            out = np.full_like(x, INF)
            below = x <= d.threshold
            out[below] = self.v[-1]
            return out
        if d.kind == LIMIT_CONST:
            return np.full_like(x, d.limit)
        tb, vb = self._anchor_inf()
        if d.kind == EXPONENTIAL:
            with np.errstate(over="ignore"):
                return vb * np.exp(x ** d.gamma - tb ** d.gamma)
        if d.kind == POWER_LOG:
            p, alpha = d.p, d.alpha
        else:
            p, alpha = self._edge_slope_inf(), 0.0
        if vb == 0.0:
            return np.zeros_like(x)
        with np.errstate(over="ignore", divide="ignore"):
            out = vb * np.exp(p * np.log(x / tb))
            if alpha != 0.0:
                # log(x) / log(tb) is non-positive at x >= 1 when tb <= 1;
                # the form anchored at tb stays positive there
                log_ratio = (np.log(x) / np.log(tb) if tb > 1.0
                             else 1.0 + np.log(x / tb))
                out = out * log_ratio ** alpha
        return out

    def _edge_slope_zero(self):
        """Log-log slope of the first grid segment (0 for a flat start)."""
        t, v = self.t, self.v
        i = self._i_first_pos
        if i < 0 or i + 1 >= t.size or not np.isfinite(v[i + 1]) or v[i + 1] <= v[i]:
            return 0.0
        return math.log(v[i + 1] / v[i]) / math.log(t[i + 1] / t[i])

    def _edge_slope_inf(self):
        """Log-log slope of the last finite grid segment (0 for a flat end)."""
        t, v = self.t, self.v
        k = self._i_last_fin
        if k <= 0 or v[k - 1] <= 0 or v[k - 1] >= v[k]:
            return 0.0
        return math.log(v[k] / v[k - 1]) / math.log(t[k] / t[k - 1])

    # -- transforms -----------------------------------------------------

    def correlative(self):
        """The reciprocal reflection t -> 1 / F(1/t); exchanges 0 and inf."""
        with np.errstate(divide="ignore"):
            new_t = 1.0 / self.t[::-1]
            new_v = np.where(self.v[::-1] == 0.0, INF,
                             np.where(np.isinf(self.v[::-1]), 0.0, 1.0 / self.v[::-1]))
        # reciprocals may collapse ulp-separated abscissae into duplicates
        keep = np.empty(new_t.size, dtype=bool)
        keep[0] = True
        keep[1:] = new_t[1:] > new_t[:-1]
        new_t, new_v = new_t[keep], new_v[keep]
        vz = INF if self.value_at_inf == 0.0 else (
            0.0 if np.isinf(self.value_at_inf) else 1.0 / self.value_at_inf)
        vi = INF if self.value_at_zero == 0.0 else (
            0.0 if np.isinf(self.value_at_zero) else 1.0 / self.value_at_zero)
        return MonotoneFn(new_t, new_v,
                          zero_desc=_mirror_desc(self.inf_desc),
                          inf_desc=_mirror_desc(self.zero_desc),
                          value_at_zero=vz, value_at_inf=vi, validate=False)

    def right_inverse(self):
        """t -> sup{tau >= 0 : F(tau) <= t} (right-continuous inverse)."""
        return _inverse(self, "right")

    def left_inverse(self):
        """t -> inf{tau >= 0 : F(tau) >= t} (left-continuous inverse)."""
        return _inverse(self, "left")

    def scale(self, c):
        """c * F as a new table (c > 0)."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return MonotoneFn(self.t, self.v * c, self.zero_desc, self.inf_desc,
                          value_at_zero=self.value_at_zero * c,
                          value_at_inf=self.value_at_inf * c, validate=False)

    def rescale_arg(self, k):
        """t -> F(k t) as a new table (k > 0)."""
        if k <= 0:
            raise ValueError("argument scale must be positive")
        d0, d1 = self.zero_desc, self.inf_desc
        if d0.kind == ZERO_ON_INTERVAL:
            d0 = zero_on_interval_desc(d0.threshold / k)
        if d1.kind == INFINITE_BEYOND:
            d1 = infinite_beyond_desc(d1.threshold / k)
        return MonotoneFn(self.t / k, self.v, d0, d1,
                          value_at_zero=self.value_at_zero,
                          value_at_inf=self.value_at_inf, validate=False)


def _mirror_desc(d):
    """Descriptor of 1/F(1/t) at the opposite end of the axis."""
    if d.kind == POWER_LOG:
        return power_log_desc(d.p, -d.alpha)
    if d.kind == EXPONENTIAL:
        return exp_reciprocal_desc(d.gamma)
    if d.kind == EXP_RECIPROCAL:
        return exponential_desc(d.gamma)
    if d.kind == ZERO_ON_INTERVAL:
        return infinite_beyond_desc(1.0 / d.threshold if d.threshold > 0 else INF)
    if d.kind == INFINITE_BEYOND:
        return zero_on_interval_desc(1.0 / d.threshold if d.threshold > 0 else 0.0)
    if d.kind == LIMIT_CONST:
        if d.limit == 0.0:
            return NUMERIC_DESC
        return limit_const_desc(1.0 / d.limit if np.isfinite(d.limit) else 0.0)
    return NUMERIC_DESC


def _invert_desc_zero(fn):
    """Descriptor of the inverse near zero, given F's behaviour near zero."""
    d = fn.zero_desc
    if d.kind == POWER_LOG and d.p > 0:
        return power_log_desc(1.0 / d.p, -d.alpha / d.p)
    if d.kind == EXP_RECIPROCAL:
        # F ~ exp(-t**-g)  =>  inverse(s) ~ log(1/s)**(-1/g)
        return power_log_desc(0.0, -1.0 / d.gamma)
    if d.kind == NUMERIC_ONLY:
        s = fn._edge_slope_zero()
        if s > 0:
            return power_log_desc(1.0 / s)
    return NUMERIC_DESC


def _invert_desc_inf(fn):
    """Descriptor of the inverse near infinity, given F's behaviour near infinity."""
    d = fn.inf_desc
    if d.kind == POWER_LOG and d.p > 0:
        return power_log_desc(1.0 / d.p, -d.alpha / d.p)
    if d.kind == EXPONENTIAL:
        return power_log_desc(0.0, 1.0 / d.gamma)
    if d.kind == NUMERIC_ONLY:
        s = fn._edge_slope_inf()
        if s > 0:
            return power_log_desc(1.0 / s)
    return NUMERIC_DESC


def _inverse(fn, side):
    """Shared builder for the right- and left-continuous generalized inverse.

    Plateaus of F become jumps of the inverse; a jump is stored as two grid
    points one ulp apart so that both one-sided limits evaluate correctly.
    """
    t, v = fn.t, fn.v
    tz = fn.t_zero
    t_inf = fn.t_inf
    # runs of equal finite positive values: (val, ta, tb) per run
    ok = np.isfinite(v) & (v > 0.0)
    same = v[1:] == v[:-1]
    starts = ok & ~np.concatenate(([False], same))
    ends = ok & ~np.concatenate((same, [False]))
    val, ta, tb = v[starts], t[starts], t[ends]

    # Degenerate: no finite positive values at all (a pure 0 -> inf step).
    if not val.size:
        if t_inf < INF:
            c = t_inf
            vz = c if side == "right" else 0.0
            vi = INF if side == "right" else c
            return MonotoneFn(np.array([1.0]), np.array([c]),
                              zero_desc=limit_const_desc(c),
                              inf_desc=limit_const_desc(c),
                              value_at_zero=vz, value_at_inf=vi, validate=False)
        raise ValueError("cannot invert a function with no finite positive values")

    # a run extends flat beyond the grid exactly when the boundary limit
    # equals the run value, whatever descriptor encodes that
    flat_bottom = tz == 0.0 and ta[0] == t[0] and fn.value_at_zero == val[0]
    flat_top = t_inf == INF and tb[-1] == t[-1] and fn.value_at_inf == val[-1]
    lo_ext = np.zeros(val.size, dtype=bool)
    lo_ext[0] = flat_bottom
    hi_ext = np.zeros(val.size, dtype=bool)
    hi_ext[-1] = flat_top
    # a run extended at both ends means the function is this constant
    # everywhere: the inverse is a pure step at the constant level
    const = lo_ext & hi_ext
    wide = ta < tb

    # two slots per run, (s, tau) at its left and its right end, each kept
    # or dropped by a mask
    if side == "right":
        below = np.nextafter(val, 0.0)
        s1 = np.where(const, val, below)
        tau1 = np.where(const, INF, ta)
        use1 = const | (wide & ~lo_ext)
        s2 = np.where(hi_ext, below, val)
        tau2 = np.where(hi_ext, ta, tb)
        use2 = ~const
    else:
        s1 = val
        tau1 = np.where(const, 0.0, ta)
        use1 = const | ~lo_ext
        s2 = np.nextafter(val, INF)
        tau2 = tb
        use2 = ~const & ((wide & ~hi_ext) | lo_ext)
    use = np.column_stack((use1, use2)).ravel()
    s_pts = np.column_stack((s1, s2)).ravel()[use]
    tau_pts = np.column_stack((tau1, tau2)).ravel()[use]
    keep = np.empty(s_pts.size, dtype=bool)
    keep[0] = True
    keep[1:] = s_pts[1:] > s_pts[:-1]
    s_pts, tau_pts = s_pts[keep], tau_pts[keep]

    # Bottom end of the inverse.
    if flat_bottom:
        c = val[0]
        zero_desc = zero_on_interval_desc(np.nextafter(c, 0.0) if side == "right" else c)
        value_at_zero = 0.0
    elif tz > 0.0:
        zero_desc = limit_const_desc(tz)
        value_at_zero = tz if side == "right" else 0.0
    else:
        zero_desc = _invert_desc_zero(fn)
        value_at_zero = 0.0

    # Top end of the inverse.
    if flat_top:
        V = val[-1]
        inf_desc = infinite_beyond_desc(np.nextafter(V, 0.0) if side == "right" else V)
        value_at_inf = INF
    elif t_inf < INF:
        inf_desc = limit_const_desc(t_inf)
        value_at_inf = INF if side == "right" else t_inf
    else:
        inf_desc = _invert_desc_inf(fn)
        value_at_inf = INF

    return MonotoneFn(s_pts, tau_pts, zero_desc=zero_desc, inf_desc=inf_desc,
                      value_at_zero=value_at_zero, value_at_inf=value_at_inf,
                      validate=False)


# -- exact piecewise-power integration ----------------------------------


def _power_segment_integral(vl, vr, tl, tr, weight_exp=0.0):
    """Exact integral of the log-log interpolant times t**weight_exp over [tl, tr].

    Zero-left segments integrate their linear ramp; segments touching +inf
    integrate to +inf.
    """
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
        # linear ramp v(t) = vr (t-tl)/(tr-tl); integrate against t**w numerically
        # exactly via expansion only for w == 0; otherwise use a fine closed form.
        w = weight_exp
        a, b = tl[ramp], tr[ramp]
        c = vr[ramp] / (b - a)
        if w == 0.0:
            out[ramp] = 0.5 * c * (b - a) ** 2
        else:
            # integral of c (t-a) t^w dt = c [ t^{w+2}/(w+2) - a t^{w+1}/(w+1) ]
            def prim(x):
                term1 = x ** (w + 2.0) / (w + 2.0) if w != -2.0 else np.log(x)
                term2 = a * (x ** (w + 1.0) / (w + 1.0)) if w != -1.0 else a * np.log(x)
                return term1 - term2
            with np.errstate(over="ignore", invalid="ignore"):
                out[ramp] = c * (prim(b) - prim(a))
    if pw.any():
        a, b = tl[pw], tr[pw]
        va, vb = vl[pw], vr[pw]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.where(vb == va, 0.0, np.log(vb / va) / np.log(b / a))
            e = s + weight_exp + 1.0
            ratio = b / a
            coef = va * a ** (weight_exp + 1.0)
            res = np.where(np.abs(e) < 1e-12,
                           coef * np.log(ratio),
                           coef * (np.exp(e * np.log(ratio)) - 1.0) / np.where(e == 0.0, 1.0, e))
        out[pw] = res
    out[zz] = 0.0
    out[degenerate] = 0.0
    return out


def _tail_zero_integral(fn, t0, weight_exp):
    """Integral of F(t) t**w over (0, t0), t0 = fn.t[0], from the zero tail."""
    d = fn.zero_desc
    if d.kind == ZERO_ON_INTERVAL or fn.value_at_zero == INF:
        return 0.0 if d.kind == ZERO_ON_INTERVAL else INF
    v0 = fn(t0)
    if v0 == 0.0:
        return 0.0
    if np.isinf(v0):
        return INF
    if d.kind == LIMIT_CONST:
        c = d.limit
        e = weight_exp + 1.0
        if e <= 0 and c > 0:
            return INF
        base = c * t0 ** e / e if e > 0 else 0.0
        return float(base)
    # effective local power p (+ slowly varying log factor handled numerically)
    if d.kind == POWER_LOG:
        p, alpha = d.p, d.alpha
    elif d.kind == EXP_RECIPROCAL:
        p, alpha = INF, 0.0
    else:
        p, alpha = fn._edge_slope_zero(), 0.0
    if p == INF:
        return 0.0  # vanishes faster than any power
    e = p + weight_exp + 1.0
    if e < 0 or (e == 0 and alpha >= -1.0):
        return INF
    if alpha == 0.0:
        if e == 0:
            return INF
        return float(v0 * t0 ** (weight_exp + 1.0) / e)
    # log-corrected tail: integrate numerically on an extension grid
    ext = geometric_grid(t0 * 1e-45, t0, per_decade=16)
    vals = fn(ext)
    total = float(np.sum(_power_segment_integral(vals[:-1], vals[1:],
                                                 ext[:-1], ext[1:], weight_exp)))
    ee = max(e, 1e-9)
    total += float(vals[0] * ext[0] ** (weight_exp + 1.0) / ee)
    return total


def cumulative_integral(fn, weight_exp=0.0, grid=None):
    """I(t) = integral of F(tau) tau**weight_exp over (0, t], as a MonotoneFn.

    Exact on power segments; the part below the grid comes from the zero
    descriptor.  If the integrand is non-integrable at zero, every value is
    +inf and the caller should treat the construction as divergent.
    """
    t = fn.t if grid is None else np.asarray(grid, dtype=float)
    vals = fn(t) if grid is not None else fn.v
    head = _tail_zero_integral(fn, t[0], weight_exp)
    seg = _power_segment_integral(vals[:-1], vals[1:], t[:-1], t[1:], weight_exp)
    acc = np.empty_like(t)
    acc[0] = head
    acc[1:] = head + np.cumsum(seg)
    zero_desc = _integral_zero_desc(fn.zero_desc, weight_exp)
    inf_desc = _integral_inf_desc(fn.inf_desc, weight_exp)
    # a terminal +inf block in fn makes the integral jump after the junction
    if np.isinf(vals).any():
        fin = np.flatnonzero(np.isfinite(vals))
        junction = t[int(fin[-1])] if fin.size else t[0]
        inf_desc = infinite_beyond_desc(float(junction))
    return MonotoneFn(t, acc, zero_desc=zero_desc, inf_desc=inf_desc,
                      value_at_zero=0.0, validate=False)


def _integral_zero_desc(d, w):
    if d.kind == ZERO_ON_INTERVAL:
        return d
    if d.kind == POWER_LOG:
        return power_log_desc(d.p + w + 1.0, d.alpha)
    if d.kind == LIMIT_CONST:
        return power_log_desc(w + 1.0, 0.0)
    if d.kind == EXP_RECIPROCAL:
        return exp_reciprocal_desc(d.gamma)
    return NUMERIC_DESC


def _integral_inf_desc(d, w):
    if d.kind == INFINITE_BEYOND:
        return d
    if d.kind == POWER_LOG:
        p = d.p + w + 1.0
        if p > 0:
            return power_log_desc(p, d.alpha)
        if p == 0:
            return power_log_desc(0.0, d.alpha + 1.0)
        return NUMERIC_DESC  # convergent integral: tends to a constant
    if d.kind == EXPONENTIAL:
        return exponential_desc(d.gamma)
    if d.kind == LIMIT_CONST:
        return power_log_desc(w + 1.0, 0.0) if w + 1.0 > 0 else NUMERIC_DESC
    return NUMERIC_DESC


def integral_on_interval(fn, lo, hi, weight_exp=0.0):
    """Exact integral of F(t) t**weight_exp over [lo, hi] within (0, inf)."""
    if hi <= lo:
        return 0.0
    t = fn.t
    cut = t[(t > lo) & (t < hi)]
    pts = np.concatenate(([lo], cut, [hi]))
    vals = fn(pts)
    return float(np.sum(_power_segment_integral(vals[:-1], vals[1:],
                                                pts[:-1], pts[1:], weight_exp)))
