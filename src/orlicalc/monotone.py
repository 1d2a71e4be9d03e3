"""Monotone functions on [0, inf] sampled on geometric grids.

This is the numeric substrate for the whole package.  A non-decreasing
function is stored as a strictly increasing positive abscissa grid with
non-decreasing values (+inf allowed), plus a symbolic descriptor of its
behaviour below and above the grid.  Between grid points the function is
interpolated log-log, so pure powers are exact; a jump to +inf is located
at the last finite grid point and the function is left-continuous there.

Evaluation reads one segment table, built on a table's first evaluation
(the table is never written after construction): the log-log slope of
every segment.  A point costs one search, one gather and one formula,
vl * (x / tl)**s; ramps out of zero and jumps to +inf are patched only on
tables that have them, and a point on a node gets that node's value to the
bit.  NaN gives NaN, and every x <= 0 (-inf included) gives the value at 0.

Generalized inverses are computed by transposing the table (exact on power
segments) with sup/inf plateau conventions, and the reciprocal-reflection
``t -> 1/F(1/t)`` is an exact grid transform.  Grids are assumed geometric:
abscissae separated by more than a few ulp, so reciprocal transforms cannot
collapse neighbouring points.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

GRID_LO_EXP = -8
GRID_HI_EXP = 8
POINTS_PER_DECADE = 64

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
    numeric-only       no symbolic information: accepted on input, where a
                       table resolves it to the power-log of its edge
                       segment (p the segment's log-log slope, alpha 0), as
                       it does a kind given at the end where it has no rule
    """

    kind: str
    p: float = 0.0
    alpha: float = 0.0
    gamma: float = 0.0
    threshold: float = 0.0
    limit: float = 0.0


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

# The kinds with a rule at each end.  Any other kind there (numeric-only, or
# one that belongs to the other end) extrapolates the grid's edge segment,
# and a table says so: it holds the power-log of that segment's slope.
_ZERO_KINDS = (POWER_LOG, EXP_RECIPROCAL, ZERO_ON_INTERVAL, LIMIT_CONST)
_INF_KINDS = (POWER_LOG, EXPONENTIAL, INFINITE_BEYOND, LIMIT_CONST)


def default_grid(lo_exp=GRID_LO_EXP, hi_exp=GRID_HI_EXP):
    n = int(round((hi_exp - lo_exp) * POINTS_PER_DECADE)) + 1
    return np.logspace(lo_exp, hi_exp, n)


def geometric_grid(lo, hi, per_decade=POINTS_PER_DECADE):
    decades = math.log10(hi / lo)
    n = max(2, int(math.ceil(decades * per_decade)) + 1)
    return np.geomspace(lo, hi, n)


class MonotoneFn:
    """A non-decreasing function on [0, inf] backed by a sample table.

    Calls take any array shape and return that shape (a float for a
    scalar).  Between nodes the value is vl * (x / tl)**s with the slope
    s of the segment, from a per-table slope array built on the first
    call; a node returns its stored value exactly.  Below and above the
    grid the descriptors extrapolate; NaN gives NaN, and x <= 0 (-inf
    included) gives value_at_zero, without a RuntimeWarning."""

    __slots__ = ("t", "v", "zero_desc", "inf_desc", "value_at_zero",
                 "value_at_inf", "_i_first_pos", "_i_last_fin", "_seg")

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
        self._seg = None
        pos = np.flatnonzero(np.isfinite(v) & (v > 0))
        self._i_first_pos = int(pos[0]) if pos.size else -1
        fin = np.flatnonzero(np.isfinite(v))
        self._i_last_fin = int(fin[-1]) if fin.size else -1
        if zero_desc.kind not in _ZERO_KINDS:
            zero_desc = power_log_desc(self._edge_slope_zero())
        if inf_desc.kind not in _INF_KINDS:
            inf_desc = power_log_desc(self._edge_slope_inf())
        self.zero_desc = zero_desc
        self.inf_desc = inf_desc
        if value_at_zero is None:
            value_at_zero = self._default_value_at_zero()
        if value_at_inf is None:
            value_at_inf = self._default_value_at_inf()
        self.value_at_zero = float(value_at_zero)
        self.value_at_inf = float(value_at_inf)

    # -- limits ---------------------------------------------------------

    def _default_value_at_zero(self):
        d = self.zero_desc
        if d.kind == LIMIT_CONST:
            return d.limit
        # a flat power keeps its first value; every other end vanishes at 0
        if d.kind == POWER_LOG and d.p == 0 and d.alpha == 0 and self._i_first_pos == 0:
            return float(self.v[0])
        return 0.0

    def _default_value_at_inf(self):
        d = self.inf_desc
        if np.isinf(self.v[-1]) or d.kind in (INFINITE_BEYOND, EXPONENTIAL):
            return INF
        if d.kind == LIMIT_CONST:
            return d.limit
        if d.p > 0 or (d.p == 0 and d.alpha > 0):  # power-log
            return INF
        return float(self.v[self._i_last_fin]) if self._i_last_fin >= 0 else INF

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
            # a table with no finite value is +inf from its first node on
            return float(self.t[max(self._i_last_fin, 0)])
        if self.inf_desc.kind == INFINITE_BEYOND:
            return float(self.inf_desc.threshold)
        return INF

    # -- evaluation -----------------------------------------------------

    def __call__(self, x):
        """F at each point of x, in x's shape (a float for a scalar).  NaN
        gives NaN, and x <= 0 (-inf included) gives value_at_zero."""
        arr = np.asarray(x, dtype=float)
        xs = arr.reshape(-1)
        t = self.t
        j = np.searchsorted(t, xs, side="right")
        # NaN sorts past the grid and comes out of the formula as NaN; the
        # points off the grid are overwritten
        out = self._interp(xs, np.maximum(j - 1, 0))
        below = j == 0
        if below.any():
            out[below] = self.value_at_zero
            below &= xs > 0.0
            out[below] = self._tail_zero(xs[below])
        above = xs > t[-1]
        if above.any():
            out[above] = self.value_at_inf
            above &= xs < INF
            out[above] = self._tail_inf(xs[above])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _segments(self):
        """The segment table, built on the first evaluation: the log-log
        slope of every power segment with a flat one appended for the last
        node (0 on the other segments), a per-node ramp flag (None without
        ramps), the node beyond which the table is +inf, and whether some
        ratio of values or abscissae overflows (``careful``), in which case
        every slope is taken from the logs of the terms of its ratios."""
        if self._seg is None:
            t, v = self.t, self.v
            vl, vr = v[:-1], v[1:]
            power = (vl > 0.0) & np.isfinite(vr) & (vr != vl)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = t[1:] / t[:-1]
                s = np.log(vr / vl) / np.log(ratio)
                careful = not (np.isfinite(s[power]).all() and np.isfinite(ratio).all())
                if careful:
                    s = _log_quotient(vr, vl) / _log_quotient(t[1:], t[:-1])
            slope = np.append(np.where(power, s, 0.0), 0.0)
            ramp = np.append((vl == 0.0) & np.isfinite(vr) & (vr > 0.0), False)
            t_jump = t[max(self._i_last_fin, 0)] if np.isinf(v[-1]) else INF
            self._seg = slope, ramp if ramp.any() else None, t_jump, careful
        return self._seg

    def _interp(self, x, idx):
        """F at the points x in [t[0], t[-1]], idx the node at or left of
        each: vl (x / tl)**s on power segments, patched on ramp and jump
        segments; a flat zero segment has vl = 0 and s = 0.  Other points
        get values that the caller overwrites."""
        slope, ramp, t_jump, careful = self._segments()
        tl, vl = self.t[idx], self.v[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if not careful:
                out = vl * np.exp(slope[idx] * np.log(x / tl))
            else:
                # x / tl and e**y may leave the float range: log(x / tl) from
                # logs, and vl e**y from log vl where e**y does; the slopes
                # are finite, so a node still gets its value exactly
                out = _power_from(vl, slope[idx] * _log_quotient(x, tl))
        if ramp is not None:
            r = ramp[idx]
            if r.any():
                i = idx[r] + 1
                vr, dx, width = self.v[i], x[r] - tl[r], self.t[i] - tl[r]
                with np.errstate(over="ignore"):
                    rise = vr * dx
                # the value is at most vr: divide first where the product
                # overflows, or underflows and would lose digits
                out[r] = np.where(_normal(rise) | (dx == 0.0), rise / width, vr * (dx / width))
        if t_jump < INF:
            out[x > t_jump] = INF
        return out

    def _anchor_inf(self):
        i = self._i_last_fin
        i = self.t.size - 1 if i < 0 else i
        return self.t[i], self.v[i]

    def power_log_form(self, zero_side):
        """The extrapolation below (zero_side) or above the grid as
        (p, alpha, anchor, slope, va): va (t / anchor)**p l**alpha with
        l = 1 + slope log(t / anchor); None where F is 0 or inf there."""
        d = self.zero_desc if zero_side else self.inf_desc
        anchor, va = (self.t[0], self.v[0]) if zero_side else self._anchor_inf()
        va = d.limit if d.kind == LIMIT_CONST else va
        ok = d.kind in (POWER_LOG, LIMIT_CONST) and 0.0 < va < INF
        if not ok or (not zero_side and np.isinf(self.v[-1])):
            return None
        # l is log t / log anchor, or 1 + |log(t / anchor)| where that ratio
        # would turn negative, as in _tail_zero and _tail_inf
        log_form = anchor < 1.0 if zero_side else anchor > 1.0
        return d.p, d.alpha, float(anchor), (1.0 / math.log(anchor) if log_form
                                             else -1.0 if zero_side else 1.0), float(va)

    def _tail_zero(self, x):
        d = self.zero_desc
        if d.kind == ZERO_ON_INTERVAL:
            return np.zeros_like(x)
        if d.kind == LIMIT_CONST:
            return np.full_like(x, d.limit)
        # F at and below a zero first node is 0, as it is below an infinite one
        ta, va = self.t[0], self.v[0]
        if va == 0.0 or not np.isfinite(va):
            return np.zeros_like(x)
        if d.kind == EXP_RECIPROCAL:
            with np.errstate(over="ignore", under="ignore"):
                return va * np.exp(ta ** (-d.gamma) - x ** (-d.gamma))
        with np.errstate(over="ignore", under="ignore", divide="ignore"):  # power-log
            out = _power_from(va, d.p * _log_quotient(x, ta))
            if d.alpha != 0.0:
                # log(1/x) / log(1/ta) is non-positive at x <= 1 when
                # ta >= 1; the form anchored at ta stays positive there
                log_ratio = (_log_quotient(1.0, x) / np.log(1.0 / ta) if ta < 1.0
                             else 1.0 + _log_quotient(ta, x))
                out = out * log_ratio ** d.alpha
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
        if vb == 0.0:
            return np.zeros_like(x)
        with np.errstate(over="ignore", divide="ignore"):  # power-log
            out = _power_from(vb, d.p * _log_quotient(x, tb))
            if d.alpha != 0.0:
                # log(x) / log(tb) is non-positive at x >= 1 when tb <= 1;
                # the form anchored at tb stays positive there
                log_ratio = (np.log(x) / np.log(tb) if tb > 1.0
                             else 1.0 + _log_quotient(x, tb))
                out = out * log_ratio ** d.alpha
        return out

    def _edge_slope_zero(self):
        """Log-log slope of the first grid segment (0 for a flat start); a
        segment one ulp wide, the node pair of a step, is passed over."""
        t, v = self.t, self.v
        i = self._i_first_pos
        j = i + 2 if i + 2 < t.size and t[i + 1] == math.nextafter(t[i], INF) else i + 1
        if i < 0 or j >= t.size or not math.isfinite(v[j]) or v[j] <= v[i]:
            return 0.0
        return _log_quotient(v[j], v[i]) / _log_quotient(t[j], t[i])

    def _edge_slope_inf(self):
        """Log-log slope of the last finite grid segment (0 for a flat end);
        a segment one ulp wide, the node pair of a step, is passed over."""
        t, v = self.t, self.v
        k = self._i_last_fin
        if k >= 2 and t[k] == math.nextafter(t[k - 1], INF):
            k -= 1
        if k <= 0 or v[k - 1] <= 0 or v[k - 1] >= v[k]:
            return 0.0
        return _log_quotient(v[k], v[k - 1]) / _log_quotient(t[k], t[k - 1])

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


def _power_from(va, y):
    """va e**y for the array y (va a float or an array like y), with log va
    in the exponent where e**y is not a normal float: a subnormal (or +inf)
    e**y would lose va's digits."""
    e = np.exp(y)
    out = va * e
    far = ~_normal(e)
    if far.any():
        out[far] = np.exp(np.log(va[far] if np.ndim(va) else va) + y[far])
    return out


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
    return NUMERIC_DESC


def _invert_desc_inf(fn):
    """Descriptor of the inverse near infinity, given F's behaviour near infinity."""
    d = fn.inf_desc
    if d.kind == POWER_LOG and d.p > 0:
        return power_log_desc(1.0 / d.p, -d.alpha / d.p)
    if d.kind == EXPONENTIAL:
        return power_log_desc(0.0, 1.0 / d.gamma)
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
    # equals the run value, whatever descriptor encodes that; a limit-const
    # descriptor holds the limit, which can differ from the value at the
    # end (a right inverse's value at +inf is +inf past its last level)
    limits = [d.limit if d.kind == LIMIT_CONST else at for d, at in
              ((fn.zero_desc, fn.value_at_zero), (fn.inf_desc, fn.value_at_inf))]
    flat_bottom = tz == 0.0 and ta[0] == t[0] and limits[0] == val[0]
    flat_top = t_inf == INF and tb[-1] == t[-1] and limits[1] == val[-1]
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


def _log_quotient(num, x):
    """log(num / x), also where num / x overflows or underflows (a
    subnormal x or num); a float for two positive scalars."""
    if np.ndim(num) == np.ndim(x) == 0:
        q = float(num) / float(x)
        return math.log(q) if 0.0 < q < INF else math.log(num) - math.log(x)
    q = num / x
    return np.where(np.isinf(q) | (q == 0.0), np.log(num) - np.log(x), np.log(q))


def _power_segment_integral(vl, vr, tl, tr, weight_exp=0.0):
    """Exact integral of the log-log interpolant times t**weight_exp over [tl, tr].

    Arguments broadcast against each other.  A plain segment, vl a normal
    float, tl < tr, and its slope times log(tr / tl) finite, takes the power
    formula, which one pass computes over the whole arrays; the other
    classes are patched in where they occur (:func:`_other_segments`).
    """
    vl, vr, tl, tr = (np.asarray(x, dtype=float) for x in (vl, vr, tl, tr))
    if not vl.ndim or not vl.shape == vr.shape == tl.shape == tr.shape:
        shape = np.broadcast(vl, vr, tl, tr).shape
        flat = (np.ravel(x) for x in np.broadcast_arrays(vl, vr, tl, tr))
        return _power_segment_integral(*flat, weight_exp).reshape(shape)
    with np.errstate(all="ignore"):
        log_r = np.log(tr / tl)
        s = np.log(vr / vl) / log_r
        out = _power_terms(vl, tl, s + weight_exp + 1.0, log_r, weight_exp)
        plain = (vl >= _TINY) & (tr > tl) & np.isfinite(s * log_r)
    if not plain.all():
        rest = ~plain
        out[rest] = _other_segments(vl[rest], vr[rest], tl[rest], tr[rest], weight_exp)
    return out


def _power_terms(va, a, e, log_r, w):
    """The integral of va (t / a)**s t**w over (a, a e**log_r), e = s + w + 1:
    va a**(w + 1) (e**(e log_r) - 1) / e, and va a**(w + 1) log_r where
    |e| < 1e-12."""
    coef = va * a ** (w + 1.0)
    return np.where(np.abs(e) < 1e-12, coef * log_r, coef * (np.exp(e * log_r) - 1.0) / e)


def _other_segments(vl, vr, tl, tr, weight_exp):
    """:func:`_power_segment_integral` on 1-d arrays of one shape, segment
    by segment.  Zero-left segments integrate their linear ramp; segments
    touching +inf integrate to +inf.  Where vr / vl or tr / tl leaves the
    float range, or vl is subnormal, the slope comes from the logs of the
    terms, and a rising integrand is integrated from its right end, which
    carries it."""
    out = np.zeros(vl.shape)
    degenerate = tr <= tl
    inf_seg = (np.isinf(vl) | np.isinf(vr)) & ~degenerate
    out[inf_seg] = INF
    zz = (vl == 0.0) & (vr == 0.0)
    ramp = (vl == 0.0) & (vr > 0.0) & ~inf_seg
    pw = (vl > 0.0) & ~inf_seg
    if ramp.any():
        # linear ramp v(t) = vr (t-tl)/(tr-tl) against t**w
        w = weight_exp
        a, b = tl[ramp], tr[ramp]
        c = vr[ramp] / (b - a)
        if w == 0.0:
            out[ramp] = 0.5 * c * (b - a) ** 2
        else:
            # integral of c (t-a) t^w over (a, b) = c a^(w+2) [E(w+2) - E(w+1)]
            # with E(k) = (r^k - 1)/k and r = b/a; for w < -1 both E are
            # bounded, and the one factor that may overflow is a power of a
            log_r = np.log(b / a)
            with np.errstate(over="ignore"):
                scale = vr[ramp] * np.exp((w + 2.0) * np.log(a) - np.log(b - a))
            out[ramp] = scale * (_power_increment(w + 2.0, log_r) - _power_increment(w + 1.0, log_r))
    if pw.any():
        a, b = tl[pw], tr[pw]
        va, vb = vl[pw], vr[pw]
        with np.errstate(all="ignore"):
            log_r = np.log(b / a)
            s = np.where(vb == va, 0.0, np.log(vb / va) / log_r)
            far = ~np.isfinite(s * log_r) | (va < _TINY)
            if far.any():
                log_r[far] = _log_quotient(b[far], a[far])
                s[far] = np.where(vb[far] == va[far], 0.0,
                                  _log_quotient(vb[far], va[far]) / log_r[far])
            e = s + weight_exp + 1.0
            res = _power_terms(va, a, e, log_r, weight_exp)
            right = far & (e >= 1e-12)
            if right.any():
                er = e[right]
                res[right] = (vb[right] * b[right] ** (weight_exp + 1.0)
                              * -np.expm1(-er * log_r[right]) / er)
        out[pw] = res
    out[zz] = 0.0
    out[degenerate] = 0.0
    return out


def _power_increment(k, log_r):
    """(r**k - 1) / k, which is log r at k = 0."""
    return np.expm1(k * log_r) / k if k != 0.0 else log_r


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)
_TINY = float(np.finfo(float).tiny)


def _log_gamma_mass(s, a, b):
    """The log of the integral of v**(s - 1) e**-v over [a, b], 0 <= a <= b
    <= inf, elementwise over broadcast arrays; NaN where an input is NaN or
    where s <= 0 and a = 0.  For s > 0, log Gamma(s) plus the log of one
    difference of scipy's regularized incomplete gammas per element: of Q
    where a >= s or b = inf, of P elsewhere.  For s <= 0, and where that
    difference underflows (below the least normal float) while v**(s - 1)
    e**-v falls on [a, b] (a > s) or rises on it (b < s), Gauss-Legendre
    from the larger end (:func:`_log_mass_from_end`).  scipy.special is
    imported on the first call, so importing the package does not load
    scipy."""
    special = importlib.import_module("scipy.special")
    s, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, a, b)))
    # scipy gives NaN at s <= 0 (rewritten below) and at NaN inputs
    diff = np.empty(s.shape)
    upper = (a >= s) | (b == INF)
    for m, f, lo, hi in ((upper, special.gammaincc, b, a), (~upper, special.gammainc, a, b)):
        diff[m] = f(s[m], hi[m]) - f(s[m], lo[m])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(special.gammaln(s) + np.log(np.maximum(diff, 0.0)))
    # underflowed differences, and the NaN that scipy gives at s <= 0
    ends = np.array(~(diff >= _TINY))
    if ends.any():
        se, ae, be = s[ends], a[ends], b[ends]
        ends[ends] = np.where(se > 0, (diff[ends] < _TINY) & (se < INF)
                              & (ae < be) & ((ae > se) | (be < se)),
                              (se <= 0) & (ae > 0) & (be >= ae))
    if ends.any():
        out[ends] = _log_mass_from_end(s[ends], a[ends], b[ends])
    return out


def _log_mass_from_end(s, a, b, scaled=False):
    """The log mass of :func:`_log_gamma_mass`, one per element of the
    broadcast inputs, where v**(s - 1) e**-v falls on [a, b] (a > s) or
    rises on it (b < s): with v = c e**(+-x) from the larger end c, it is
    c**s e**-c times the integral of exp(+-s x - c expm1(+-x)), which
    starts at 1 and falls.  The integral stops where that is below e**-50:
    falling, from v = a + 50 / (1 - max(s - 1, 0) / a) on; rising, after
    x = 50 / (s - b), as the exponent falls at least at rate s - b.  With
    ``scaled``, the log of e**c times the mass, which adding c back would
    round at the scale of c."""
    s, a, b = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                    for x in (s, a, b)))
    fall = a > s
    sign, c = np.where(fall, 1.0, -1.0), np.where(fall, a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(fall, np.log1p(np.fmin(
            b - a, 50.0 / (1.0 - np.maximum(s - 1.0, 0.0) / a)) / a),
            np.minimum(np.log(b / a), 50.0 / (s - b)))
        lead = s * np.log(c) - (0.0 if scaled else c)
    cells = _cell_integrals(np.zeros_like(reach), reach, np.abs(s) + c * np.exp(sign * reach),
                            lambda x, k: np.exp(sign[k] * s[k] * x - c[k] * np.expm1(sign[k] * x)))
    return lead + np.log(cells)


def _cell_integrals(a, b, rate, integrand):
    """Integral of ``integrand(x, k)`` over each cell [a[k], b[k]]: 24-node
    Gauss-Legendre on equal sub-cells at most min(1, 32 / rate) long, where
    ``rate`` (a scalar or one per cell) bounds the integrand's logarithmic
    derivative, all in one array."""
    a, b = np.ravel(a), np.ravel(b)
    width = 1.0 / np.maximum(1.0, np.abs(rate) / 32.0)
    n = np.maximum(np.ceil((b - a) / width), 1.0).astype(np.int64)
    k = np.repeat(np.arange(a.size), n)
    h = (b - a)[k] / n[k]
    mid = a[k] + (np.arange(k.size) - np.repeat(np.cumsum(n) - n, n) + 0.5) * h
    x = mid[:, None] + (0.5 * h)[:, None] * _GAUSS_NODES
    parts = (integrand(x, k[:, None]) * _GAUSS_WEIGHTS).sum(axis=1) * (0.5 * h)
    return np.bincount(k, weights=parts, minlength=a.size)


def _integral_off_grid(fn, x, weight_exp, zero_side, per_x=False):
    """The integral of F(t) t**w over (0, x) for each x at or below the
    first node (zero_side), or over (x, inf) for each x at or above the
    last node; +inf where it diverges.  With ``per_x`` (above the grid
    only) it is divided by x**(w + 1), that is, the integral of F(x y) y**w
    over y > 1, which stays in the float range where the integral leaves it.

    Off the grid F is va (t / a)**p l**alpha with l = 1 + sigma log(t / a)
    (:meth:`MonotoneFn.power_log_form`).  With e = p + w + 1 and
    z = |e| l / |sigma|, the integral is va a**(w + 1) (x / a)**e g / |e|,
    g = (|sigma| / |e|)**alpha e**z Gamma(alpha + 1, z) (DLMF 8.2), which
    is 1 without a log factor; at e = 0 it is va a**(w + 1) l**(alpha + 1)
    / (|sigma| (-alpha - 1)).  It is taken from the anchor a, not through
    a subnormal F(x); below the anchor without a log factor it is
    F(x) x**(w + 1) / e with the table's F(x), where that is normal.  An
    exp-reciprocal head is (F(x) / gamma) e**u Gamma(-(w + 1) / gamma, u)
    at u = x**-gamma."""
    if per_x and zero_side:
        raise ValueError("per_x is taken above the grid only")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = weight_exp
    d = fn.zero_desc if zero_side else fn.inf_desc
    out = np.zeros_like(x)
    if zero_side:
        if d.kind == ZERO_ON_INTERVAL:
            return out
        if fn.value_at_zero == INF or np.isinf(fn.v[0]):
            return out + INF
        if fn.v[0] == 0.0:
            return out
    elif np.isinf(fn.v[-1]) or d.kind in (INFINITE_BEYOND, EXPONENTIAL):
        return out + INF
    if d.kind == EXP_RECIPROCAL:
        fx = fn(x)
        live = fx > 0.0
        with np.errstate(over="ignore"):
            u = x[live] ** -d.gamma
        out[live] = fx[live] / d.gamma * np.exp(_log_scaled_upper_gamma(-(w + 1.0) / d.gamma, u))
        return out
    form = fn.power_log_form(zero_side)
    if form is None:
        return out
    p, alpha, anchor, slope, va = form
    e = p + (w + 1.0)  # one rounding, at the scale of e near the critical p
    w1 = 0.0 if per_x else w + 1.0  # the power of x (and a) left in the result
    if not ((e > 0.0 if zero_side else e < 0.0) or (e == 0.0 and alpha < -1.0)):
        return out + INF
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        q, log_g = x / anchor, 0.0
        div = abs(e) if e != 0.0 else abs(slope) * (-alpha - 1.0)
        half = 1.0 if e == 0.0 and not per_x else q ** (0.5 * p) * q ** (0.5 * w1)
        if alpha != 0.0:
            # l as _tail_zero and _tail_inf take it: a ratio of logs where
            # slope is 1 / log a, which would amplify the rounding of x / a
            l = 1.0 + slope * _log_quotient(x, anchor) if abs(slope) == 1.0 else slope * np.log(x)
            if e == 0.0:
                # F(t) t**w is va a**(w + 1) l**alpha / t: l**alpha in log t
                log_g = (alpha + 1.0) * np.log(l)
            else:
                k = abs(slope) / abs(e)
                log_g = alpha * math.log(k) + _log_scaled_upper_gamma(alpha + 1.0, l / k)
        # va a**w1 (x / a)**(p + w1) g / div with (x / a)**(p + w1) as two
        # halves (without per_x of at most 1, which underflow only with the
        # product), each taken as (x / a)**(p / 2) (x / a)**(w1 / 2) so that
        # the rounding of e (times log(x / a)) stays out; e**(its log) where
        # a term is not a normal float
        scale = va * np.float64(anchor) ** w1
        out = scale * half * half * np.exp(log_g) / div
        far = ~(_normal(q) & _normal(half) & _normal(scale))
        if far.any():
            rest = (p + w1) * _log_quotient(x, anchor) + log_g
            out[far] = np.exp(math.log(va) + w1 * math.log(anchor) - math.log(div)
                              + rest[far])
        if alpha == 0.0 and zero_side and (x < anchor).any():
            # below the anchor, F(x) x**(w + 1) / e with the table's F(x),
            # where its terms are normal
            i = np.flatnonzero(x < anchor)
            fx = np.full(i.size, va) if d.kind == LIMIT_CONST else fn(x[i])
            xw = x[i] ** (w + 1.0)
            near = _normal(fx / va) & _normal(xw)
            out[i[near]] = fx[near] * xw[near] / e
    return out


def _normal(x):
    return (x >= _TINY) & (x < INF)


def _log_scaled_upper_gamma(s, z):
    """log(e**z Gamma(s, z)) for each z > 0: from the lower end where the
    integrand falls from it (z > s), in numpy alone, and through
    :func:`_log_gamma_mass` elsewhere."""
    out = np.empty_like(z)
    fall = z > s
    if fall.any():
        out[fall] = _log_mass_from_end(s, z[fall], INF, scaled=True)
    if not fall.all():
        out[~fall] = _log_gamma_mass(s, z[~fall], INF) + z[~fall]
    return out


def cumulative_integral(fn, weight_exp=0.0):
    """I(t) = integral of F(tau) tau**weight_exp over (0, t], as a MonotoneFn
    on F's grid.

    Exact on power segments; the part below the grid comes from the zero
    descriptor.  If the integrand is non-integrable at zero, every value is
    +inf and the caller should treat the construction as divergent.
    """
    t, vals = fn.t, fn.v
    head = _integral_off_grid(fn, t[:1], weight_exp, True)[0]
    seg = _power_segment_integral(vals[:-1], vals[1:], t[:-1], t[1:], weight_exp)
    acc = np.empty_like(t)
    acc[0] = head
    acc[1:] = head + np.cumsum(seg)
    zero_desc = _integral_zero_desc(fn.zero_desc, weight_exp)
    # a terminal +inf block in fn makes the integral jump after the junction
    if np.isinf(vals).any():
        fin = np.flatnonzero(np.isfinite(vals))
        junction = t[int(fin[-1])] if fin.size else t[0]
        inf_desc = infinite_beyond_desc(float(junction))
    else:
        inf_desc = _integral_inf_desc(fn, weight_exp, acc[-1])
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


def _integral_inf_desc(fn, w, total):
    """Descriptor above the grid of the integral of F(t) t**w, whose value
    at the last node is total: a convergent integral tends to total plus
    its part beyond the grid."""
    d = fn.inf_desc
    if d.kind == INFINITE_BEYOND:
        return d
    if d.kind == EXPONENTIAL:
        return exponential_desc(d.gamma)
    p, alpha = (d.p, d.alpha) if d.kind == POWER_LOG else (0.0, 0.0)  # limit-const
    e = p + w + 1.0
    if e > 0:
        return power_log_desc(e, alpha)
    if e == 0 and alpha >= -1.0:
        return power_log_desc(0.0, alpha + 1.0)
    return limit_const_desc(total + _integral_off_grid(fn, fn.t[-1:], w, False)[0])
