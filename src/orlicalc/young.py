"""Calculus of quasi-convex and Young functions.

A Young function is defined by its non-decreasing derivative table: A(x)
is the derivative's integral, exact per segment, and the value table is a
cache of it on the same nodes.  Convex conjugation is computed through the
inverse of the derivative (exact on power segments) rather than through a
raw sup-scan.  Growth-condition and domination verdicts are decided from
the asymptotic descriptors at each end, which every table carries (a
numeric-only input end holds the power of its edge segment), and from a
scan of the grid between them; a scan that finds no constant is
``undecided``, never ``holds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .monotone import (
    EXP_RECIPROCAL,
    EXPONENTIAL,
    GLOBAL,
    INF,
    INFINITE_BEYOND,
    LIMIT_CONST,
    NEAR_INFINITY,
    NEAR_ZERO,
    NUMERIC_DESC,
    NUMERIC_ONLY,
    POWER_LOG,
    REGIMES,
    ZERO_ON_INTERVAL,
    AsymptoticDescriptor,
    MonotoneFn,
    _integral_off_grid,
    _power_segment_integral,
    cumulative_integral,
    default_grid,
    exp_reciprocal_desc,
    exponential_desc,
    geometric_grid,
    infinite_beyond_desc,
    power_log_desc,
    zero_on_interval_desc,
)

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an up-to-constant decision, with an optional witness.

    ``witness`` carries the certifying constant for a positive verdict or
    the offending point for a negative one; ``undecided`` is the answer
    where the scan of a grid finds no constant.
    """

    status: str
    witness: Optional[float] = None
    reason: str = ""

    def __bool__(self):
        return self.status == HOLDS


def holds(witness=None, reason=""):
    return Verdict(HOLDS, witness, reason)


def fails(witness=None, reason=""):
    return Verdict(FAILS, witness, reason)


def undecided(reason=""):
    return Verdict(UNDECIDED, None, reason)


class QuasiConvexFn:
    """A left-continuous function with A(0)=0 whose ratio A(t)/t is non-decreasing."""

    def __init__(self, base: MonotoneFn, validate=True):
        if validate:
            _check_ratio_monotone(base)
        self.base = base
        self.gw = None  # the convex companion, filled by diagonality.build_gw

    def __call__(self, x):
        return self.base(x)

    @property
    def t_zero(self):
        return self.base.t_zero

    @property
    def t_inf(self):
        return self.base.t_inf

    @cached_property
    def char_profile(self) -> MonotoneFn:
        """The norm of characteristic functions by measure, built on first
        use: the correlative of the right-continuous inverse of the table,
        which is 0 at 0 as that inverse is +inf at +inf."""
        return self.base.right_inverse().correlative()

    def correlative(self):
        return QuasiConvexFn(self.base.correlative(), validate=False)


class YoungFn(QuasiConvexFn):
    """A convex Young function, defined by its non-decreasing derivative:
    A(x) is the integral of ``derivative`` over (0, x], exact per segment.
    ``base``, the value table, caches that integral on the derivative's
    nodes; its log-log interpolant ``A.base(x)`` is what the growth scans
    and the inverse tables read."""

    def __init__(self, base: MonotoneFn, derivative: MonotoneFn, recipe=None):
        super().__init__(base, validate=False)
        self.derivative = derivative
        self.recipe = recipe or {"class": "table"}

    def inverse(self):
        """Right-continuous inverse of the function table."""
        return self.base.right_inverse()

    def __call__(self, x):
        """A(x) as the integral of the derivative over (0, x].

        Array in, array of the same shape out; a scalar gives a ``float``.
        Each point's value depends on that point alone, so any batch or
        row of points gives bit for bit what calls on single points give.
        A divergent or overflowing tail gives ``+inf``, never an exception.
        """
        arr = np.asarray(x, dtype=float)
        out = _exact_value(self, arr.ravel()).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    def integral_inverse(self, s):
        """Right-continuous inverse of A: sup{tau : A(tau) <= s}.

        Array in, array of the same shape out; a scalar gives a ``float``.
        A level the function never exceeds gives ``+inf``, never an
        exception.
        """
        arr = np.asarray(s, dtype=float)
        out = _integral_inverse(self, arr.ravel()).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out


def _check_ratio_monotone(base, tol=1e-9):
    t, v = base.t, base.v
    fin = np.isfinite(v) & (v > 0)
    ratio = v[fin] / t[fin]
    if ratio.size >= 2:
        drop = np.diff(ratio) < -tol * np.maximum(ratio[:-1], 1e-300)
        if drop.any():
            k = int(np.flatnonzero(drop)[0])
            raise ValueError(
                f"ratio A(t)/t decreases near t={t[fin][k]:.6g}; not quasi-convex")


# -- constructors ---------------------------------------------------------


def _grid_for_power(p):
    """Default grid clipped so that t**p stays inside double range."""
    span = 290.0 / max(abs(p), 1.0)
    lo = max(-8.0, -span)
    hi = min(8.0, span)
    return default_grid(lo, hi) if hi - lo >= 0.25 else geometric_grid(10 ** lo, 10 ** hi)


def power_young(p, coef=1.0):
    """A(t) = coef * t**p for p >= 1; exact at and between grid points."""
    if not 1.0 <= p < INF:
        raise ValueError(f"a convex power needs a finite exponent p >= 1, not {p!r}")
    if not 0.0 < coef < INF:
        raise ValueError(f"a power needs a finite coef > 0, not {coef!r}")
    t = _grid_for_power(p)
    base = MonotoneFn(t, coef * t ** p, power_log_desc(p), power_log_desc(p),
                      validate=False)
    deriv = MonotoneFn(t, coef * p * t ** (p - 1.0), power_log_desc(p - 1.0),
                       power_log_desc(p - 1.0), validate=False)
    return YoungFn(base, deriv, recipe={"class": "power-log", "p": p, "coef": coef})


def power_log_young(p, alpha_zero=0.0, alpha_inf=0.0):
    """A Young function with A ~ t**p log(1/t)**a0 near 0 and t**p log(t)**ai near inf.

    Built from the derivative profile p t**(p-1) (1+|log t|)**alpha so the
    result is exactly convex; the profile must be non-decreasing, which
    restricts the admissible sign of alpha at each end when p == 1.
    """
    if not 1.0 <= p < INF:
        raise ValueError(f"need a finite p >= 1, not {p!r}")
    for name, alpha in (("alpha_zero", alpha_zero), ("alpha_inf", alpha_inf)):
        if not math.isfinite(alpha):
            raise ValueError(f"{name} must be finite, not {alpha!r}")
    if alpha_zero == 0.0 and alpha_inf == 0.0:
        return power_young(p)
    t = _grid_for_power(p)
    logt = np.log(t)
    fac = np.empty_like(t)
    neg = logt < 0
    fac[neg] = (1.0 - logt[neg]) ** alpha_zero
    fac[~neg] = (1.0 + logt[~neg]) ** alpha_inf
    a_vals = p * t ** (p - 1.0) * fac
    if np.any(np.diff(a_vals) < -1e-12 * a_vals[:-1]):
        raise ValueError("derivative profile not monotone; inadmissible (p, alpha) pair")
    deriv = MonotoneFn(t, a_vals, power_log_desc(p - 1.0, alpha_zero),
                       power_log_desc(p - 1.0, alpha_inf), validate=False)
    base = cumulative_integral(deriv)
    base = MonotoneFn(base.t, base.v, power_log_desc(p, alpha_zero),
                      power_log_desc(p, alpha_inf), value_at_zero=0.0, validate=False)
    return YoungFn(base, deriv,
                   recipe={"class": "power-log", "p": p, "alpha_zero": alpha_zero,
                           "alpha_inf": alpha_inf})


def exp_young(gamma):
    """A Young function growing like exp(t**gamma) near infinity.

    The derivative is exp(t**gamma) - 1, which is non-decreasing for
    gamma > 0 and behaves like t**gamma near zero.
    """
    if not 0 < gamma < INF:
        raise ValueError("need a finite gamma > 0")
    try:
        hi = 650.0 ** (1.0 / gamma)
    except OverflowError:
        raise ValueError(f"gamma {gamma:g} is too small: the table would end "
                         "at 650**(1/gamma), past the float range") from None
    t = geometric_grid(1e-8, hi, per_decade=64)
    with np.errstate(over="ignore"):
        a_vals = np.expm1(t ** gamma)
    deriv = MonotoneFn(t, a_vals, power_log_desc(gamma), exponential_desc(gamma),
                       validate=False)
    base = cumulative_integral(deriv)
    base = MonotoneFn(base.t, base.v, power_log_desc(gamma + 1.0),
                      exponential_desc(gamma), value_at_zero=0.0, validate=False)
    return YoungFn(base, deriv, recipe={"class": "exponential", "gamma": gamma})


def linfty_young(threshold=1.0):
    """The sup-norm generator: 0 on [0, threshold], +inf beyond."""
    c = float(threshold)
    if not 0 < c < INF:
        raise ValueError("need a finite threshold > 0")
    t = np.array([c * 1e-8, c, c * (1 + 2 ** -40), c * 1e8])
    v = np.array([0.0, 0.0, INF, INF])
    base = MonotoneFn(t, v, zero_on_interval_desc(c), infinite_beyond_desc(c),
                      validate=False)
    deriv = base
    return YoungFn(base, deriv, recipe={"class": "linfty", "threshold": c})


def young_from_derivative(deriv: MonotoneFn, recipe=None):
    """Integrate a non-decreasing derivative table into a Young function."""
    base = cumulative_integral(deriv)
    if np.isinf(base.v).all():
        raise IntegralDiverges("derivative is not integrable at zero")
    return YoungFn(base, deriv, recipe=recipe)


def convex_minorant(t, v):
    """Greatest convex minorant of sampled points (linear coordinates);
    leaves exactly convex data untouched, removes numerical dents."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    fin = np.isfinite(v)
    hull_t, hull_v = [], []
    for x, y in zip(t[fin], v[fin]):
        while len(hull_t) >= 2:
            (x1, y1), (x2, y2) = (hull_t[-2], hull_v[-2]), (hull_t[-1], hull_v[-1])
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull_t.pop()
                hull_v.pop()
            else:
                break
        hull_t.append(x)
        hull_v.append(y)
    out = v.copy()
    out[fin] = np.interp(t[fin], hull_t, hull_v)
    return out


def young_from_values(t, v, zero_desc=NUMERIC_DESC, inf_desc=NUMERIC_DESC,
                      recipe=None, convexify=False, value_at_zero=None,
                      value_at_inf=None):
    """Build a Young function from convex samples (or from their greatest
    convex minorant, with ``convexify``).

    The derivative is the step function of the chord slopes, each step on
    a node pair one ulp apart, so that its integral from sample to sample
    is the chord's rise.  Below the samples it takes the form of the zero
    descriptor, scaled so that its integral is the first sample; above
    them, the power of the inf descriptor, from no lower than the last
    chord slope (a numeric-only end is the power of the samples' edge
    segment).  The value table is the derivative's integral on its nodes,
    with that integral's descriptors, which name the class A follows off
    the grid, and with the end values given (its descriptors' where none
    are); it gives each sample back to a few ulp.  A slope that falls, the
    head's and the tail's included, raises ValueError naming the node,
    unless the fall is within 1e-9 or the chords' rounding: the later
    slopes are then raised to it.
    """
    if convexify:
        v = convex_minorant(t, v)
    samples = MonotoneFn(t, v, zero_desc, inf_desc, value_at_zero=value_at_zero,
                         value_at_inf=value_at_inf)
    t, v = samples.t, samples.v
    k = samples._i_last_fin
    if k < 0 or (v[:k + 1] == 0).all() and samples.t_inf == INF:
        raise ValueError("a Young function may not vanish identically")
    d0 = _derivative_desc(samples.zero_desc, (ZERO_ON_INTERVAL, EXP_RECIPROCAL))
    if v[0] == 0.0 and d0.kind != ZERO_ON_INTERVAL:
        d0 = zero_on_interval_desc(t[0])
    d1 = _derivative_desc(samples.inf_desc, (EXPONENTIAL, INFINITE_BEYOND))
    head = float(_integral_off_grid(MonotoneFn(t[:1], [1.0], d0, validate=False),
                                    t[:1], 0.0, True)[0])
    if v[0] > 0.0 and not 0.0 < head < INF:
        raise ValueError(f"the zero descriptor's head cannot integrate to the "
                         f"first sample at t={t[0]:.6g}")
    tk, vk = t[:k + 1], v[:k + 1]
    steps = np.concatenate(([v[0] / head if v[0] > 0.0 else 0.0], np.diff(vk) / np.diff(tk)))
    tail = steps[-1]
    if k == t.size - 1 and d1.kind == POWER_LOG:
        tail = max(tail, (d1.p + 1.0) * v[k] / t[k])
    steps = np.append(steps, tail)
    err = 1e-9 * steps
    err[1:-1] += 4.0 * np.finfo(float).eps * (vk[:-1] + vk[1:] + steps[1:-1]
                                              * (tk[:-1] + tk[1:])) / np.diff(tk)
    fall = steps[1:] < steps[:-1] - err[1:] - err[:-1]
    if fall.any():
        raise ValueError(f"the samples are not convex: the slope falls at "
                         f"t={t[int(np.flatnonzero(fall)[0])]:.6g}")
    steps = np.maximum.accumulate(steps)
    # sample i carries the step on its left, the node one ulp above it the
    # step on its right, left out where the two are equal; the integral over
    # that ulp is taken off the chord's rise, so that the step after it
    # still ends on the next sample, as far as the steps stay in order
    above = np.nextafter(tk, INF)
    pair = (steps[1:] != steps[:-1]) & (above < np.append(t[1:], INF)[:k + 1])
    start = np.where(pair, above, tk)
    fill = _power_segment_integral(steps[:-1], steps[1:], tk, start)
    steps[1:-1] = np.clip((np.diff(vk) - fill[:-1]) / (tk[1:] - start[:-1]),
                          steps[1:-1], steps[2:])
    grid = np.column_stack((tk, above)).ravel()
    vals = np.column_stack((steps[:-1], steps[1:])).ravel()
    keep = np.ones(grid.size, dtype=bool)
    keep[1::2] = pair
    deriv = MonotoneFn(np.append(grid[keep], t[k + 1:]),
                       np.append(vals[keep], v[k + 1:]), d0, d1, validate=False)
    table = cumulative_integral(deriv)
    base = MonotoneFn(table.t, table.v, table.zero_desc, table.inf_desc,
                      value_at_zero=value_at_zero, value_at_inf=value_at_inf,
                      validate=False)
    return YoungFn(base, deriv, recipe=recipe)


def _derivative_desc(d, keep):
    """The derivative's descriptor at one end of a Young function whose
    descriptor there is d: a kind in ``keep`` carries over, and a power
    (a limit-const end is the power 0) drops by one, to no less than 0."""
    if d.kind in keep:
        return d
    return power_log_desc(max(d.p - 1.0, 0.0), d.alpha)


def young_from_callable(f, zero_desc=NUMERIC_DESC, inf_desc=NUMERIC_DESC,
                        grid=None, recipe=None):
    t = default_grid() if grid is None else np.asarray(grid, dtype=float)
    with np.errstate(over="ignore"):
        v = np.asarray(f(t), dtype=float)
    keep = v <= 1e290
    if not keep.all():
        t, v = t[keep], v[keep]
    return young_from_values(t, v, zero_desc, inf_desc, recipe=recipe)


class IntegralDiverges(ValueError):
    """Raised when a defining integral is +inf for every positive argument."""


# -- exact evaluation through the derivative ---------------------------------
#
# Each branch below works on a whole array of query points: the segment of
# the derivative table that holds each point, and off the table the closed
# form of monotone._integral_off_grid below the grid and of a power tail
# above it.  Only a tail with no closed form (exponential, or a log factor)
# is integrated on an extension grid, whose nodes sit at fixed places.


def _pure_power_exponent(d):
    """Exponent of the pure power a table follows off its grid at the end
    with descriptor d, or None."""
    if d.kind == POWER_LOG and d.alpha == 0.0:
        return d.p
    if d.kind == LIMIT_CONST:
        return 0.0
    return None


def _integral_from(a, lo, x):
    """Integral of the derivative over [lo, x] for each x >= lo, exact per
    segment of the grid lo * 10**(k/16), k = 0, 1, ..., cut at max(x).

    The nodes sit at fixed places and the sums run from lo upward, so a
    point's value does not depend on the other points of the batch.
    """
    hi = float(x.max())
    k = np.arange(math.ceil(16.0 * (math.log10(hi) - math.log10(lo))) + 1)
    with np.errstate(over="ignore"):
        nodes = np.minimum(lo * 10.0 ** (k / 16.0), hi)
    vals = a(nodes)
    cum = np.concatenate(([0.0], np.cumsum(_power_segment_integral(
        vals[:-1], vals[1:], nodes[:-1], nodes[1:]))))
    j = np.searchsorted(nodes, x, side="right") - 1
    return cum[j] + _power_segment_integral(vals[j], a(x), nodes[j], x)


def _integral_above_grid(A, x):
    """A(x) for finite x beyond the derivative grid."""
    a, base = A.derivative, A.base
    total = float(base.v[-1])
    if math.isinf(total) or a._i_last_fin < a.t.size - 1:
        # infinite already, or the derivative jumps to infinity inside the grid
        return np.full_like(x, INF)
    p = _pure_power_exponent(a.inf_desc)
    aN, tN = float(a.v[-1]), float(a.t[-1])
    if p is None:
        return total + _integral_from(a, tN, x)
    if p == 0.0 and a.inf_desc.kind == LIMIT_CONST:
        aN = a.inf_desc.limit
    with np.errstate(over="ignore"):
        return total + aN * tN * ((x / tN) ** (p + 1.0) - 1.0) / (p + 1.0)


def _exact_value(A, x):
    """Array kernel of :meth:`YoungFn.__call__`: one pass of
    :func:`_grid_value` where every point lies on the derivative's grid,
    and the classes off it patched in only where such a point occurs."""
    a, base = A.derivative, A.base
    t = a.t
    grid = (x >= t[0]) & (x <= t[-1])
    if grid.all():
        return _grid_value(A, x)
    out = np.full_like(x, np.nan)
    out[x <= 0.0] = 0.0
    out[x == INF] = base.value_at_inf
    head = (x > 0.0) & (x < t[0])
    if head.any():
        out[head] = _integral_off_grid(a, x[head], 0.0, True)
    tail = (x > t[-1]) & (x < INF)
    if tail.any():
        out[tail] = _integral_above_grid(A, x[tail])
    if grid.any():
        out[grid] = _grid_value(A, x[grid])
    return out


def _grid_value(A, x):
    """A(x) for x in [t[0], t[-1]] of the derivative's grid t: the value at
    the node at or left of x (a node, the last one included, gets its table
    value) plus the derivative's integral from that node to x."""
    a = A.derivative
    i = np.searchsorted(a.t, x, side="right") - 1
    return A.base.v[i] + _power_segment_integral(a.v[i], a._interp(x, i), a.t[i], x)


def _bisect_log(A, s, lo, hi, steps=80):
    """The largest tau in [lo, hi] with A(tau) <= s, for each s, by
    bisection of the log scale; lo must satisfy the bound."""
    for _ in range(steps):
        mid = np.sqrt(lo) * np.sqrt(hi)
        low = A(mid) <= s
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return lo


def _inverse_below_table(A, s):
    a, base = A.derivative, A.base
    p = _pure_power_exponent(a.zero_desc) if a._i_first_pos == 0 else None
    if p is not None and a.v[0] > 0:
        ta = float(a.t[0])
        va = a.zero_desc.limit if a.zero_desc.kind == LIMIT_CONST else float(a.v[0])
        return (s * (p + 1.0) * ta ** p / va) ** (1.0 / (p + 1.0))
    t0 = base.t[0]
    return _bisect_log(A, s, np.full_like(s, t0 * 1e-60), np.full_like(s, t0))


def _inverse_above_table(A, s):
    a, base = A.derivative, A.base
    if base.t_inf < INF or np.isinf(base.v[-1]):
        return np.full_like(s, base.t[base._i_last_fin])
    p = _pure_power_exponent(a.inf_desc)
    aN, tN, A_N = float(a.v[a._i_last_fin]), float(base.t[-1]), float(base.v[-1])
    if p is not None and aN > 0:
        if p == 0.0 and a.inf_desc.kind == LIMIT_CONST:
            aN = a.inf_desc.limit
        return tN * ((s - A_N) * (p + 1.0) / (aN * tN) + 1.0) ** (1.0 / (p + 1.0))
    # non-power tails grow at least linearly: bounded doubling, then bisection
    hi = np.full_like(s, tN)
    short = np.ones(s.shape, dtype=bool)
    for _ in range(1100):
        hi[short] *= 2.0
        short[short] = A(hi[short]) < s[short]
        if not short.any():
            break
    out = _bisect_log(A, s, np.full_like(s, tN), hi)
    out[short] = INF
    return out


def _inverse_in_table(A, s):
    a, base = A.derivative, A.base
    nodes_t, nodes_v = base.t, base.v
    i = np.clip(np.searchsorted(nodes_v, s, side="right") - 1, 0, nodes_t.size - 2)
    tl, tr = nodes_t[i], nodes_t[i + 1]
    al, ar = a.v[i], a.v[i + 1]
    need = s - nodes_v[i]
    out = np.empty_like(s)
    exact = need == 0.0
    out[exact] = tl[exact]
    far = (np.isinf(ar) | ((ar == 0.0) & (al == 0.0))) & ~exact
    out[far] = tr[far]  # flat or jump segment: the crossing is at the far node
    ramp = (al == 0.0) & ~far & ~exact
    if ramp.any():
        c = ar[ramp] / (tr[ramp] - tl[ramp])
        out[ramp] = tl[ramp] + np.sqrt(2.0 * need[ramp] / c)
    pw = ~(exact | far | ramp)
    if pw.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(ar[pw] == al[pw], 0.0,
                             np.log(ar[pw] / al[pw]) / np.log(tr[pw] / tl[pw]))
            e = sigma + 1.0
            out[pw] = tl[pw] * ((need[pw] * e) / (al[pw] * tl[pw]) + 1.0) ** (1.0 / e)
    return out


def _integral_inverse(A, s):
    """Array kernel of :meth:`YoungFn.integral_inverse`."""
    base = A.base
    nodes_v = base.v
    out = np.full_like(s, np.nan)
    out[s <= 0.0] = base.t_zero
    out[s == INF] = INF
    live = (s > 0.0) & np.isfinite(s)
    below = live & ((s < nodes_v[0]) | (base._i_last_fin < 0))
    if below.any():
        out[below] = _inverse_below_table(A, s[below])
    above = live & ~below & (s >= nodes_v[base._i_last_fin])
    if above.any():
        out[above] = _inverse_above_table(A, s[above])
    inside = live & ~below & ~above
    if inside.any():
        out[inside] = _inverse_in_table(A, s[inside])
    return out


# -- conjugation and convexification --------------------------------------


def _conjugate_desc_inf(d):
    """Descriptor of the conjugate near infinity from A's near infinity."""
    if d.kind == POWER_LOG:
        if d.p > 1:
            q = d.p / (d.p - 1.0)
            return power_log_desc(q, -d.alpha / (d.p - 1.0))
        if d.p == 1 and d.alpha > 0:
            return exponential_desc(1.0 / d.alpha)
        if d.p == 1 and d.alpha == 0:
            return infinite_beyond_desc(0.0)  # threshold refined from the table
    if d.kind == EXPONENTIAL:
        return power_log_desc(1.0, 1.0 / d.gamma)
    if d.kind == INFINITE_BEYOND:
        return power_log_desc(1.0, 0.0)
    return NUMERIC_DESC


def _conjugate_desc_zero(d):
    """Descriptor of the conjugate near zero from A's near zero, or
    NUMERIC_DESC where the conjugate keeps its table's own: for a linear A
    that is the interval [0, A'(0+)) on which the conjugate vanishes."""
    if d.kind == POWER_LOG:
        if d.p > 1:
            q = d.p / (d.p - 1.0)
            return power_log_desc(q, -d.alpha / (d.p - 1.0))
        if d.p == 1 and d.alpha < 0:
            return exp_reciprocal_desc(-1.0 / d.alpha)
    if d.kind == ZERO_ON_INTERVAL:
        return power_log_desc(1.0, 0.0)
    return NUMERIC_DESC


def conjugate(A: YoungFn) -> YoungFn:
    """The convex conjugate sup{tau t - A(tau)}, via the derivative inverse."""
    a_inv = A.derivative.right_inverse()
    base = cumulative_integral(a_inv)
    zd = _conjugate_desc_zero(A.base.zero_desc)
    di = _conjugate_desc_inf(A.base.inf_desc)
    if di.kind == INFINITE_BEYOND:
        di = infinite_beyond_desc(base.t_inf if base.t_inf < INF else A.derivative.value_at_inf)
    if zd.kind != NUMERIC_ONLY or di.kind != NUMERIC_ONLY:
        keep_z = zd if zd.kind != NUMERIC_ONLY else base.zero_desc
        keep_i = di if di.kind != NUMERIC_ONLY else base.inf_desc
        base = MonotoneFn(base.t, base.v, keep_z, keep_i, value_at_zero=0.0,
                          validate=False)
    recipe = {"class": "conjugate", "of": A.recipe}
    return YoungFn(base, a_inv, recipe=recipe)


def youngify(B: QuasiConvexFn) -> YoungFn:
    """The Young function sandwiched around a quasi-convex one: the integral
    of B(tau)/tau, which satisfies A <= B <= A(2 .)."""
    g = B.base
    slope = MonotoneFn(g.t, np.where(np.isfinite(g.v), g.v, INF) / g.t,
                       _ratio_zero_desc(g.zero_desc), _ratio_inf_desc(g.inf_desc),
                       validate=False)
    base = cumulative_integral(slope)
    if not np.isfinite(base.v).any():
        raise IntegralDiverges("B(t)/t is not integrable at zero")
    return YoungFn(base, slope, recipe={"class": "youngified"})


def _ratio_zero_desc(d):
    """Descriptor of B(t)/t near zero from B's near zero."""
    if d.kind == POWER_LOG:
        return power_log_desc(d.p - 1.0, d.alpha)
    return d if d.kind in (ZERO_ON_INTERVAL, EXP_RECIPROCAL) else NUMERIC_DESC


def _ratio_inf_desc(d):
    """Descriptor of B(t)/t near infinity from B's near infinity."""
    if d.kind == POWER_LOG:
        return power_log_desc(d.p - 1.0, d.alpha)
    if d.kind in (INFINITE_BEYOND, EXPONENTIAL):
        return d
    return NUMERIC_DESC


# -- growth conditions ----------------------------------------------------


def _regime_slice(fn, regime):
    """The outer two decades of the table's finite values at one end, on
    which a symbolic ``holds`` of :func:`dominates` refines its witness."""
    t = fn.t
    if regime == NEAR_ZERO:
        return t[t <= t[0] * 100.0]
    tf = t[np.isfinite(fn.v)]
    return tf[tf >= tf[-1] / 100.0] if tf.size else t[:1]


def _desc_for_regime(fn, regime):
    return fn.zero_desc if regime == NEAR_ZERO else fn.inf_desc


def delta2(A: QuasiConvexFn, regime=GLOBAL) -> Verdict:
    """Doubling condition: A(2t) <= C A(t) on the regime."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    base = A.base
    if regime == GLOBAL:
        near0 = delta2(A, NEAR_ZERO)
        nearI = delta2(A, NEAR_INFINITY)
        mid = _doubling_scan(base, base.t)
        if near0.status == FAILS or nearI.status == FAILS or mid.status == FAILS:
            return fails(reason="doubling ratio unbounded")
        if near0.status == HOLDS and nearI.status == HOLDS and mid.status == HOLDS:
            c = max(near0.witness, nearI.witness, mid.witness)
            return holds(c, reason="doubling ratio bounded on all regimes")
        return undecided("doubling scan of the grid inconclusive")
    d = _desc_for_regime(base, regime)
    if d.kind == POWER_LOG:
        return holds(2.0 ** d.p * 1.5, reason="power-log class doubles")
    if d.kind == LIMIT_CONST:
        return holds(2.0, reason="bounded class doubles")
    if d.kind == ZERO_ON_INTERVAL:
        return holds(1.0, reason="vanishes near zero")
    if d.kind == EXPONENTIAL:
        return fails(reason="exponential growth is not doubling")
    if d.kind == EXP_RECIPROCAL:
        return fails(reason="vanishes double-exponentially fast at zero")
    return fails(witness=d.threshold, reason="finite jump threshold")  # infinite-beyond


def _doubling_scan(base, window, cap=1e6):
    """Numeric doubling-ratio scan; honest three-state outcome."""
    t = window[window * 2.0 <= base.t[-1] * 1.0001]
    if t.size == 0:
        return undecided("window too small for a doubling scan")
    v1 = base(t)
    v2 = base(2.0 * t)
    pos = v1 > 0
    if np.isinf(v2[pos]).any():
        return fails(reason="doubling crosses the jump threshold")
    if not pos.any():
        return holds(1.0, reason="vanishes on window")
    ratio = np.max(v2[pos] / v1[pos])
    if ratio < cap:
        return holds(float(ratio), reason="doubling ratio bounded on window")
    return undecided("large doubling ratio on the grid scan")


def nabla2(A: QuasiConvexFn, regime=GLOBAL) -> Verdict:
    """Reverse doubling: 2c A(t) <= A(c t) for some c, on the regime."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    base = A.base
    if regime == GLOBAL:
        near0 = nabla2(A, NEAR_ZERO)
        nearI = nabla2(A, NEAR_INFINITY)
        if near0.status == FAILS or nearI.status == FAILS:
            return fails(reason="reverse doubling fails in a tail regime")
        mid = _reverse_scan(base, base.t)
        if mid.status != HOLDS:
            return mid
        return holds(max(near0.witness, nearI.witness, mid.witness),
                     reason="reverse doubling on all regimes")
    d = _desc_for_regime(base, regime)
    if d.kind == POWER_LOG:
        if d.p > 1:
            c = 2.0 ** (1.0 / (d.p - 1.0)) * 1.25
            return holds(c, reason="super-linear power class")
        if d.p == 1:
            if regime == NEAR_ZERO and d.alpha < 0:
                return holds(2.0, reason="log factor vanishes at zero")
            if regime == NEAR_INFINITY and d.alpha > 0:
                return holds(2.0, reason="log factor grows at infinity")
            return fails(reason="linear class has no reverse doubling")
        return fails(reason="sub-linear class")
    if d.kind in (EXPONENTIAL, EXP_RECIPROCAL):
        return holds(2.0, reason="exponential-scale growth")
    if d.kind == INFINITE_BEYOND:
        return holds(2.0, reason="jump to infinity dominates any multiple")
    if d.kind == ZERO_ON_INTERVAL:
        return holds(2.0, reason="vanishes near zero")
    return fails(reason="bounded class cannot reverse-double")  # limit-const


def _reverse_scan(base, window):
    v1 = base(window)
    pos = np.isfinite(v1) & (v1 > 0)
    if not pos.any():
        return holds(2.0, reason="degenerate window")
    t = window[pos]
    v1 = v1[pos]
    for k in range(1, 24):
        c = 2.0 ** k
        v2 = base(c * t)
        ok = v2 >= 2.0 * c * v1
        if np.all(ok | np.isinf(v2)):
            return holds(float(c), reason="reverse doubling constant found")
    return undecided("no reverse doubling constant up to 2**23")


# -- domination ------------------------------------------------------------


_CLASS_ORDER_INF = {LIMIT_CONST: 1, POWER_LOG: 2, EXPONENTIAL: 3, INFINITE_BEYOND: 4}

# Exponents that a chain of transforms carries through float arithmetic
# (a conjugate, its transform and an averaged profile) come back an ulp or
# two off: 4 returns as 4.000000000000001.  Closer than this is one class.
_EXPONENT_TOL = 1e-12


def _same_exponent(x, y):
    return math.isclose(x, y, rel_tol=_EXPONENT_TOL, abs_tol=_EXPONENT_TOL)


def _symbolic_dominates_inf(db, da):
    """Decide 'B eventually below a dilation of A' from near-infinity classes."""
    kb, ka = db.kind, da.kind
    if kb == ka == POWER_LOG:
        same_p = _same_exponent(db.p, da.p)
        if same_p and _same_exponent(db.alpha, da.alpha):
            return holds(1.0, reason="identical power-log class")
        if (db.alpha <= da.alpha) if same_p else (db.p < da.p):
            return holds(1.0, reason="power-log order near infinity")
        return fails(reason="power-log order near infinity")
    if kb == ka == EXPONENTIAL:
        if db.gamma <= da.gamma or _same_exponent(db.gamma, da.gamma):
            return holds(1.0, reason="exponential rate order")
        return fails(reason="exponential rate order")
    if kb == ka == INFINITE_BEYOND:
        # B is +inf past t_B, so A(K t) must be +inf there: K t_B >= t_A
        return holds(max(1.0, da.threshold / db.threshold) * 1.0000001,
                     reason="jump thresholds rescale")
    ob, oa = _CLASS_ORDER_INF[kb], _CLASS_ORDER_INF[ka]
    if ob < oa:
        return holds(1.0, reason="strictly slower growth class near infinity")
    if ob > oa:
        return fails(reason="strictly faster growth class near infinity")
    return holds(1.0, reason="matching degenerate classes")


_CLASS_ORDER_ZERO = {LIMIT_CONST: 0, POWER_LOG: 1, EXP_RECIPROCAL: 2, ZERO_ON_INTERVAL: 3}


def _symbolic_dominates_zero(db, da):
    """Decide 'B below a dilation of A near zero' (larger class = smaller values)."""
    kb, ka = db.kind, da.kind
    if kb == ka == POWER_LOG:
        same_p = _same_exponent(db.p, da.p)
        if same_p and _same_exponent(db.alpha, da.alpha):
            return holds(1.0, reason="identical power-log class")
        if (db.alpha <= da.alpha) if same_p else (db.p > da.p):
            return holds(1.0, reason="power-log order near zero")
        return fails(reason="power-log order near zero")
    if kb == ka == EXP_RECIPROCAL:
        if db.gamma >= da.gamma or _same_exponent(db.gamma, da.gamma):
            return holds(1.0, reason="reciprocal-exponential rate order")
        return fails(reason="reciprocal-exponential rate order")
    if kb == ka == ZERO_ON_INTERVAL:
        return holds(max(1.0, da.threshold / max(db.threshold, 1e-300)),
                     reason="vanishing thresholds rescale")
    ob, oa = _CLASS_ORDER_ZERO[kb], _CLASS_ORDER_ZERO[ka]
    if ob > oa:
        return holds(1.0, reason="vanishes faster near zero")
    if ob < oa:
        return fails(reason="vanishes slower near zero")
    return holds(1.0, reason="matching degenerate classes")


def dominates(A: QuasiConvexFn, B: QuasiConvexFn, regime=GLOBAL) -> Verdict:
    """Decide whether B sits below a dilation of A: B(t) <= A(K t) on the regime.

    Each tail regime compares the descriptors, and a ``holds`` there takes
    the larger of its constant and the one a search over dyadic dilations
    finds on the outer two decades of B's grid.  The global regime takes
    the descriptors' verdicts and one search of the whole grid, and is
    ``undecided`` where that finds no constant.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    a, b = A.base, B.base
    if regime == GLOBAL:
        # the search over B's whole grid finds a constant no smaller than
        # the ones the tail regimes' windows, parts of that grid, refine to
        low = _symbolic_dominates_zero(b.zero_desc, a.zero_desc)
        high = _symbolic_dominates_inf(b.inf_desc, a.inf_desc)
        if low.status == FAILS or high.status == FAILS:
            return fails(reason="tail regime fails")
        mid = _dilation_search(a, b, b.t)
        if mid.status != HOLDS:
            return mid
        return holds(max(low.witness, high.witness, mid.witness), reason="all regimes")
    if regime == NEAR_INFINITY:
        sym = _symbolic_dominates_inf(b.inf_desc, a.inf_desc)
    else:
        sym = _symbolic_dominates_zero(b.zero_desc, a.zero_desc)
    if sym.status == HOLDS:
        # refine the witness constant on the regime window, which holds
        # only finite values: a threshold's constant bounds it from below
        num = _dilation_search(a, b, _regime_slice(b, regime))
        if num.status == HOLDS:
            return holds(max(sym.witness, num.witness), reason=sym.reason)
    return sym


def _dilation_search(a, b, window, max_pow=40):
    vb = b(window)
    care = np.isfinite(vb) & (vb > 0)
    if not care.any():
        return holds(1.0, reason="nothing to dominate on window")
    t = window[care]
    vb = vb[care]
    for k in range(0, max_pow + 1):
        K = 2.0 ** k
        va = a(K * t)
        if np.all(vb <= va * (1 + 1e-9)):
            return holds(K, reason="dilation constant found on window")
    return undecided("no dyadic dilation constant up to 2**40")


# -- JSON wire format -------------------------------------------------------


def _num_to_json(x):
    return "inf" if math.isinf(x) else float(x)


def _num_from_json(x):
    return INF if x == "inf" else float(x)


# Descriptor fields each kind uses; every other field keeps its default.
_DESC_FIELDS = {
    POWER_LOG: ("p", "alpha"),
    EXPONENTIAL: ("gamma",),
    EXP_RECIPROCAL: ("gamma",),
    ZERO_ON_INTERVAL: ("threshold",),
    INFINITE_BEYOND: ("threshold",),
    LIMIT_CONST: ("limit",),
    NUMERIC_ONLY: (),
}


def _desc_to_json(d):
    out = {"kind": d.kind}
    for name in _DESC_FIELDS[d.kind]:
        out[name] = _num_to_json(getattr(d, name))
    return out


def _desc_from_json(obj):
    kind = obj["kind"]
    if kind not in _DESC_FIELDS:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    fields = {name: _num_from_json(obj[name])
              for name in _DESC_FIELDS[kind] if name in obj}
    return AsymptoticDescriptor(kind, **fields)


def _table_to_json(fn, prefix):
    """The sample table of ``fn`` plus its descriptors and boundary values,
    as the keys ``<prefix>grid``, ``<prefix>zero_desc``, ``<prefix>inf_desc``,
    ``<prefix>value_at_zero`` and ``<prefix>value_at_inf``."""
    v = fn.v.tolist()
    for i in np.flatnonzero(np.isinf(fn.v)).tolist():
        v[i] = "inf"
    return {
        prefix + "grid": list(zip(fn.t.tolist(), v)),
        prefix + "zero_desc": _desc_to_json(fn.zero_desc),
        prefix + "inf_desc": _desc_to_json(fn.inf_desc),
        prefix + "value_at_zero": _num_to_json(fn.value_at_zero),
        prefix + "value_at_inf": _num_to_json(fn.value_at_inf),
    }


def _table_from_json(obj, prefix=""):
    """Inverse of :func:`_table_to_json`; absent descriptors are numeric-only
    and absent boundary values take the table's defaults."""
    grid = obj[prefix + "grid"]
    if not isinstance(grid, list) or not all(
            isinstance(row, (list, tuple)) and len(row) == 2 for row in grid):
        raise ValueError(f"{prefix}grid must be a list of [t, value] pairs")
    t = np.array([row[0] for row in grid], dtype=float)
    v = np.array([_num_from_json(row[1]) for row in grid])
    descs = [_desc_from_json(obj[prefix + key]) if prefix + key in obj else NUMERIC_DESC
             for key in ("zero_desc", "inf_desc")]
    ends = [_num_from_json(obj[prefix + key]) if prefix + key in obj else None
            for key in ("value_at_zero", "value_at_inf")]
    return MonotoneFn(t, v, *descs, value_at_zero=ends[0], value_at_inf=ends[1])


def young_to_json(A: QuasiConvexFn) -> dict:
    """Serialize to the shared schema: a class tag plus parameters, or a
    sampled table.

    A table is ``{"class": "table", "grid": [[t, value], ...]}`` with
    ``"inf"`` as the sentinel for unbounded numbers, plus the behaviour off
    the grid, which carries the growth class:

    - ``zero_desc`` / ``inf_desc``: the asymptotic descriptor at each end,
      ``{"kind": ...}`` with the fields that kind uses (``p`` and ``alpha``
      for ``power-log``; ``gamma`` for ``exponential`` and
      ``exp-reciprocal``; ``threshold`` for ``zero-on-interval`` and
      ``infinite-beyond``; ``limit`` for ``limit-const``; none for
      ``numeric-only``, which a table holds, and so writes, as the
      ``power-log`` of its edge segment);
    - ``value_at_zero`` / ``value_at_inf``: the values at 0 and at +inf.

    A Young function adds its derivative table under the same names with a
    ``derivative_`` prefix, on the same nodes: ``grid`` holds the
    derivative's integrals, and an input whose values are off them by more
    than 1e-9 relative is rejected.  Without a derivative table the grid is
    a set of convex samples (:func:`young_from_values`).  All of these
    except ``grid`` are optional on input: an absent descriptor is
    ``numeric-only`` and an absent boundary value takes the table's
    default, except that a value table with a derivative table takes the
    derivative integral's.  In the returned dict the grid rows are tuples,
    which the garbage collector stops tracking, unlike lists.
    """
    recipe = getattr(A, "recipe", None) or {"class": "table"}
    cls = recipe.get("class")
    if cls == "power-log":
        out = {"class": "power-log", "p": recipe["p"]}
        if recipe.get("coef", 1.0) != 1.0:
            out["coef"] = recipe["coef"]
        if recipe.get("alpha_zero"):
            out["alpha_zero"] = recipe["alpha_zero"]
        if recipe.get("alpha_inf"):
            out["alpha_inf"] = recipe["alpha_inf"]
        return out
    if cls == "exponential":
        return {"class": "exponential", "gamma": recipe["gamma"]}
    if cls == "linfty":
        return {"class": "linfty", "threshold": recipe["threshold"]}
    out = {"class": "table", **_table_to_json(A.base, "")}
    if isinstance(A, YoungFn):
        out.update(_table_to_json(A.derivative, "derivative_"))
    return out


def young_from_json(obj: dict) -> YoungFn:
    if not isinstance(obj, dict):
        raise ValueError("a function description is a JSON object")
    cls = obj.get("class")
    if cls == "power-log":
        p = float(obj["p"])
        coef = float(obj.get("coef", 1.0))
        a0 = float(obj.get("alpha_zero", obj.get("alpha", 0.0)))
        ai = float(obj.get("alpha_inf", obj.get("alpha", 0.0)))
        if a0 == 0.0 and ai == 0.0:
            return power_young(p, coef=coef)
        if coef != 1.0:
            raise ValueError("coef is only supported for pure powers")
        return power_log_young(p, alpha_zero=a0, alpha_inf=ai)
    if cls == "exponential":
        return exp_young(float(obj["gamma"]))
    if cls == "linfty":
        return linfty_young(float(obj.get("threshold", 1.0)))
    if cls == "table":
        table = _table_from_json(obj)
        if "derivative_grid" not in obj:
            return young_from_values(table.t, table.v, table.zero_desc, table.inf_desc,
                                     value_at_zero=table.value_at_zero,
                                     value_at_inf=table.value_at_inf)
        A = young_from_derivative(_table_from_json(obj, "derivative_"))
        t, v, n = A.base.t, A.base.v, min(table.t.size, A.base.t.size)
        with np.errstate(invalid="ignore"):
            off = (table.t[:n] != t[:n]) | (table.v[:n] != v[:n]) \
                & ~(np.abs(table.v[:n] - v[:n]) <= 1e-9 * v[:n])
        i = int(np.argmax(np.append(off, True)))
        if i < max(table.t.size, t.size):
            raise ValueError(f"grid is not the integral of derivative_grid on its "
                             f"nodes at t={np.append(table.t, t[n:])[i]:.6g}")
        # an absent descriptor or end value is the derivative integral's
        ends = {key: getattr(table if key in obj else A.base, key)
                for key in ("zero_desc", "inf_desc", "value_at_zero", "value_at_inf")}
        base = MonotoneFn(t, v, validate=False, **ends)
        return YoungFn(base, A.derivative)
    raise ValueError(f"unknown function class {cls!r}")


def quasi_convex_from_json(obj: dict) -> QuasiConvexFn:
    """Load a generator that is only required to be quasi-convex."""
    if isinstance(obj, dict) and obj.get("class") == "table":
        return QuasiConvexFn(_table_from_json(obj))
    return young_from_json(obj)
