"""Rearrangements and norms of sampled functions on an interval (0, L).

A sampled function is a finite list of (value, width) pieces, optionally
with one unbounded tail whose decreasing profile is a pure power.  Every
norm in the package is then exactly computable: rearrangements are sorts,
modulars are finite sums, averaged rearrangements are piecewise c1 + c2/t,
and suprema against a fundamental function sit at cell ends or closed forms.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import (INF, _cell_integrals, _integral_off_grid, _log_gamma_mass,
                       _power_segment_integral, geometric_grid)
from .young import QuasiConvexFn, YoungFn, _num_from_json, _num_to_json


@dataclass(frozen=True)
class PowerTail:
    """An unbounded leading profile: f*(s) = coef * s**(-expo) on (0, width)."""

    coef: float
    expo: float
    width: float

    def __post_init__(self):
        if not all(0 < x < INF for x in (self.coef, self.expo, self.width)):
            raise ValueError("tail needs finite positive coefficient, exponent and width")

    def value_at(self, s):
        return self.coef * s ** (-self.expo)


class SampledFn:
    """A measurable function on (0, L) given by value/width pieces.

    The pieces are held as two float arrays, ``values`` and ``widths``, and
    ``breaks`` holds their ends laid out from 0 in the order given.  Only
    the multiset of pieces matters to the norms; weights and pairings read
    the layout.  The function is 0 on the rest of the interval.  ``tail``
    adds one unbounded piece whose rearranged profile is coef * s**-expo on
    (0, width).
    """

    def __init__(self, pieces, length=None, tail: Optional[PowerTail] = None):
        try:
            vw = np.array(pieces if isinstance(pieces, (list, tuple, np.ndarray))
                          else list(pieces), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pieces must be [value, width] pairs of numbers: {exc}") from None
        if vw.shape == (0,):
            vw = vw.reshape(0, 2)
        if vw.ndim != 2 or vw.shape[1] != 2:
            raise ValueError("pieces must be [value, width] pairs")
        low = vw.min(axis=0, initial=INF)   # NaN if any entry is NaN
        if not (low[0] >= 0 and low[1] > 0 and vw.max(initial=0.0) < INF):
            ok = (vw[:, 0] >= 0) & (vw[:, 1] > 0) & np.isfinite(vw).all(axis=1)
            i = int(np.argmin(ok))
            raise ValueError(f"piece {i + 1} is {vw[i].tolist()}: a piece needs a finite "
                             "value >= 0 and a finite width > 0")
        # zero-value pieces are kept: they carry layout information for
        # weight-like uses, and rearrangement drops them anyway
        vw = np.ascontiguousarray(vw.T)
        vw.flags.writeable = False
        self.values, self.widths = vw
        self.breaks = np.concatenate(([0.0], np.cumsum(self.widths)))
        self.breaks.flags.writeable = False
        self.tail = tail
        total = float(self.breaks[-1]) + (tail.width if tail else 0.0)
        self.length = total if length is None else float(length)
        if not self.length >= total * (1 - 1e-12):
            raise ValueError("pieces exceed the interval length")
        if tail and self.values.size:
            if tail.value_at(tail.width) < self.values.max() * (1 - 1e-12):
                raise ValueError("the tail profile must sit above every step value")

    @property
    def pieces(self):
        """The pieces as a list of (value, width) floats."""
        return list(zip(self.values.tolist(), self.widths.tolist()))

    @property
    def is_zero(self):
        return self.tail is None and not np.count_nonzero(self.values)

    def scale(self, c):
        """c * |f| for c > 0."""
        tail = None
        if self.tail:
            tail = PowerTail(self.tail.coef * c, self.tail.expo, self.tail.width)
        return SampledFn(np.column_stack((self.values * c, self.widths)), self.length, tail)

    def sup_value(self):
        if self.tail is not None:
            return INF
        return float(self.values.max(initial=0.0))

    def layout(self, x):
        """The pieces laid out from 0 in the order given, at points x >= 0;
        0 beyond the last piece."""
        return np.append(self.values, 0.0)[np.searchsorted(self.breaks, x, side="right") - 1]

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "pieces" not in obj:
            raise ValueError('a sampled function is an object with a "pieces" list')
        length = obj.get("length")
        length = _num_from_json(length) if length is not None else None
        tail = None
        if "tail" in obj:
            t = obj["tail"]
            tail = PowerTail(float(t["coef"]), float(t["expo"]), float(t["width"]))
        return SampledFn(obj["pieces"], length, tail)

    def to_json(self):
        out = {"pieces": np.column_stack((self.values, self.widths)).tolist()}
        if self.length is not None:
            out["length"] = _num_to_json(self.length)
        if self.tail:
            out["tail"] = {"coef": self.tail.coef, "expo": self.tail.expo,
                           "width": self.tail.width}
        return out

    @staticmethod
    def from_csv(text):
        """Rows of value,width.  Blank lines, lines starting with ``#`` and a
        header line before the first row are skipped; any other row that is
        not two finite numbers raises ``ValueError`` naming its line."""
        rows, first = [], True
        for line, row in enumerate(csv.reader(io.StringIO(text)), 1):
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                nums = [float(x) for x in row]
            except ValueError:
                nums = None if first else []
            first = False
            if nums is None:
                continue  # the header
            if len(nums) != 2 or not all(map(math.isfinite, nums)):
                raise ValueError(f"line {line}: expected value,width, got {','.join(row)!r}")
            rows.append(nums)
        return SampledFn(rows)


def characteristic(measure, value=1.0, length=None):
    """value * indicator of a set with the given measure."""
    return SampledFn([(value, measure)], length)


def from_profile(fn, lo, hi, per_decade=64, length=None):
    """Discretize a positive profile on (lo, hi) into geometric steps."""
    edges = geometric_grid(lo, hi, per_decade)
    mids = np.sqrt(edges[:-1] * edges[1:])
    vals = np.asarray(fn(mids), dtype=float)
    widths = np.diff(edges)
    return SampledFn(np.column_stack((vals, widths)), length)


class DecreasingFn:
    """The non-increasing rearrangement as a right-continuous step function,
    possibly preceded by one unbounded power piece on (0, tail.width)."""

    def __init__(self, values, widths, tail: Optional[PowerTail] = None):
        self.values = np.asarray(values, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.tail = tail
        self.breaks = np.zeros(self.widths.size + 1)
        np.add.accumulate(self.widths, out=self.breaks[1:])
        if tail:
            self.breaks += tail.width
        self.support = float(self.breaks[-1])

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        q = np.atleast_1d(arr)
        # 0 before the first break (where the tail is) and past the last
        out = np.concatenate(([0.0], self.values, [0.0]))[
            np.searchsorted(self.breaks, q, side="right")]
        if self.tail:
            m = q < self.tail.width
            out[m] = self.tail.value_at(q[m])
        return float(out[0]) if arr.ndim == 0 else out

    def distribution(self, lam):
        """The measure of the level sets, lam -> |{f* > lam}|: the end of the
        last value above lam, and (coef / lam)**(1 / expo) on the tail."""
        arr = np.asarray(lam, dtype=float)
        q = np.atleast_1d(arr)
        out = self.breaks[np.searchsorted(-self.values, -q)]
        if self.tail:
            t = self.tail
            hi = q >= t.value_at(t.width)
            out[hi] = (t.coef / np.maximum(q[hi], 1e-300)) ** (1.0 / t.expo)
        return float(out[0]) if arr.ndim == 0 else out

    def as_sampled(self, length=None):
        return SampledFn(np.column_stack((self.values, self.widths)), length, self.tail)


def distribution(f: SampledFn):
    """The measure of level sets, lambda -> |{|f| > lambda}|, as a
    non-increasing function of the threshold."""
    return rearrange(f).distribution


def rearrange(f: SampledFn) -> DecreasingFn:
    """Sort the pieces by value (descending) and merge equal values."""
    values, widths = f.values, f.widths
    if values.size > 1:
        order = np.argsort(-values, kind="stable")
        values, widths = values[order], widths[order]
        start = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        if start.size < values.size:
            end = np.append(start[1:], values.size)
            merged = widths[start]
            # the widths of equal values add up left to right
            for k in np.flatnonzero(end - start > 1).tolist():
                merged[k] = np.add.accumulate(widths[start[k]:end[k]])[-1]
            values, widths = values[start], merged
    # zero values sort last and are dropped
    n = np.count_nonzero(values)
    return DecreasingFn(values[:n], widths[:n], f.tail)


class AveragedDecreasing:
    """t -> (1/t) * integral of the rearrangement over (0, t).

    The pieces tile (0, support) left to right; piece k ends at hi[k] and
    is c1[k] * t**c2[k] where power[k], c1[k] + c2[k] / t elsewhere."""

    def __init__(self, hi, power, c1, c2, total, support):
        self.hi, self.power, self.c1, self.c2 = hi, power, c1, c2
        self.total = total        # integral over the whole support
        self.support = support

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        q = np.atleast_1d(arr)
        out = np.empty_like(q)
        low = q <= 0
        out[low] = INF if self.hi.size else 0.0
        x = q[~low]
        # the piece holding t is the first whose right end exceeds t
        k = np.searchsorted(self.hi, x, side="right")
        val = np.empty_like(x)
        beyond = k == self.hi.size
        with np.errstate(invalid="ignore"):     # inf / inf is nan, as for floats
            val[beyond] = self.total / x[beyond]
        kin = k[~beyond]
        xin = x[~beyond]
        power = self.power[kin]
        c1, c2 = self.c1[kin], self.c2[kin]
        val_in = np.empty_like(xin)
        val_in[power] = c1[power] * xin[power] ** c2[power]
        val_in[~power] = c1[~power] + c2[~power] / xin[~power]
        val[~beyond] = val_in
        out[~low] = val
        return float(out[0]) if scalar else out


def maximal(f: SampledFn) -> AveragedDecreasing:
    star = rearrange(f)
    v, w, t = star.values, star.widths, star.tail
    if t and t.expo >= 1.0:
        # not locally integrable: the average is infinite everywhere
        return AveragedDecreasing(np.array([INF]), np.array([False]), np.array([INF]),
                                  np.array([0.0]), INF, star.support)
    lo, acc = (t.width, t.coef * t.width ** (1.0 - t.expo) / (1.0 - t.expo)) if t else (0.0, 0.0)
    # the ends of the pieces and the integrals up to them: running sums
    # from the end of the tail, added left to right
    ends = np.add.accumulate(np.concatenate(([lo], w)))
    accs = np.add.accumulate(np.concatenate(([acc], v * w)))
    if not t:
        return AveragedDecreasing(ends[1:], np.zeros(v.size, dtype=bool), v,
                                  accs[:-1] - v * ends[:-1], float(accs[-1]), star.support)
    # the tail's power piece comes first
    power, c1, c2 = np.zeros(ends.size, dtype=bool), np.empty(ends.size), np.empty(ends.size)
    power[0], c1[0], c2[0] = True, t.coef / (1.0 - t.expo), -t.expo
    c1[1:], c2[1:] = v, accs[:-1] - v * ends[:-1]
    return AveragedDecreasing(ends, power, c1, c2, float(accs[-1]), star.support)


# -- modulars and norms ------------------------------------------------------


def _tail_parts(A: QuasiConvexFn, tail: PowerTail):
    """The parts of the tail's modular that no scale changes: the table F
    that :func:`_tail_modular` integrates over y = u / u0 (A's derivative,
    or a quasi-convex A's table), the power w of y, F's segments over y
    from each node (the integral of F(t[k] y) y**w over 1 < y < t[k + 1] /
    t[k]), and the integral of F(t[-1] y) y**w over y > 1, past the last
    node."""
    young_fn = isinstance(A, YoungFn)
    F = A.derivative if young_fn else A.base
    w = -1.0 / tail.expo - (0.0 if young_fn else 1.0)
    t, v = F.t, F.v
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        seg = _power_segment_integral(v[:-1], v[1:], np.ones(t.size - 1), t[1:] / t[:-1], w)
        past = _integral_off_grid(F, t[-1:], w, False, per_x=True)[0]
    return F, w, seg, past


def _tail_modular(A: QuasiConvexFn, tail: PowerTail, u0, au0, parts):
    """The integral of A(scale * tail profile) over (0, width) for each
    scale of a 1-d array, from the profile's value at the width,
    u0 = scale * coef * width**-expo, au0 = A(u0), and the scale-free
    ``parts`` of :func:`_tail_parts`.  Over y = u / u0 it is (width / expo)
    * integral of A(u0 y) y**(-1/expo - 1) over y > 1, which a quasi-convex
    table takes as it stands.  A Young function takes it by parts against
    its derivative a, and so reads the A of the pieces: width * (A(u0) +
    u0 * integral of a(u0 y) y**(-1/expo) over y > 1).  Neither form
    overflows unless the modular does."""
    F = parts[0]
    if isinstance(A, YoungFn):
        rest = _integral_over_y(u0, F(u0), parts)
        with np.errstate(over="ignore"):
            return tail.width * (au0 + u0 * rest)
    return (tail.width / tail.expo) * _integral_over_y(u0, au0, parts)


def _integral_over_y(u0, fu0, parts):
    """The integral of F(u0 y) y**w over y > 1 for each u0 > 0 of a 1-d
    array, fu0 = F(u0), where it converges (w < -1), with F, w and the
    scale-free parts of :func:`_tail_parts`, over y, where y**(w + 1) <= 1:
    from F(u0) to the first node above u0 (the chord, or Gauss-Legendre
    over log y below a table whose form there has a log factor), F's
    segments from that node on, each over y from its left node times
    (node / u0)**(w + 1), and past the last node, the part at t[-1] times
    (t[-1] / u0)**(w + 1), or the closed form at u0 above it.  A row is
    summed left to right and is 0 between its first part and its first
    segment, so the batch does not change it."""
    F, w, seg, past_end = parts
    t, v = F.t, F.v
    k = np.searchsorted(t, u0, side="right")
    lo, inside = min(int(k.min()), t.size - 1), k < t.size
    ki, first, beyond = k[inside], np.zeros_like(u0), u0 > t[-1]
    per_x = np.full_like(u0, past_end)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        first[inside] = _power_segment_integral(fu0[inside], v[ki], np.ones(ki.size),
                                                t[ki] / u0[inside], w)
        cols = np.where(np.arange(lo, t.size - 1) >= k[:, None],
                        seg[lo:] * (t[lo:-1] / u0[:, None]) ** (w + 1.0), 0.0)
        head = np.flatnonzero(k == 0)
        form = F.power_log_form(True) if head.size else None
        if form is not None and form[1] != 0.0:
            p, alpha, _, slope, _ = form
            e, top = p + w + 1.0, np.log(t[0] / u0[head])
            reach = 50.0 / abs(e) if e else INF  # e**(e x) within e**-50 of its peak
            first[head] = _cell_integrals(
                np.maximum(top - reach, 0.0) if e > 0 else 0.0 * top,
                top if e > 0 else np.minimum(top, reach), abs(e) + abs(alpha * slope),
                lambda x, i: F(u0[head][i] * np.exp(x)) * np.exp((w + 1.0) * x))
        if beyond.any():
            per_x[beyond] = _integral_off_grid(F, u0[beyond], w, False, per_x=True)
        past = per_x * (np.maximum(u0, t[-1]) / u0) ** (w + 1.0)
        total = np.cumsum(np.column_stack((first, cols, past)), axis=1)[:, -1]
    # NaN comes only from an infinite segment times an underflowed y**(w + 1)
    total[np.isnan(total)] = INF
    return total


def _modular_of(f: SampledFn, A: QuasiConvexFn):
    """The modular of f under A as a function of a 1-d array of scales, for
    the scales of one search: a power tail's scale-free parts
    (:func:`_tail_parts`) are computed here, once, and each scale gives bit
    for bit what it gives alone."""
    n, tail = f.values.size, f.tail
    parts = _tail_parts(A, tail) if tail is not None else None

    def at(scales):
        total = np.zeros(scales.shape)
        if f.is_zero:
            return total
        x = np.multiply.outer(scales, f.values)
        if tail is not None:
            # the tail's profile at its width, whose A comes from the same call
            u0 = scales * tail.coef * tail.width ** (-tail.expo)
            x = np.column_stack((x, u0))
        av = A(x)
        live = ~np.isinf(av).any(axis=1)
        total[~live] = INF
        if n:
            # a running sum keeps the left-to-right order of the pieces
            total[live] = np.cumsum(av[live, :n] * f.widths, axis=1)[:, -1]
        if tail is not None:
            on = live & (u0 > 0.0)  # a profile that underflows to 0 adds 0
            if on.any():
                total[on] += _tail_modular(A, tail, u0[on], av[on, n], parts)
        return total

    return at


def modular(f: SampledFn, A: QuasiConvexFn, scale=1.0):
    """Sum of A(scale * value) * width over the pieces; exact.

    ``scale`` may be a 1-d array of scales: the result is then the array of
    the modulars, each bit for bit what a call with that scale alone gives.
    A scalar gives a ``float``.  A modular that diverges is ``+inf``.  A
    search over many scales calls :func:`_modular_of` once instead, which
    computes a power tail's scale-free parts once for all its calls.
    """
    arr = np.asarray(scale, dtype=float)
    total = _modular_of(f, A)(np.atleast_1d(arr))
    return float(total[0]) if arr.ndim == 0 else total


_EPS = float(np.finfo(float).eps)
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def least_admissible_scale(ok, start, rel_tol):
    """The least lam > 0 with ok(lam), for a predicate of one scale that is
    false below its answer and true above it.

    Halves or doubles from ``start`` to a bracket, then bisects the log
    scale down to relative width ``rel_tol`` and returns the admissible
    end.  Past ``start * 2**64`` the doubling step squares itself, so a
    predicate that fails everywhere costs tens of calls, not a thousand.
    Below 1e-300 the halving takes one last rung at the least normal float,
    and past 1e300 the doubling one at the largest float: it gives 0 when
    ok holds at the least normal float and +inf when it fails at the
    largest.  A tolerance below the float spacing 2**-52 raises
    ``ValueError``.
    """
    if not rel_tol >= _EPS:
        raise ValueError(f"relative tolerance {rel_tol!r} is below the float "
                         f"spacing {_EPS!r}: the bisection would not end")
    b = start
    if ok(b):
        a = b / 2.0
        while a >= 1e-300 and ok(a):
            a /= 2.0
        b = 2.0 * a
        if a < 1e-300:
            a = _TINY
            if ok(a):
                return 0.0
    else:
        step = 2.0
        while True:
            if b >= 1e300:
                a, b = b, _HUGE
                if not ok(b):
                    return INF
                break
            a = b
            if b > start * 2.0 ** 64:
                step *= step
            b = min(b * step, 1e300)
            if ok(b):
                break
    # invariant: ok(b), not ok(a)
    while b / a > 1.0 + rel_tol:
        mid = math.sqrt(a * b)
        if not a < mid < b:  # a * b left the float range
            mid = math.sqrt(a) * math.sqrt(b)
        if ok(mid):
            b = mid
        else:
            a = mid
    return b


def luxemburg_norm(f: SampledFn, A: QuasiConvexFn, rel_tol=1e-10):
    """inf{lam > 0 : modular(f / lam) <= 1}: the gauge search of
    :func:`gauge_norm` on the modular of the search (:func:`_modular_of`)."""
    if f.is_zero:
        return 0.0
    at = _modular_of(f, A)
    return gauge_norm(lambda lams: at(1.0 / lams), f, A, rel_tol)


def gauge_norm(values, f, A, rel_tol):
    """inf{lam > 0 : values(lam) <= 1}, where ``values`` maps a 1-d array of
    scales lam to values that do not rise as lam grows: the modulars of
    f / lam under A, or the norms of the images of f / lam under A.

    A root phase finds scales lo < hi whose values miss 1 by a margin
    (:func:`_certified_bracket`).  The log-scale bisection of
    :func:`least_admissible_scale` from max(sup |f|, 1) (1 for a tail) to
    relative width ``rel_tol`` then calls ``values`` only between lo and
    hi.  It sees the answers that a search calling ``values`` at every
    scale sees, so it returns the same float."""
    sup = f.sup_value()
    start = max(sup, 1.0) if sup < INF else 1.0
    lo, hi = _certified_bracket(values, start, sup / A.t_inf if A.t_inf > 0.0 else INF)
    return least_admissible_scale(
        lambda lam: lam >= hi or (lam > lo and values(np.array([lam]))[0] <= 1.0),
        start, rel_tol)


# the margin by which a certified value misses 1, against a rounding of
# about 1e-14 relative, and the calls the root phase may make
_ETA = 1e-12
_ROOT_CALLS = 10
_LOG_RANGE = math.log(1e300)
_JUMP = 2.0 ** -50  # 4 float spacings, past the rounding of the jump scales


def _certified_bracket(values, start, jump):
    """Scales lo < hi with values(lo) > 1 + eta and values(hi) <
    1 - eta, eta = 1e-12; lo is 0 and hi is +inf where none was found.
    ``values`` is that of :func:`gauge_norm`.

    The first call of ``values`` takes start and 2 start, and J (1 -+
    2**-50) where the jump J = sup |f| / t_inf of A is a positive finite
    float: the values are +inf at every lam below J, with no rounding to
    allow for, so that call certifies a root at the jump.  Each later call
    takes lam* e**-d and lam* e**d, where log lam* is the root of the secant
    of log M against log lam through the two newest points with a finite
    positive value M (exact for a pure power modular), or the middle of the
    log bracket (lo, hi) where the secant leaves it.  d = max(2 eta / s,
    min(err / 4, 4 err**2)), s the secant's slope and err how far lam*
    moved: the values' margin at least, and about the secant's next error.
    It stops when hi / lo <= 1 + 16 eta / s, after 10 calls, or where no
    secant falls into an open bracket.  NaN values are not used."""
    lo, hi = 0.0, INF
    points = []
    lams = [start, 2.0 * start]
    x_old = math.log(lams[-1])
    if 0.0 < jump < INF:
        lams = [jump * (1.0 - _JUMP), jump * (1.0 + _JUMP)] + lams
    for _ in range(_ROOT_CALLS):
        for lam, m in zip(lams, values(np.array(lams)).tolist()):
            if m > 1.0 + _ETA:
                lo = max(lo, lam)
            elif m < 1.0 - _ETA:
                hi = min(hi, lam)
            if 0.0 < m < INF:
                points.append((math.log(lam), math.log(m)))
        if len(points) < 2 or points[-1][0] == points[-2][0]:
            break
        (x1, y1), (x2, y2) = points[-2:]
        s = (y1 - y2) / (x2 - x1)
        if not s > 0.0 or hi <= lo * (1.0 + 16.0 * _ETA / s):
            break
        x = x2 + y2 / s
        x_lo = math.log(lo) if lo > 0.0 else -_LOG_RANGE
        x_hi = math.log(hi) if hi < INF else _LOG_RANGE
        if not x_lo < x < x_hi:
            if lo == 0.0 or hi == INF:
                break
            x = 0.5 * (x_lo + x_hi)
        err, x_old = abs(x - x_old), x
        d = max(2.0 * _ETA / s, min(err / 4.0, 4.0 * err * err))
        lams = np.exp(np.clip([x - d, x + d], -_LOG_RANGE, _LOG_RANGE)).tolist()
    return lo, hi


def lambda_norm(f: SampledFn, A: QuasiConvexFn):
    """Integral over thresholds of phi(measure above threshold), where phi is
    the characteristic-norm profile of the generator; exact on steps."""
    if f.is_zero:
        return 0.0
    phi = A.char_profile
    star = rearrange(f)
    # ascend through values: measure above lambda is constant between
    # values; the running sum adds the steps in that order
    levels = np.concatenate(([0.0], star.values[::-1]))
    steps = (levels[1:] - levels[:-1]) * phi(star.breaks[:0:-1])
    total = np.cumsum(np.append(0.0, steps))[-1]
    prev_value = levels[-1]
    if star.tail is not None:
        t = star.tail
        # thresholds between the top step value and the tail edge see the
        # whole tail width and nothing else
        total += (t.value_at(t.width) - prev_value) * phi(t.width)
        # above it the measure above lambda is m = (coef / lambda)**(1 / expo),
        # which gives expo coef times the integral of phi(m) m**w over (0,
        # width), w = -expo - 1: the closed form below phi's first node (+inf
        # where it diverges), then phi's segments up to the width, summed left
        # to right; past the last node, geometric segments of the
        # extrapolation, which are exact without a log factor
        w, k = -t.expo - 1.0, np.searchsorted(phi.t, t.width)
        edges = np.append(phi.t[:k], geometric_grid(phi.t[-1], t.width)[1:]
                          if k == phi.t.size else t.width)
        vals = np.append(phi.v[:k], phi(edges[k:]))
        seg = _power_segment_integral(vals[:-1], vals[1:], edges[:-1], edges[1:], w)
        head = _integral_off_grid(phi, [min(t.width, phi.t[0])], w, True)
        total += t.expo * t.coef * np.cumsum(np.append(head, seg))[-1]
    return total


def marcinkiewicz_norm(f: SampledFn, A: QuasiConvexFn):
    """sup over t of phi(t) * averaged rearrangement(t), exact on steps.

    The pieces of the average, and the stretch beyond the support where it
    is total / t, are cut at phi's grid nodes into cells, and h = phi * avg
    is evaluated at all cell ends in one call.  Where phi is one power
    segment t**s (on the grid, or a pure power off it) and avg is
    c1 + c2 / t, h' has the sign of s c1 t + (s - 1) c2: the only critical
    point t* = c2 (1 - s) / (c1 s) is a minimum for s in [0, 1].  Under a
    power average, and on ramp, flat and jump segments, h is monotone.  So
    the supremum sits at the cell ends; h(t*) is evaluated too.  Off the
    grid phi may carry a log factor: under an average c t**q the critical
    point is closed form, and with c1, c2 > 0 the sign of (log h)' is
    bisected on the cells whose bound phi(b) avg(a) beats the best end.
    Under a power tail the limit at 0+ is read from phi's zero descriptor."""
    if f.is_zero:
        return 0.0
    avg = maximal(f)
    if not np.isfinite(avg.total):
        return INF
    phi = A.char_profile
    forms = (phi.power_log_form(True), phi.power_log_form(False))
    # h ~ t**(p - e) l**alpha at 0+: infinite by the exponent, then the log
    if avg.power[0] and forms[0] and (forms[0][0] + avg.c2[0], -forms[0][1]) < (0, 0):
        return INF
    bounds = np.unique(np.append(avg.hi, avg.support))
    ends = np.insert(phi.t, np.searchsorted(phi.t, bounds), bounds)
    ph, av = phi(ends), avg(ends)
    best = float(np.max(ph * av))
    # the cells (a, b) tile (0, inf); cell j lies in piece k[j], and the
    # index one past the last piece is the stretch beyond the support
    a, b = np.append(0.0, ends), np.append(ends, INF)
    pa, pb = np.append(phi.value_at_zero, ph), np.append(ph, phi.value_at_inf)
    k = np.searchsorted(avg.hi, a, side="right")
    c1, c2 = np.append(avg.c1, 0.0)[k], np.append(avg.c2, avg.total)[k]
    power = np.append(avg.power, False)[k]
    pure = power | (c1 == 0.0) | (c2 == 0.0)
    q = np.where(power, c2, np.where(c1 == 0.0, -1.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.log(pb / pa) / np.log(b / a)
        cands, found = [np.where(power, np.nan, c2 * (1.0 - s) / (c1 * s))], []
        for side, form in zip((b <= phi.t[0], a >= phi.t[-1]), forms):
            if form is None or form[1] == 0.0:
                continue
            p, alpha, anchor, slope, _ = form
            # (log h)' in log t is p + alpha slope / l + (log avg)'
            l_star = np.where(side & pure, -alpha * slope / (p + q), np.nan)
            cands.append(np.where(l_star > 0, anchor * np.exp((l_star - 1.0) / slope), np.nan))
            search = side & ~pure & (pb * np.append(INF, av) > best)
            if search.any():
                x0, w, d1, d2 = math.log(anchor), alpha * slope, c1[search], c2[search]
                found.append(np.exp(_rising_end(
                    lambda x: p + w / (1.0 + slope * (x - x0)) - d2 / (d1 * np.exp(x) + d2),
                    np.log(a[search]), np.log(b[search]))))
    t = np.concatenate([c[(a < c) & (c < b)] for c in cands] + found)
    if t.size:
        best = max(best, float(np.max(phi(t) * avg(t))))
    return best


def _rising_end(dlog, xa, xb):
    """Bisect each bracket [xa, xb] of log t down to adjacent floats, moving
    xa to the midpoints where dlog > 0 and xb to the others: xa ends where
    h stops rising, a local maximum where h rises at xa and falls at xb."""
    while True:
        xm = 0.5 * (xa + xb)
        live = (xa < xm) & (xm < xb)
        if not live.any():
            return xa
        up = dlog(xm) > 0
        xa, xb = np.where(live & up, xm, xa), np.where(live & ~up, xm, xb)


def lorentz_power_norm(f: SampledFn, p, q, alpha=0.0):
    """The Lorentz-Zygmund functional
    (integral of [t**(1/p) (1 - log t)**alpha f*(t)]**q dt/t)**(1/q), with f**
    in place of f* for infinite p and the supremum for infinite q; exact on
    steps and power tails.  With alpha = 0 it is the Lorentz functional over
    the whole support; a log factor confines it to (0, 1].  f* and f** are
    c1 + c2 / t on each piece: the first piece and a power tail integrate in
    closed form (:func:`log_weight_integral`), the others by Gauss-Legendre
    in log t."""
    star = rearrange(f)
    if f.is_zero:
        return 0.0
    if alpha == 0.0 and not math.isinf(p) and not math.isinf(q):
        total = 0.0
        e = q / p
        if star.tail:
            t = star.tail
            ee = e - t.expo * q
            if ee <= 0:
                return INF
            total += t.coef ** q * t.width ** ee / ee
        for v, lo, hi in zip(star.values, star.breaks[:-1], star.breaks[1:]):
            total += v ** q * (hi ** e - lo ** e) / e
        return total ** (1.0 / q)
    end = INF if alpha == 0.0 else 1.0
    tail = star.tail
    if math.isinf(p):
        if tail:
            return INF
        avg = maximal(f)
        lo = np.concatenate(([0.0], avg.hi[:-1], [avg.support]))
        hi = np.append(avg.hi, INF)
        c1, c2 = np.append(avg.c1, 0.0), np.append(avg.c2, avg.total)
    else:
        lo, hi, c1 = star.breaks[:-1], star.breaks[1:], star.values
        c2 = np.zeros_like(c1)
    hi = np.minimum(hi, end)
    keep = lo < hi
    lo, hi, c1, c2 = lo[keep], hi[keep], c1[keep], c2[keep]
    if math.isinf(q):
        # t**(1/p) (1 - log t)**alpha peaks at e**(1 - alpha p) when alpha > 0,
        # where f* is flat; (c1 + c2 / t) (1 - log t)**alpha with alpha <= 0
        # has no interior maximum: the right end of the piece is its supremum
        s = np.clip(math.exp(1.0 - alpha * p) if alpha > 0 else INF, lo, hi)
        best = float(np.max((c1 + c2 / s) * s ** (1.0 / p) * (1.0 - np.log(s)) ** alpha,
                            initial=0.0))
        if tail:
            e = 1.0 / p - tail.expo
            if e < 0 or (e == 0 and alpha > 0):
                return INF
            s = min(tail.width, end, math.exp(1.0 - alpha / e) if alpha > 0 else INF)
            best = max(best, tail.coef * s ** e * (1.0 - math.log(s)) ** alpha)
        return best
    beta, gamma = q / p, alpha * q
    if tail:
        head = tail.coef ** q * log_weight_integral(
            beta - tail.expo * q, gamma, 1.0 - math.log(min(tail.width, end)))
    else:
        head = c1[0] ** q * log_weight_integral(beta, gamma, 1.0 - math.log(hi[0]))
        lo, hi, c1, c2 = lo[1:], hi[1:], c1[1:], c2[1:]
    if math.isinf(head):
        return INF
    cells = _cell_integrals(
        np.log(lo), np.log(hi), q + abs(gamma), lambda x, k: np.exp(
            q * np.log(c1[k] + c2[k] * np.exp(-x)) + beta * x + gamma * np.log1p(-x)))
    return (float(head) + float(np.sum(cells))) ** (1.0 / q)


def log_weight_integral(beta, gamma, u0):
    """The integral of e**(beta (1 - u)) u**gamma over u > u0 >= 1 (u0 a
    scalar or an array), +inf where it diverges: with u = 1 - log t, the
    weight t**(beta - 1) (1 - log t)**gamma integrated over (0, e**(1 - u0))."""
    u0 = np.asarray(u0, dtype=float)
    if beta > 0:
        return np.exp(beta - (gamma + 1.0) * math.log(beta)
                      + _log_gamma_mass(gamma + 1.0, beta * u0, INF))
    if beta == 0 and gamma < -1:
        return u0 ** (gamma + 1.0) / (-gamma - 1.0)
    return np.full_like(u0, INF)


def classical_lorentz_norm(f: SampledFn, w: SampledFn, q):
    """(integral of rearrangement**q against the weight)**(1/q); the weight is
    a step function laid out from 0 in the order given.  Exact for steps and
    power tails: each weight step [lo, hi] integrates f*(s)**q over its
    overlap with the tail and then with each piece of f*, in order."""
    if f.is_zero:
        return 0.0
    star = rearrange(f)
    on = w.values != 0.0
    lo, hi = w.breaks[:-1][on, None], w.breaks[1:][on, None]
    a, b = np.maximum(lo, star.breaks[:-1]), np.minimum(hi, star.breaks[1:])
    # the products off the overlaps are not used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cells = np.where(b > a, star.values ** q * (b - a), 0.0)
        if star.tail:
            t = star.tail
            b = np.minimum(hi, t.width)
            e = 1.0 - q * t.expo
            if e == 0.0:
                part = t.coef ** q * np.log(b / np.maximum(lo, 1e-300))
            else:
                part = t.coef ** q * (b ** e - lo ** e) / e
            part[(lo == 0.0) & (e <= 0)] = INF
            cells = np.concatenate((np.where(b > lo, part, 0.0), cells), axis=1)
    inner = np.cumsum(cells, axis=1)[:, -1]
    total = np.cumsum(np.append(0.0, w.values[on] * inner))[-1]
    return float(total) ** (1.0 / q)


def hardy_littlewood_pairing(f: SampledFn, g: SampledFn):
    """integral of f* g* over (0, inf); exact on steps."""
    fs, gs = rearrange(f), rearrange(g)
    if fs.tail is not None or gs.tail is not None:
        raise ValueError("pairing supports step functions only")
    edges = np.unique(np.concatenate((fs.breaks, gs.breaks)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(fs(mids) * gs(mids) * np.diff(edges)))


def pairing(f: SampledFn, g: SampledFn):
    """integral of f g with both laid out from 0 in the order given."""
    if f.tail is not None or g.tail is not None:
        raise ValueError("pairing supports step functions only")
    edges = np.unique(np.concatenate((f.breaks, g.breaks)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(f.layout(mids) * g.layout(mids) * np.diff(edges)))
