"""Rearrangements and norms of sampled functions on an interval (0, L).

A sampled function is a finite list of (value, width) pieces, optionally
with one unbounded tail whose decreasing profile is a pure power.  Every
norm in the package is then exactly computable: rearrangements are sorts,
modulars are finite sums, averaged rearrangements are piecewise c1 + c2/t,
and the remaining one-dimensional suprema are searched per piece.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import INF, MonotoneFn, _power_segment_integral, geometric_grid
from .young import QuasiConvexFn, YoungFn


@dataclass(frozen=True)
class PowerTail:
    """An unbounded leading profile: f*(s) = coef * s**(-expo) on (0, width)."""

    coef: float
    expo: float
    width: float

    def __post_init__(self):
        if not (self.coef > 0 and self.expo > 0 and self.width > 0):
            raise ValueError("tail needs positive coefficient, exponent and width")

    def value_at(self, s):
        return self.coef * s ** (-self.expo)


class SampledFn:
    """A measurable function on (0, L) given by value/width pieces.

    Only the multiset of pieces matters to any operation here; the function
    is 0 on the rest of the interval.  ``tail`` adds one unbounded piece
    whose rearranged profile is coef * s**-expo on (0, width).
    """

    def __init__(self, pieces, length=None, tail: Optional[PowerTail] = None):
        clean = []
        for value, width in pieces:
            value = float(value)
            width = float(width)
            if width <= 0:
                raise ValueError("piece widths must be positive")
            if value < 0 or math.isinf(value) or math.isnan(value):
                raise ValueError("piece values must be finite and nonnegative")
            # zero-value pieces are kept: they carry layout information for
            # weight-like uses, and rearrangement drops them anyway
            clean.append((value, width))
        self.pieces = clean
        self.tail = tail
        total = sum(w for _, w in clean) + (tail.width if tail else 0.0)
        self.length = total if length is None else float(length)
        if self.length < total * (1 - 1e-12):
            raise ValueError("pieces exceed the interval length")
        if tail and clean:
            top = max(v for v, _ in clean)
            if tail.value_at(tail.width) < top * (1 - 1e-12):
                raise ValueError("the tail profile must sit above every step value")

    @property
    def is_zero(self):
        return self.tail is None and all(v == 0.0 for v, _ in self.pieces)

    def scale(self, c):
        """c * |f| for c > 0."""
        tail = None
        if self.tail:
            tail = PowerTail(self.tail.coef * c, self.tail.expo, self.tail.width)
        return SampledFn([(v * c, w) for v, w in self.pieces], self.length, tail)

    def sup_value(self):
        if self.tail is not None:
            return INF
        return max((v for v, _ in self.pieces), default=0.0)

    @staticmethod
    def from_json(obj):
        length = obj.get("length")
        length = INF if length == "inf" else (float(length) if length is not None else None)
        tail = None
        if "tail" in obj:
            t = obj["tail"]
            tail = PowerTail(float(t["coef"]), float(t["expo"]), float(t["width"]))
        return SampledFn([(p[0], p[1]) for p in obj["pieces"]], length, tail)

    def to_json(self):
        out = {"pieces": [[v, w] for v, w in self.pieces]}
        if self.length is not None:
            out["length"] = "inf" if math.isinf(self.length) else self.length
        if self.tail:
            out["tail"] = {"coef": self.tail.coef, "expo": self.tail.expo,
                           "width": self.tail.width}
        return out

    @staticmethod
    def from_csv(text):
        """Rows of value,width with an optional header line."""
        rows = []
        for row in csv.reader(io.StringIO(text)):
            if not row:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                continue  # header or comment line
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
    return SampledFn(list(zip(vals, widths)), length)


class DecreasingFn:
    """The non-increasing rearrangement as a right-continuous step function,
    possibly preceded by one unbounded power piece on (0, tail.width)."""

    def __init__(self, values, widths, tail: Optional[PowerTail] = None):
        self.values = np.asarray(values, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.tail = tail
        self.breaks = (self.tail.width if tail else 0.0) + np.concatenate(
            ([0.0], np.cumsum(self.widths)))
        self.support = float(self.breaks[-1])

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        sq = np.atleast_1d(arr).copy()
        out = np.zeros_like(sq)
        if self.tail:
            m = sq < self.tail.width
            out[m] = self.tail.value_at(sq[m])
        if self.values.size:
            inside = (sq >= self.breaks[0]) & (sq < self.breaks[-1])
            idx = np.searchsorted(self.breaks, sq[inside], side="right") - 1
            out[inside] = self.values[np.clip(idx, 0, self.values.size - 1)]
        return float(out[0]) if scalar else out

    def as_sampled(self, length=None):
        return SampledFn(list(zip(self.values, self.widths)), length, self.tail)


def distribution(f: SampledFn):
    """The measure of level sets, lambda -> |{|f| > lambda}|, as a
    non-increasing step function of the threshold."""
    star = rearrange(f)
    if star.tail is not None:
        return _TailDistribution(star)
    # thresholds descend through the distinct values
    values = star.values
    cums = star.breaks[1:]  # measure above each successive value
    return _StepDistribution(values, cums)


class _StepDistribution:
    """Right-continuous non-increasing step function lambda -> measure."""

    def __init__(self, values, cums):
        self.values = np.asarray(values, dtype=float)   # decreasing
        self.cums = np.asarray(cums, dtype=float)       # increasing measures

    def __call__(self, lam):
        arr = np.asarray(lam, dtype=float)
        scalar = arr.ndim == 0
        q = np.atleast_1d(arr)
        out = np.zeros_like(q)
        if self.values.size:
            asc = self.values[::-1]
            count_gt = self.values.size - np.searchsorted(asc, q, side="right")
            pos = count_gt > 0
            out[pos] = self.cums[count_gt[pos] - 1]
        return float(out[0]) if scalar else out

    def knots(self):
        return self.values


class _TailDistribution:
    def __init__(self, star):
        self.star = star
        self.step = _StepDistribution(star.values, star.breaks[1:])
        self.cut = star.values[0] if star.values.size else 0.0

    def __call__(self, lam):
        arr = np.asarray(lam, dtype=float)
        scalar = arr.ndim == 0
        q = np.atleast_1d(arr)
        out = np.zeros_like(q)
        t = self.star.tail
        hi = q >= t.value_at(t.width)
        out[hi] = (t.coef / np.maximum(q[hi], 1e-300)) ** (1.0 / t.expo)
        out[~hi] = np.maximum(self.step(q[~hi]), t.width)
        return float(out[0]) if scalar else out

    def knots(self):
        return self.step.knots()


def rearrange(f: SampledFn) -> DecreasingFn:
    """Sort the pieces by value (descending) and merge equal values."""
    pieces = sorted((p for p in f.pieces if p[0] > 0.0), key=lambda p: -p[0])
    values, widths = [], []
    for v, w in pieces:
        if values and v == values[-1]:
            widths[-1] += w
        else:
            values.append(v)
            widths.append(w)
    return DecreasingFn(values, widths, f.tail)


@dataclass(frozen=True)
class AveragedPiece:
    """One piece of the running average of the rearrangement.

    kind "hyperbolic": value c1 + c2 / t on [lo, hi)
    kind "power":      value c1 * t**c2 on [lo, hi)
    """

    lo: float
    hi: float
    kind: str
    c1: float
    c2: float

    def value(self, t):
        if self.kind == "hyperbolic":
            return self.c1 + self.c2 / t
        return self.c1 * t ** self.c2


class AveragedDecreasing:
    """t -> (1/t) * integral of the rearrangement over (0, t)."""

    def __init__(self, pieces, total, support):
        self.pieces = pieces
        self.total = total        # integral over the whole support
        self.support = support
        # the pieces tile (0, support) left to right, so the piece holding t
        # is the first whose right end exceeds t
        self._hi = np.array([p.hi for p in pieces], dtype=float)
        self._c1 = np.array([p.c1 for p in pieces], dtype=float)
        self._c2 = np.array([p.c2 for p in pieces], dtype=float)
        self._power = np.array([p.kind == "power" for p in pieces], dtype=bool)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        q = np.atleast_1d(arr)
        out = np.empty_like(q)
        low = q <= 0
        out[low] = INF if self.pieces else 0.0
        x = q[~low]
        k = np.searchsorted(self._hi, x, side="right")
        val = np.empty_like(x)
        beyond = k == self._hi.size
        with np.errstate(invalid="ignore"):     # inf / inf is nan, as for floats
            val[beyond] = self.total / x[beyond]
        kin = k[~beyond]
        xin = x[~beyond]
        power = self._power[kin]
        c1, c2 = self._c1[kin], self._c2[kin]
        val_in = np.empty_like(xin)
        val_in[power] = c1[power] * xin[power] ** c2[power]
        val_in[~power] = c1[~power] + c2[~power] / xin[~power]
        val[~beyond] = val_in
        out[~low] = val
        return float(out[0]) if scalar else out

    def _value(self, x):
        if x <= 0:
            return INF if self.pieces else 0.0
        for p in self.pieces:
            if p.lo <= x < p.hi:
                return p.value(x)
        return self.total / x


def maximal(f: SampledFn) -> AveragedDecreasing:
    star = rearrange(f)
    pieces = []
    acc = 0.0
    lo = 0.0
    if star.tail:
        t = star.tail
        if t.expo >= 1.0:
            # not locally integrable: the average is infinite everywhere
            return AveragedDecreasing([AveragedPiece(0.0, INF, "hyperbolic", INF, 0.0)],
                                      INF, star.support)
        c = t.coef / (1.0 - t.expo)
        pieces.append(AveragedPiece(0.0, t.width, "power", c, -t.expo))
        acc = t.coef * t.width ** (1.0 - t.expo) / (1.0 - t.expo)
        lo = t.width
    for v, w in zip(star.values, star.widths):
        hi = lo + w
        pieces.append(AveragedPiece(lo, hi, "hyperbolic", v, acc - v * lo))
        acc += v * w
        lo = hi
    return AveragedDecreasing(pieces, acc, star.support)


# -- modulars and norms ------------------------------------------------------


def _tail_modular(A: QuasiConvexFn, tail: PowerTail, scale=1.0):
    """Exact integral of A(scale * tail profile) over (0, width)."""
    # change of variables u = scale * coef * s**-expo:
    #   integral = (scale*coef)**(1/expo) / expo * int_u0^inf A(u) u**(-1/expo - 1) du
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
    # beyond the table: values grow at least linearly, weight decays as
    # u**(-1/expo - 1); the residue converges iff growth power < 1/expo
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


def modular(f: SampledFn, A: QuasiConvexFn, scale=1.0):
    """Sum of A(scale * value) * width over the pieces; exact."""
    if f.is_zero:
        return 0.0
    total = 0.0
    if f.pieces:
        values, widths = np.array(f.pieces).T
        av = A.integral_value(scale * values) if isinstance(A, YoungFn) \
            else A(scale * values)
        if np.isinf(av).any():
            return INF
        # a running sum keeps the left-to-right order of the pieces
        total = float(np.cumsum(av * widths)[-1])
    if f.tail is not None:
        total += _tail_modular(A, f.tail, scale)
    return total


def least_admissible_scale(ok, start, rel_tol):
    """The least lam > 0 with ok(lam), for a predicate that is false below
    its answer and true above it.

    Halves or doubles from ``start`` to a bracket, then bisects the log
    scale down to relative width ``rel_tol`` and returns the admissible
    end.  Past ``start * 2**64`` the doubling step squares itself, so a
    predicate that fails everywhere costs tens of calls, not a thousand.
    Gives 0 when ok holds down to 1e-300 and +inf when it fails up to 1e300.
    """
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
    """inf{lam > 0 : modular(f / lam) <= 1}."""
    if f.is_zero:
        return 0.0
    start = max(f.sup_value(), 1.0)
    if math.isinf(start):
        start = 1.0
    return least_admissible_scale(lambda lam: modular(f, A, scale=1.0 / lam) <= 1.0,
                                  start, rel_tol)


def lambda_norm(f: SampledFn, A: QuasiConvexFn):
    """Integral over thresholds of phi(measure above threshold), where phi is
    the characteristic-norm profile of the generator; exact on steps."""
    if f.is_zero:
        return 0.0
    phi = _char_profile(A)
    star = rearrange(f)
    total = 0.0
    prev_value = 0.0
    # ascend through values: measure above lambda is constant between values
    vals = star.values[::-1]
    meas = star.breaks[1:][::-1]
    for v, m in zip(vals, meas):
        total += (v - prev_value) * phi(m)
        prev_value = v
    if star.tail is not None:
        t = star.tail
        v_cut = t.value_at(t.width)
        # thresholds between the top step value and the tail edge see the
        # whole tail width and nothing else
        total += (v_cut - prev_value) * phi(t.width)
        # above v_cut the measure above the threshold is (coef/lambda)**(1/expo);
        # the integrand phi(m(lambda)) is a decreasing power-log profile
        lam_grid = geometric_grid(v_cut, v_cut * 1e40, 32)
        mvals = (t.coef / lam_grid) ** (1.0 / t.expo)
        pv = phi(mvals)
        pos = pv > 0
        seg = _power_segment_integral(
            np.maximum(pv[:-1], 1e-300), np.maximum(pv[1:], 1e-300),
            lam_grid[:-1], lam_grid[1:])
        total += float(np.sum(seg[pos[:-1] & pos[1:]]))
        if pv[-1] > 0 and pv.size > 1 and pv[-2] > 0:
            p_eff = math.log(pv[-1] / pv[-2]) / math.log(lam_grid[-1] / lam_grid[-2])
            if p_eff + 1.0 >= 0:
                return INF
            total += float(pv[-1] * lam_grid[-1] / -(p_eff + 1.0))
    return total


def _char_profile(A: QuasiConvexFn) -> MonotoneFn:
    """Norm of characteristic functions by measure: the correlative of the
    right-continuous inverse of the generator."""
    return A.base.right_inverse().correlative()


def marcinkiewicz_norm(f: SampledFn, A: QuasiConvexFn, tol=1e-12):
    """sup over t of phi(t) * averaged rearrangement(t), searched per piece.

    Each piece of the average (and the hyperbolic stretch beyond the
    support) is sampled at its ends and at phi's grid points inside it, and
    a golden-section search in log t refines around its best sample; the
    samples of all pieces are one call, and the searches run side by side."""
    if f.is_zero:
        return 0.0
    phi = _char_profile(A)
    avg = maximal(f)

    def h(t):
        return phi(t) * avg(t)

    if not np.isfinite(avg.total):
        return INF
    bounds = [(p.lo, p.hi) for p in avg.pieces]
    if avg.support > 0:
        bounds.append((avg.support, avg.support * 1e8))
    cands = []
    for lo, hi in bounds:
        lo, hi = (lo if lo > 0 else min(hi, avg.support) * 1e-12,
                  hi if np.isfinite(hi) else avg.support * 1e8)
        cands.append(np.sort(np.concatenate((phi.t[(phi.t > lo) & (phi.t < hi)],
                                             [lo, hi]))))
    vals = np.split(h(np.concatenate(cands)), np.cumsum([c.size for c in cands])[:-1])
    peaks, brackets = [], []
    for cand, v in zip(cands, vals):
        k = int(np.argmax(v))
        peaks.append(float(v[k]))
        a = float(cand[max(k - 1, 0)])
        b = float(cand[min(k + 1, len(cand) - 1)])
        a, b = min(a, b), max(a, b)
        brackets.append((a, b) if 0 < a < b else None)
    # golden-section refinement around the best grid sample, in log t
    la = [math.log(br[0]) for br in brackets if br]
    lb = [math.log(br[1]) for br in brackets if br]
    f1, f2 = _golden_section_max(lambda x: h(np.exp(x)), la, lb, tol)
    best = 0.0
    j = 0
    for peak, br in zip(peaks, brackets):
        best = max(best, peak)
        if br:
            best = max(best, f1[j], f2[j])
            j += 1
    return float(best)


def _golden_section_max(g, la, lb, tol):
    """Golden-section search for the maximum of g on each bracket [la, lb]
    until it is no wider than tol, all brackets in step: one call of g per
    step.  Returns g at the two final inner points of each bracket."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    la, lb = np.array(la, dtype=float), np.array(lb, dtype=float)
    x1 = lb - gr * (lb - la)
    x2 = la + gr * (lb - la)
    f1, f2 = g(x1), g(x2)
    live = lb - la > tol
    while live.any():
        up = live & (f1 < f2)
        down = live & ~(f1 < f2)
        la[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        lb[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        new = np.where(up, la + gr * (lb - la), lb - gr * (lb - la))
        f_new = np.zeros_like(new)
        f_new[live] = g(new[live])
        x2[up], f2[up] = new[up], f_new[up]
        x1[down], f1[down] = new[down], f_new[down]
        live = lb - la > tol
    return f1, f2


def lorentz_power_norm(f: SampledFn, p, q):
    """The two-parameter functional with weight t**(q/p - 1); exact on steps."""
    star = rearrange(f)
    if f.is_zero:
        return 0.0
    if math.isinf(q):
        best = 0.0
        if star.tail:
            t = star.tail
            if t.expo > 1.0 / p:
                return INF
            best = t.coef * t.width ** (1.0 / p - t.expo)
        for v, lo, hi in zip(star.values, star.breaks[:-1], star.breaks[1:]):
            best = max(best, v * hi ** (1.0 / p))
        return best
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


def classical_lorentz_norm(f: SampledFn, w: SampledFn, q):
    """(integral of rearrangement**q against the weight)**(1/q); the weight is
    a step function laid out from 0 in the order given."""
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
        total += wv * _power_integral_of_rearrangement(star, lo, hi, q)
        if math.isinf(total):
            return INF
    return total ** (1.0 / q)


def _power_integral_of_rearrangement(star: DecreasingFn, lo, hi, q):
    """integral of f*(s)**q over [lo, hi]; exact for steps and power tails."""
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
    fb = np.concatenate(([0.0], np.cumsum([w for _, w in f.pieces])))
    gb = np.concatenate(([0.0], np.cumsum([w for _, w in g.pieces])))
    edges = np.unique(np.concatenate((fb, gb)))
    fv = _layout_eval(f, edges)
    gv = _layout_eval(g, edges)
    return float(np.sum(fv * gv * np.diff(edges)))


def _layout_eval(f, edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.zeros_like(mids)
    pos = 0.0
    for v, w in f.pieces:
        lo, hi = pos, pos + w
        pos = hi
        m = (mids >= lo) & (mids < hi)
        vals[m] = v
    return vals
