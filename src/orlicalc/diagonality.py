"""Union-of-Orlicz structure of endpoint spaces: embedding certificates,
the constructive witness generator, almost-compact embedding tests, and the
per-family (uniform) sub-diagonality rules, plus the norm-lifting map.

The quantitative certificates reduce to integrals of outer(c / table(t)),
which are computed exactly per power chunk by splitting at preimages of the
outer function's grid.  One call integrates many rows (a scale and an
interval each) in one array pass: the chunk nodes of every segment of every
row sit in one flat array, so a call costs a fixed number of evaluations of
the two tables whatever the size of their grids and the number of rows.
The convex companion of an endpoint generator is built once and kept on the
generator object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .monotone import (
    INF,
    INFINITE_BEYOND,
    LIMIT_CONST,
    NEAR_INFINITY,
    POWER_LOG,
    ZERO_ON_INTERVAL,
    MonotoneFn,
    _power_segment_integral,
    geometric_grid,
    infinite_beyond_desc,
    limit_const_desc,
)
from .rearrangement import (
    SampledFn,
    gauge_norm,
    lambda_norm,
    modular,
    rearrange,
)
from .spaces import (
    CLASSICAL_LORENTZ,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    ORLICZ,
    SpaceDescriptor,
    UnsupportedFamily,
    norm as space_norm,
)
from .young import (
    FAILS,
    HOLDS,
    UNDECIDED,
    QuasiConvexFn,
    Verdict,
    YoungFn,
    _ratio_inf_desc,
    _ratio_zero_desc,
    delta2,
    fails,
    holds,
    nabla2,
    undecided,
    young_from_derivative,
)


class NotInSpace(ValueError):
    """The function lies outside the space required by the construction."""


class ZeroFunction(ValueError):
    """The construction needs a nonzero function."""


# -- the auxiliary convex function and weight --------------------------------


@dataclass(frozen=True)
class GWData:
    """The convex companion of an endpoint generator and its weight.

    g is the reflected-ratio profile E_#(t)/t, G its integral (a genuine
    convex function on the generator's level), and w the non-increasing
    weight with G_inv(t) = t0 + integral of w over (0, t).
    """

    E: QuasiConvexFn
    G: YoungFn
    g: MonotoneFn
    G_inv: MonotoneFn     # left-continuous inverse of G
    g_inv: MonotoneFn     # left-continuous inverse of g
    t0: float
    t_inf: float

    def w(self, r):
        """The non-increasing weight 1 / g(G_inv(r)), with w(0) = +inf."""
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        q = np.atleast_1d(arr)
        out = np.empty_like(q)
        zero = q == 0.0
        out[zero] = INF
        rest = ~zero
        if rest.any():
            gv = self.g(self.G_inv(q[rest]))
            with np.errstate(divide="ignore"):
                out[rest] = np.where(gv == 0.0, INF,
                                     np.where(np.isinf(gv), 0.0, 1.0 / gv))
        return float(out[0]) if scalar else out

    def w_integral(self, r):
        """integral of w over (0, r], through the inverse identity."""
        return max(self.G_inv(r) - self.t0, 0.0)


def build_gw(E: QuasiConvexFn) -> GWData:
    """Construct the convex companion, its inverses and the weight, and
    verify the inverse sandwich at construction.  The result is kept on the
    generator (``E.gw``), so later calls with the same generator reuse it."""
    if E.gw is not None:
        return E.gw
    base = E.base
    refl = base.correlative()
    g = MonotoneFn(refl.t, np.where(np.isfinite(refl.v), refl.v, INF) / refl.t,
                   _ratio_zero_desc(refl.zero_desc), _ratio_inf_desc(refl.inf_desc),
                   validate=False)
    G = young_from_derivative(g)
    G_inv = G.base.left_inverse()
    g_inv = g.left_inverse()
    tau_inf = base.t_inf
    tau_0 = base.t_zero
    t0 = 0.0 if math.isinf(tau_inf) else 1.0 / tau_inf
    t_inf = INF if tau_0 == 0.0 else 1.0 / tau_0
    data = GWData(E, G, g, G_inv, g_inv, t0, t_inf)
    _verify_gw(data)
    E.gw = data
    return data


def _verify_gw(data, tol=1e-6):
    E_sharp_inv = data.E.base.correlative().right_inverse()
    t = data.G.base.t
    v = data.G.base.v
    window = t[(v > 0) & np.isfinite(v)]
    if window.size:
        s = data.G.base(window)
        lo = E_sharp_inv(s)
        mid = data.G_inv(s)
        bad_lo = mid < lo * (1 - tol) - 1e-300
        bad_hi = mid > 2.0 * lo * (1 + tol) + 1e-300
        if bad_lo.any() or bad_hi.any():
            raise ValueError("inverse sandwich fails for the convex companion")
        # the weight integrates back to the inverse
        probe = s[:: max(1, s.size // 16)]
        for r in probe:
            if not math.isfinite(r) or r <= 0:
                continue
            lhs = data.w_integral(float(r)) + data.t0
            rhs = data.G_inv(float(r))
            if abs(lhs - rhs) > tol * max(rhs, 1.0):
                raise ValueError("weight integral identity fails")


# -- exact composition integrals ----------------------------------------------


def integrate_outer_reciprocal(outer: MonotoneFn, table: MonotoneFn, c,
                               lo=0.0, hi=INF):
    """integral over (lo, hi) of outer(c / table(t)) dt, exact per power
    chunk, for each row (c, lo, hi) of the broadcast arguments.

    The inner map is non-increasing on each power segment of the table, so
    splitting at preimages of the outer grid makes every chunk a single
    power of t.  Segments where the table vanishes on positive measure are
    charged outer's value at infinity (conservatively infinite if that is
    infinite).

    The rows are answered in order up to the first that diverges.  Each
    row's residuals beyond the table's grid (40 decades below its first
    node and above its last) come first, so the rows from the first
    divergent residual on cost no segment work.  The rows before it are
    integrated in one array pass: their edges sit in one flat array with a
    row index, so the table, the outer function and the chunking are each
    called once for all of them.  A row's value is its segments summed left
    to right, then its residual toward 0, then its residual toward infinity.

    Scalar arguments give a float.  Otherwise the result holds the rows up
    to the first that diverges, which reads +inf and ends it.
    """
    shape = np.broadcast(c, lo, hi).shape
    zero = np.zeros(shape or 1)
    c, lo, hi = c + zero, lo + zero, hi + zero
    t0, t1 = table.t[0], table.t[-1]
    lo_eff = np.maximum(lo, t0 * 1e-40)
    hi_eff = np.minimum(hi, t1 * 1e40)
    live = hi_eff > lo_eff
    res_lo, res_hi = _end_residuals(outer, table, c, lo, hi, lo_eff, hi_eff, live)
    ends_diverge = np.isinf(res_lo) | np.isinf(res_hi)
    n = int(np.argmax(ends_diverge)) if ends_diverge.any() else c.size
    rows = np.flatnonzero(live[:n])
    total = np.zeros(n)
    if rows.size:
        total = _segment_sums(outer, table, c, lo_eff, hi_eff, rows, n)
    total = total + res_lo[:n] + res_hi[:n]
    if n < c.size:
        total = np.append(total, INF)
    diverged = np.flatnonzero(np.isinf(total))
    if diverged.size:
        total = total[:diverged[0] + 1]
    return total if shape else float(total[0])


def _row_edges(owner, pts):
    """The points sorted by row and, within a row, ascending, with repeats
    dropped (np.unique per row)."""
    order = np.lexsort((pts, owner))
    owner, pts = owner[order], pts[order]
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]) | (owner[1:] != owner[:-1])
    return owner[keep], pts[keep]


def _segment_sums(outer, table, c, lo_eff, hi_eff, rows, n):
    """The segment integrals of the given rows summed per row, left to
    right (rows among the first n; the others read 0)."""
    t0, t1 = table.t[0], table.t[-1]
    lo_r, hi_r = lo_eff[rows], hi_eff[rows]
    # the table's nodes inside each row: table.t[first:first + count]
    first = np.searchsorted(table.t, lo_r, side="right")
    count = np.maximum(np.searchsorted(table.t, hi_r, side="left") - first, 0)
    inner = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    # geometric extension grids where a row reaches past the table's ends
    head = rows[(lo_r < t0) & (t0 < hi_r)]
    tail = rows[(lo_r < t1) & (t1 < hi_r)]
    grids = [geometric_grid(lo_eff[i], t0, 8) for i in head] + \
        [geometric_grid(t1, hi_eff[i], 8) for i in tail]
    owner, edges = _row_edges(
        np.concatenate((rows, rows, np.repeat(rows, count),
                        np.repeat(np.append(head, tail), [g.size for g in grids]))),
        np.concatenate([lo_r, hi_r, table.t[inner]] + grids))
    tv = table(edges)
    # refine segments that cross a vanishing or an infinite table value
    same = owner[1:] == owner[:-1]
    trans = same & (((tv[:-1] == 0.0) & (tv[1:] > 0.0)) |
                    (np.isfinite(tv[:-1]) & (tv[:-1] > 0) & np.isinf(tv[1:])))
    if trans.any():
        k = np.flatnonzero(trans)
        extra = np.geomspace(edges[k] * (1 + 1e-12), edges[k + 1], 33)
        owner, edges = _row_edges(
            np.concatenate((owner, np.broadcast_to(owner[k], extra.shape).ravel())),
            np.concatenate((edges, extra.ravel())))
        tv = table(edges)
        same = owner[1:] == owner[:-1]
    # each pair of consecutive edges of one row is a segment; a pair across
    # two rows counts 0
    ta, tb = edges[:-1], edges[1:]
    va, vb = tv[:-1], tv[1:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cs = c[owner[:-1]]
        u_a, u_b = cs / va, cs / vb  # inner values at the edges (u_a >= u_b)
        # Where the table is 0 at both ends or at the left end (a leading
        # sliver of a ramp), or so small that c / va overflows (u_a = inf:
        # conservative), +inf at the left end (u_a = 0), +inf at the right
        # end (the inner argument falls from u_a to zero: bounded by its left
        # edge) or where u_a == u_b, the integrand is charged outer(u_a) over
        # the whole segment.
        pieces = np.where(same, outer(u_a) * (tb - ta), 0.0)
    chunked = same & np.isfinite(u_a) & np.isfinite(vb) & (u_a != u_b)
    pieces[chunked] = _outer_chunks(outer, ta[chunked], tb[chunked], va[chunked],
                                    vb[chunked], u_a[chunked], u_b[chunked])
    # each row's pieces left to right down one column of a zero-padded
    # table, summed by a running sum down the columns; the 0 of a pair
    # across rows lands past its row's last piece, and trailing zeros add
    # nothing
    pos = np.arange(edges.size) - np.searchsorted(owner, owner)
    padded = np.zeros((pos.max() + 1, n))
    padded[pos[:-1], owner[:-1]] = pieces
    sums = np.cumsum(padded, axis=0)[-1]
    sums[owner[:-1][np.isinf(pieces)]] = INF
    return sums


def _outer_chunks(outer, ta, tb, va, vb, u_a, u_b):
    """Per-segment integrals of outer(c / inner) over [ta, tb], for power
    segments of the inner table with u_a = c/va > u_b = c/vb, split at the
    preimages of the outer grid points between u_b and u_a."""
    ot = outer.t
    # the outer grid points strictly between u_b and u_a are ot[lo:hi]
    lo = np.searchsorted(ot, u_b, side="right")
    hi = np.searchsorted(ot, u_a, side="left")
    n_nodes = hi - lo + 2
    first = np.cumsum(n_nodes) - n_nodes
    seg = np.repeat(np.arange(ta.size), n_nodes)
    j = np.arange(seg.size) - first[seg]
    # each segment's nodes run u_a, the grid points descending, u_b, so their
    # preimages ascend from ta to tb
    us = ot[np.clip(hi[seg] - j, 0, ot.size - 1)]
    us[first] = u_a
    us[first + n_nodes - 1] = u_b
    # preimages: u = u_a (t/ta)^(-sigma)  =>  t = ta (u_a/u)^(1/sigma)
    with np.errstate(divide="ignore", over="ignore"):
        sigma = np.log(vb / va) / np.log(tb / ta)
        ts = ta[seg] * (u_a[seg] / us) ** (1.0 / sigma[seg])
    ts = np.clip(ts, ta[seg], tb[seg])
    ovals = outer(us)
    left = np.flatnonzero(j[1:] > 0)
    seg_int = _power_segment_integral(ovals[left], ovals[left + 1],
                                      ts[left], ts[left + 1])
    # segment s owns its n_nodes - 1 consecutive chunks
    return np.add.reduceat(seg_int, first - np.arange(ta.size))


def _end_residuals(outer, table, c, lo, hi, lo_eff, hi_eff, live):
    """Each row's residuals past its segments: over (lo, lo_eff) toward 0
    and over (hi_eff, hi) toward infinity.  The integrand is evaluated at
    each end and at half of it for all rows at once (a vanishing table
    gives outer's value at infinity, an infinite one outer(0)); its local
    power is then classified and integrated per row."""
    res_lo, res_hi = np.zeros(c.size), np.zeros(c.size)
    below = np.flatnonzero(live & (lo < lo_eff) & (lo_eff > 0.0))
    above = np.flatnonzero(live & (hi > hi_eff))
    ends = np.concatenate((lo_eff[below], hi_eff[above]))
    if not ends.size:
        return res_lo, res_hi
    cs = np.concatenate((c[below], c[above]))
    with np.errstate(divide="ignore", over="ignore"):
        vals = outer(np.tile(cs, 2) / table(np.concatenate((ends / 2.0, ends)))).tolist()
    half, at = vals[:ends.size], vals[ends.size:]
    for k, i in enumerate(below):
        res_lo[i] = _residual_zero(half[k], at[k], lo_eff[i])
    for k, i in enumerate(above, below.size):
        res_hi[i] = _residual_inf(half[k], at[k], hi_eff[i], hi[i])
    return res_lo, res_hi


def _residual_zero(o1, o2, end):
    """integral over (0, end) of an integrand worth o1 at end / 2 and o2 at
    end, as the power of t through both; near-harmonic classes count as
    divergent."""
    if math.isinf(o1) or math.isinf(o2):
        return INF
    if o1 == 0.0:
        return 0.0
    if o2 == 0.0 or o1 <= o2:
        return o2 * end  # bounded toward zero
    e = math.log(o2 / o1) / math.log(2.0)  # integrand ~ t**e toward zero
    if e <= -1.0 + 1e-9:
        return INF
    return o2 * end / (e + 1.0)


def _residual_inf(o1, o2, end, hi):
    """integral over (end, hi) of an integrand worth o1 at end / 2 and o2 at
    end, as the power of t through both."""
    if math.isinf(o2):
        return INF
    if o2 == 0.0:
        return 0.0
    if o1 <= o2 or o1 == 0.0:
        return INF if math.isinf(hi) else o2 * (hi - end)
    e = math.log(o2 / o1) / math.log(2.0)
    if e >= -1.0 - 1e-9:
        return INF if math.isinf(hi) else o2 * (hi - end)
    return o2 * end / (-e - 1.0)


# -- certificates -------------------------------------------------------------


def orlicz_lambda_Nlambda(A: YoungFn, E: QuasiConvexFn, lam: float) -> float:
    """Certificate integral for the embedding of the Orlicz space into the
    strong endpoint space; finite value N yields the constant N + lam."""
    if lam <= 0:
        raise ValueError("need lam > 0")
    data = build_gw(E)
    return integrate_outer_reciprocal(data.g_inv, A.derivative, 1.0 / lam)


def ol_inequality_gap(A: YoungFn, G: YoungFn, v: SampledFn, f: SampledFn,
                      lam: float):
    """Both sides of the threshold-decomposition inequality; the contract is
    lhs <= rhs whenever the right side is finite."""
    if lam <= 0:
        raise ValueError("need lam > 0")
    G_inv = G.base.left_inverse()
    g_inv = G.derivative.left_inverse()
    star = rearrange(f)
    d = star.distribution
    # left side: piecewise-constant integrand against the weight steps; the
    # cut points are the breaks of the weight and the distinct values of |f|,
    # where its level measure steps
    weights, breaks = v.values, v.breaks
    cuts = np.unique(np.clip(np.concatenate((breaks, star.values)), 0.0, breaks[-1]))
    a, b = cuts[:-1], cuts[1:]
    w_cut = weights[np.searchsorted(breaks, a, side="right") - 1]
    on = w_cut != 0.0
    terms = G_inv(d(0.5 * (a[on] + b[on]))) * w_cut[on] * (b[on] - a[on])
    lhs = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    # right side: the exact composed integral of every nonzero weight step,
    # one row each, plus the modular, added step by step from 0
    step = weights != 0.0
    wv = weights[step]
    pieces = integrate_outer_reciprocal(g_inv, A.derivative, wv / lam,
                                        breaks[:-1][step], breaks[1:][step])
    if np.isinf(pieces).any():
        return lhs, INF
    mod = modular(f, A)
    if math.isinf(mod):
        return lhs, INF
    rhs = np.cumsum(np.concatenate(([0.0], pieces * wv, [lam * mod])))[-1]
    return lhs, float(rhs)


def classical_lorentz_Nlambda(A: YoungFn, w: SampledFn, q: float,
                              lam: float) -> float:
    """Certificate integral for the embedding of the Orlicz space into a
    classical Lorentz space with a non-increasing step weight."""
    if lam <= 0 or q <= 0:
        raise ValueError("need lam > 0 and q > 0")
    vals = w.values
    if np.any(vals[1:] > vals[:-1] * (1 + 1e-12)):
        raise ValueError("the weight must be non-increasing")
    # the descending distinct values of w, and the mass W at the right end
    # of each run of equal values, added in order
    run_end = np.append(vals[1:] != vals[:-1], True)[:vals.size]
    thresholds = vals[run_end]
    masses = np.cumsum(vals * w.widths)
    total_mass = float(masses[-1]) if masses.size else 0.0
    mass_above = np.append(0.0, masses[run_end])

    def outer_step(y):
        """W(w_inverse(y)): mass of the region where the weight exceeds y."""
        # the index counts the thresholds at or above y
        idx = np.searchsorted(-thresholds, -np.asarray(y, dtype=float), side="right")
        return np.where(y > 0, mass_above[idx], total_mass)

    # integrand: outer_step(lam a(t) t^(1-q)) t^(q-1) on the segments of the
    # derivative, each cut where the inner map crosses a threshold
    a = A.derivative
    t0, t1 = a.t[0], a.t[-1]
    edges = np.unique(np.concatenate((geometric_grid(t0 * 1e-30, t0, 8),
                                      a.t, geometric_grid(t1, t1 * 1e30, 8))))
    av = a(edges)
    ta, tb, va, vb = edges[:-1], edges[1:], av[:-1], av[1:]
    pieces = np.zeros(ta.size)
    # where the derivative vanishes the whole mass counts; from its jump to
    # +inf on, the mass above any level is zero
    zero = vb == 0.0
    pieces[zero] = total_mass * (tb[zero] ** q - ta[zero] ** q) / q
    live = ~zero & ~np.isinf(va)
    ta, tb, va, vb = ta[live], tb[live], va[live], vb[live]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma = np.where((vb == va) | (va == 0.0), 0.0, np.log(vb / va) / np.log(tb / ta))
        expo = (sigma + 1.0 - q)[:, None]
        # on the segment the inner map is C t**expo
        C = (lam * np.where(va == 0.0, vb * (ta / tb), va) * ta ** -sigma)[:, None]
        cross = (thresholds[thresholds > 0] / C) ** (1.0 / expo)
        inside = (C > 0) & (expo != 0.0) & (ta[:, None] < cross) & (cross < tb[:, None])
        cuts = np.sort(np.column_stack((ta, np.where(inside, cross, tb[:, None]), tb)), axis=1)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        mass = outer_step(C * np.sqrt(lo * hi) ** expo)
        cells = np.where((hi > lo) & (mass > 0), mass * (hi ** q - lo ** q) / q, 0.0)
    pieces[live] = np.cumsum(cells, axis=1)[:, -1]
    if np.isinf(pieces).any():
        return INF
    total = float(np.cumsum(np.append(0.0, pieces))[-1])
    # residual near zero: inner -> 0 when the derivative vanishes fast enough
    lead = outer_step(lam * av[0] * edges[0] ** (1.0 - q)) if av[0] > 0 else total_mass
    total += lead * edges[0] ** q / q
    # residual near infinity: the integrand vanishes beyond the preimage of
    # the smallest threshold whenever the inner map grows, as it does where
    # the derivative is +inf
    v1, v2 = a(edges[-1] / 2.0), a(edges[-1])
    grow = INF if v2 == INF else \
        (v2 * edges[-1] ** (1.0 - q)) / max(v1 * (edges[-1] / 2.0) ** (1.0 - q), 1e-300)
    if grow <= 1.0 + 1e-12:
        inner_end = lam * v2 * edges[-1] ** (1.0 - q)
        if outer_step(inner_end) > 0:
            return INF
    return total


# -- the constructive witness --------------------------------------------------


def construct_witness_young(f: SampledFn, E: QuasiConvexFn) -> YoungFn:
    """A Young function whose Orlicz space contains the given function and
    embeds into the strong endpoint space of the generator, built from the
    weight evaluated along the function's level measures.

    The derivative is the step function tau -> w(measure of {|h| > tau}) for
    h the function normalized by twice its endpoint norm; plateaus are stored
    with ulp-paired nodes so integrals of the step are exact.
    """
    if f.tail is not None:
        # the derivative is +inf past the top step value, where a tail goes on
        raise ValueError("the witness takes step functions only, "
                         "not a function with a tail piece")
    if f.is_zero:
        raise ZeroFunction("the witness needs a nonzero function")
    lamE = lambda_norm(f, E)
    if not math.isfinite(lamE) or lamE <= 0:
        raise NotInSpace("the function lies outside the strong endpoint space")
    data = build_gw(E)
    scale = 2.0 * lamE
    h = rearrange(f.scale(1.0 / scale))
    values = h.values[::-1]               # ascending distinct values of |h|
    above = h.breaks[1:][::-1]            # measure of {|h| >= that value}
    # on [v_j, v_{j+1}) the measure above the threshold is the mass above
    # v_{j+1}; below v_1 it is the full mass.  The step at v_j is the node
    # pair (v_j - ulp, v_j), and the last value is followed by +inf
    levels = data.w(above)
    prev = float(values[-1])
    grid = np.append(np.column_stack((np.nextafter(values, 0.0), values)),
                     prev * (1 + 2 ** -40))
    vals = np.append(np.column_stack((levels, np.append(levels[1:], levels[-1]))), INF)
    vals = np.maximum.accumulate(vals)
    keep = np.empty(grid.size, dtype=bool)
    keep[0] = True
    keep[1:] = grid[1:] > grid[:-1]
    deriv = MonotoneFn(grid[keep], vals[keep],
                       zero_desc=limit_const_desc(float(vals[0])),
                       inf_desc=infinite_beyond_desc(float(prev)),
                       validate=False)
    return young_from_derivative(deriv)


# -- almost-compact embedding ---------------------------------------------------


def ac_embedding_check(A: YoungFn, E: QuasiConvexFn) -> Verdict:
    """Vanishing-tail embedding of the Orlicz space into the strong endpoint
    space on the unit interval: an integrability condition at zero that must
    hold at every scale."""
    if E.t_inf < INF:
        return fails(reason="the generator is not finite-valued")
    a_inv = A.derivative.right_inverse()
    data = build_gw(E)
    # inner(s) = lam * s * E(1/s) = lam / g(s); integrate near zero
    cap = min(1.0, float(data.g.t[-1]))
    lams = np.ldexp(1.0, np.arange(-10, 11, 5))
    results = integrate_outer_reciprocal(a_inv, data.g, lams, 0.0, cap)
    if np.isinf(results[-1]):
        # the rows end at the first divergent scale, in ascending order
        return fails(witness=float(lams[results.size - 1]),
                     reason="integral diverges at this scale")
    # symbolic confirmation that the class is scale-free
    dz = data.g.zero_desc
    da = a_inv.inf_desc
    scale_free = dz.kind in (POWER_LOG, ZERO_ON_INTERVAL) and \
        da.kind in (POWER_LOG, INFINITE_BEYOND, LIMIT_CONST)
    if scale_free:
        return holds(max(results.tolist()), reason="integrable at zero for every scale")
    return undecided("finite at sampled scales; class not symbolically scale-free")


# -- per-family diagonality rules ----------------------------------------------


SUB_DIAGONAL = "sub-diagonal"
UNIFORMLY_SUB_DIAGONAL = "uniformly-sub-diagonal"
NOT_SUB_DIAGONAL = "not-sub-diagonal"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class DiagonalityStatus:
    """The two verdicts of a diagonality rule; the status is read off them."""

    sub: Verdict
    uniform: Verdict
    rule: str

    @property
    def status(self):
        sub, uniform = self.sub.status, self.uniform.status
        if sub == FAILS:
            return NOT_SUB_DIAGONAL
        if sub == HOLDS and uniform != UNDECIDED:
            return UNIFORMLY_SUB_DIAGONAL if uniform == HOLDS else SUB_DIAGONAL
        return UNKNOWN


def subdiagonality_status(X: SpaceDescriptor) -> DiagonalityStatus:
    """Whether the space equals the union of the Orlicz spaces (almost
    compactly) embedded into it, by the per-family rules."""
    fam = X.family
    if fam == LEBESGUE:
        sub = holds(reason="every integrability class is a union of smaller ones")
        uniform = (fails(reason="the sup-norm class is not") if math.isinf(X.p)
                   else holds(reason="finite exponent doubles"))
        rule = "integrability-scale"
    elif fam == ORLICZ:
        sub = holds(reason="Orlicz spaces are unions of smaller Orlicz spaces")
        uniform = delta2(X.generator, NEAR_INFINITY)
        rule = "doubling-near-infinity"
    elif fam == LORENTZ:
        sub = uniform = (holds(reason="second index at most the first") if X.q <= X.p
                         else fails(reason="second index exceeds the first"))
        rule = "second-index-rule"
    elif fam == LAMBDA:
        sub = holds(reason="strong endpoint spaces are unions of Orlicz spaces")
        uniform = nabla2(X.generator, NEAR_INFINITY)
        if uniform.status != HOLDS:
            uniform = undecided("the sufficient condition fails; uniformity is open")
        rule = "reverse-doubling-sufficient"
    elif fam == CLASSICAL_LORENTZ:
        sub = holds(reason="union structure lifts through the power map")
        c = _weight_halving_constant(X.weight)
        uniform = (holds(c, reason="weight halves under scaling") if c is not None
                   else undecided("no halving constant found"))
        rule = "weight-halving-sufficient"
    else:
        raise UnsupportedFamily(fam)
    return DiagonalityStatus(sub, uniform, rule)


def _weight_halving_constant(w: SampledFn):
    """Search for c with 2 w(c t) <= w(t) on the support grid."""
    if not w.values.size:
        return None
    mids = 0.5 * (w.breaks[:-1] + w.breaks[1:])
    base = w.layout(mids)
    c = np.ldexp(1.0, -np.arange(1, 24))
    scaled = w.layout(np.multiply.outer(c, mids))
    ok = (2.0 * scaled <= base + 1e-300).all(axis=1) & (scaled[:, 0] > 0) & (base > 0).all()
    return float(c[ok][0]) if ok.any() else None


# -- norm lifting ---------------------------------------------------------------


def lifted_norm(F: YoungFn, X: SpaceDescriptor, f: SampledFn,
                rel_tol=1e-10) -> float:
    """Norm of the composition space: the least scale at which the F-image
    of the function has unit norm in X.  Step functions only."""
    if f.tail is not None:
        raise ValueError("the lifted norm takes step functions only, "
                         "not a function with a tail piece")
    if f.is_zero:
        return 0.0
    def norms(lams):
        images = F(f.values / lams[:, None])
        # a piece of +inf has positive width, so its norm is +inf
        return np.array([INF if np.isinf(image).any() else space_norm(
            X, SampledFn(np.column_stack((image, f.widths)), f.length))
            for image in images])

    return gauge_norm(norms, f, F, rel_tol)
