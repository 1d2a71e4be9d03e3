"""Union-of-Orlicz structure of endpoint spaces: embedding certificates,
the constructive witness generator, almost-compact embedding tests, and the
per-family (uniform) sub-diagonality rules, plus the norm-lifting map.

The quantitative certificates reduce to integrals of outer(c / table(t)),
which are computed exactly per power chunk by splitting at preimages of the
outer function's grid.  All segments of the table are integrated in one
array pass: the chunk nodes of every segment sit in one flat array, so an
integral costs a fixed number of evaluations of the two tables whatever the
size of their grids.  The convex companion of an endpoint generator is
built once and kept on the generator object.
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
    distribution,
    lambda_norm,
    least_admissible_scale,
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


def integrate_outer_reciprocal(outer: MonotoneFn, table: MonotoneFn, c: float,
                               lo: float = 0.0, hi: float = INF) -> float:
    """integral over (lo, hi) of outer(c / table(t)) dt, exact per power chunk.

    The inner map is non-increasing on each power segment of the table, so
    splitting at preimages of the outer grid makes every chunk a single
    power of t.  Segments where the table vanishes on positive measure are
    charged outer's value at infinity (conservatively infinite if that is
    infinite).  All segments are integrated in one array pass.
    """
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
    res = _outer_residual_zero(outer, table, c, lo, lo_eff)
    if math.isinf(res):
        return INF
    total += res
    res = _outer_residual_inf(outer, table, c, hi_eff, hi)
    if math.isinf(res):
        return INF
    return total + res


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


def _integrand_at(outer, table, c, t):
    v = float(table(t))
    if v == 0.0:
        return float(outer.value_at_inf)
    if np.isinf(v):
        return float(outer(0.0))
    return float(outer(c / v))


def _outer_residual_zero(outer, table, c, lo, lo_eff):
    """Residual of the composed integrand over (lo, lo_eff): classify the
    local power and integrate it; near-harmonic classes count as divergent."""
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


def _outer_residual_inf(outer, table, c, hi_eff, hi):
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
    d = distribution(f)
    # left side: piecewise-constant integrand against the weight steps; the
    # cut points are the breaks of the weight and the distinct values of |f|,
    # where its level measure steps
    weights = np.asarray([wv for wv, _ in v.pieces], dtype=float)
    breaks = np.concatenate(([0.0], np.cumsum([ww for _, ww in v.pieces])))
    value_knots = d.knots() if f.pieces else np.asarray([])
    cuts = np.unique(np.clip(np.concatenate((breaks, value_knots)), 0.0, breaks[-1]))
    a, b = cuts[:-1], cuts[1:]
    w_cut = weights[np.searchsorted(breaks, a, side="right") - 1]
    on = w_cut != 0.0
    terms = G_inv(d(0.5 * (a[on] + b[on]))) * w_cut[on] * (b[on] - a[on])
    lhs = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    # right side: exact composed integral per weight step plus the modular
    rhs = 0.0
    for wv, seg_lo, seg_hi in zip(weights, breaks[:-1], breaks[1:]):
        if wv == 0.0:
            continue
        piece = integrate_outer_reciprocal(g_inv, A.derivative, wv / lam,
                                           seg_lo, seg_hi)
        if math.isinf(piece):
            return lhs, INF
        rhs += piece * wv
    mod = modular(f, A)
    if math.isinf(mod):
        return lhs, INF
    rhs += lam * mod
    return lhs, rhs


def classical_lorentz_Nlambda(A: YoungFn, w: SampledFn, q: float,
                              lam: float) -> float:
    """Certificate integral for the embedding of the Orlicz space into a
    classical Lorentz space with a non-increasing step weight."""
    if lam <= 0 or q <= 0:
        raise ValueError("need lam > 0 and q > 0")
    vals = [pv for pv, _ in w.pieces]
    if any(b > a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:])):
        raise ValueError("the weight must be non-increasing")
    # cumulative mass at the thresholds of the step weight
    thresholds = []   # descending distinct values of w
    masses = []       # W at the right end of each run
    acc_width = 0.0
    acc_mass = 0.0
    for pv, pw in w.pieces:
        acc_width += pw
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
        """W(w_inverse(y)): mass of the region where the weight exceeds y."""
        if y <= 0:
            return total_mass
        idx = np.searchsorted(-thresholds, -y, side="right")
        # idx counts thresholds strictly above y
        return float(masses[idx - 1]) if idx > 0 else 0.0

    # integrand: outer_step(lam a(t) t^(1-q)) t^(q-1); walk the derivative's
    # segments, splitting at preimages of the thresholds
    a = A.derivative
    t0, t1 = a.t[0], a.t[-1]
    edges = np.unique(np.concatenate((geometric_grid(t0 * 1e-30, t0, 8),
                                      a.t, geometric_grid(t1, t1 * 1e30, 8))))
    av = a(edges)
    total = 0.0
    for k in range(edges.size - 1):
        ta, tb = float(edges[k]), float(edges[k + 1])
        va, vb = float(av[k]), float(av[k + 1])
        piece = _step_outer_piece(outer_step, thresholds, lam, q, ta, tb, va, vb)
        if math.isinf(piece):
            return INF
        total += piece
    # residual near zero: inner -> 0 when the derivative vanishes fast enough
    lead = outer_step(lam * av[0] * edges[0] ** (1.0 - q)) if av[0] > 0 else total_mass
    total += lead * edges[0] ** q / q
    # residual near infinity: the integrand vanishes beyond the preimage of
    # the smallest threshold whenever the inner map grows
    v1, v2 = a(edges[-1] / 2.0), a(edges[-1])
    grow = (v2 * edges[-1] ** (1.0 - q)) / max(v1 * (edges[-1] / 2.0) ** (1.0 - q), 1e-300)
    if grow <= 1.0 + 1e-12:
        inner_end = lam * v2 * edges[-1] ** (1.0 - q)
        if outer_step(inner_end) > 0:
            return INF
    return total


def _step_outer_piece(outer_step, thresholds, lam, q, ta, tb, va, vb):
    if tb <= ta or vb == 0.0:
        mass = outer_step(0.0) if vb == 0.0 else 0.0
        return mass * (tb ** q - ta ** q) / q if vb == 0.0 else 0.0
    if np.isinf(va):
        return 0.0  # inner infinite: the outer mass above any level is zero
    sigma = 0.0 if (vb == va or va == 0.0) else math.log(vb / va) / math.log(tb / ta)
    expo = sigma + 1.0 - q
    if va == 0.0:
        va = vb * (ta / tb) ** max(sigma, 1.0)
    # inner(t) = lam * va * (t/ta)^sigma * t^(1-q) = C t^expo
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


# -- the constructive witness --------------------------------------------------


def construct_witness_young(f: SampledFn, E: QuasiConvexFn) -> YoungFn:
    """A Young function whose Orlicz space contains the given function and
    embeds into the strong endpoint space of the generator, built from the
    weight evaluated along the function's level measures.

    The derivative is the step function tau -> w(measure of {|h| > tau}) for
    h the function normalized by twice its endpoint norm; plateaus are stored
    with ulp-paired nodes so integrals of the step are exact.
    """
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
    # v_{j+1}; below v_1 it is the full mass
    levels = [float(data.w(float(above[0])))]      # on (0, v_1)
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
    results = []
    for k in range(-10, 11, 5):
        lam = 2.0 ** k
        val = integrate_outer_reciprocal(a_inv, data.g, lam, 0.0, cap)
        results.append(val)
        if math.isinf(val):
            return fails(witness=lam, reason="integral diverges at this scale")
    # symbolic confirmation that the class is scale-free
    dz = data.g.zero_desc
    da = a_inv.inf_desc
    scale_free = dz.kind in (POWER_LOG, ZERO_ON_INTERVAL) and \
        da.kind in (POWER_LOG, INFINITE_BEYOND, LIMIT_CONST)
    if scale_free:
        return holds(max(results), reason="integrable at zero for every scale")
    return undecided("finite at sampled scales; class not symbolically scale-free")


# -- per-family diagonality rules ----------------------------------------------


SUB_DIAGONAL = "sub-diagonal"
UNIFORMLY_SUB_DIAGONAL = "uniformly-sub-diagonal"
NOT_SUB_DIAGONAL = "not-sub-diagonal"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class DiagonalityStatus:
    status: str
    sub: Verdict
    uniform: Verdict
    rule: str

    def __post_init__(self):
        if self.status == UNIFORMLY_SUB_DIAGONAL and self.sub.status != HOLDS:
            raise ValueError("uniform sub-diagonality implies sub-diagonality")


def subdiagonality_status(X: SpaceDescriptor) -> DiagonalityStatus:
    """Whether the space equals the union of the Orlicz spaces (almost
    compactly) embedded into it, by the per-family rules."""
    fam = X.family
    if fam == LEBESGUE:
        sub = holds(reason="every integrability class is a union of smaller ones")
        if math.isinf(X.p):
            return DiagonalityStatus(SUB_DIAGONAL, sub,
                                     fails(reason="the sup-norm class is not"),
                                     rule="integrability-scale")
        return DiagonalityStatus(UNIFORMLY_SUB_DIAGONAL, sub,
                                 holds(reason="finite exponent doubles"),
                                 rule="integrability-scale")
    if fam == ORLICZ:
        sub = holds(reason="Orlicz spaces are unions of smaller Orlicz spaces")
        d2 = delta2(X.generator, NEAR_INFINITY)
        if d2.status == HOLDS:
            return DiagonalityStatus(UNIFORMLY_SUB_DIAGONAL, sub, d2,
                                     rule="doubling-near-infinity")
        if d2.status == FAILS:
            return DiagonalityStatus(SUB_DIAGONAL, sub, d2,
                                     rule="doubling-near-infinity")
        return DiagonalityStatus(UNKNOWN, sub, d2, rule="doubling-near-infinity")
    if fam == LORENTZ:
        if X.q <= X.p:
            v = holds(reason="second index at most the first")
            return DiagonalityStatus(UNIFORMLY_SUB_DIAGONAL, v, v,
                                     rule="second-index-rule")
        v = fails(reason="second index exceeds the first")
        return DiagonalityStatus(NOT_SUB_DIAGONAL, v, v, rule="second-index-rule")
    if fam == LAMBDA:
        sub = holds(reason="strong endpoint spaces are unions of Orlicz spaces")
        n2 = nabla2(X.generator, NEAR_INFINITY)
        if n2.status == HOLDS:
            return DiagonalityStatus(UNIFORMLY_SUB_DIAGONAL, sub, n2,
                                     rule="reverse-doubling-sufficient")
        return DiagonalityStatus(UNKNOWN, sub,
                                 undecided("the sufficient condition fails; "
                                           "uniformity is open"),
                                 rule="reverse-doubling-sufficient")
    if fam == CLASSICAL_LORENTZ:
        sub = holds(reason="union structure lifts through the power map")
        c = _weight_halving_constant(X.weight)
        if c is not None:
            return DiagonalityStatus(UNIFORMLY_SUB_DIAGONAL, sub,
                                     holds(c, reason="weight halves under scaling"),
                                     rule="weight-halving-sufficient")
        return DiagonalityStatus(UNKNOWN, sub,
                                 undecided("no halving constant found"),
                                 rule="weight-halving-sufficient")
    raise UnsupportedFamily(fam)


def _weight_halving_constant(w: SampledFn):
    """Search for c with 2 w(c t) <= w(t) on the support grid."""
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
    values, widths = np.array(f.pieces).T

    def ok(lam):
        image = F.integral_value(values / lam)
        return space_norm(X, SampledFn(zip(image, widths), f.length)) <= 1.0

    return least_admissible_scale(ok, max(f.sup_value(), 1.0), rel_tol)
