"""Optimal-space constructors and existence tests for three operators:
the gradient-embedding (Sobolev) setting, the averaging maximal operator,
and the exponential-kernel integral transform.

All constructions reduce to exact piecewise-power integrals of the stored
tables plus symbolic descriptor arithmetic; the upper growth index is read
off the descriptor at infinity, and is the undecided band [1, inf] for a
bounded end, which no valid generator has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .alternative import (
    DOMAIN,
    TARGET,
    AlternativeOutcome,
    embeds,
    principal_alternative_domain,
    weak_strong_collapse,
)
from .monotone import (
    EXPONENTIAL,
    EXP_RECIPROCAL,
    GLOBAL,
    INF,
    LIMIT_CONST,
    NUMERIC_ONLY,
    POWER_LOG,
    ZERO_ON_INTERVAL,
    MonotoneFn,
    NUMERIC_DESC,
    _log_gamma_mass,
    cumulative_integral,
    default_grid,
    exp_reciprocal_desc,
    exponential_desc,
    geometric_grid,
    infinite_beyond_desc,
    power_log_desc,
)
from .spaces import (
    HALFLINE,
    LEBESGUE,
    LORENTZ,
    ORLICZ,
    UNIT,
    FundamentalFn,
    SpaceDescriptor,
    companions,
)
from .young import (
    FAILS,
    HOLDS,
    QuasiConvexFn,
    Verdict,
    YoungFn,
    conjugate,
    delta2,
    dominates,
    fails,
    holds,
    linfty_young,
    power_young,
    undecided,
    young_from_values,
    youngify,
)


class ConditionViolated(ValueError):
    """A stated precondition verdict is negative."""


@dataclass(frozen=True)
class SobolevContext:
    """Order and dimension of the embedding, on a normalized unit domain."""

    m: int
    n: int

    def __post_init__(self):
        if not (self.n >= 2 and 1 <= self.m <= self.n - 1):
            raise ValueError("need n >= 2 and 1 <= m <= n-1")

    @property
    def alpha(self):
        return self.m / self.n

    @property
    def threshold(self):
        return self.n / self.m


@dataclass(frozen=True)
class BoydEstimate:
    upper_index: float
    window: Tuple[float, float]
    exact: bool = False

    def __post_init__(self):
        lo, hi = self.window
        if not (lo <= self.upper_index <= hi):
            raise ValueError("index must lie inside its confidence window")


# -- growth index ------------------------------------------------------------


def boyd_upper_index(B: QuasiConvexFn) -> BoydEstimate:
    """Upper dilation-growth index of the generator, exact from its class at
    infinity; undecided on [1, inf] for a bounded end."""
    d = B.base.inf_desc
    if d.kind == POWER_LOG and B.t_inf == INF:
        return BoydEstimate(float(d.p), (float(d.p), float(d.p)), exact=True)
    if d.kind == EXPONENTIAL or B.t_inf < INF:
        return BoydEstimate(INF, (INF, INF), exact=True)
    return BoydEstimate(INF, (1.0, INF))


# -- gradient-embedding constructions ----------------------------------------


def sobolev_optimal_domain_fundamental(phi_Y: FundamentalFn, ctx: SobolevContext,
                                       beta: float = 1.0) -> FundamentalFn:
    """Profile of the largest admissible domain space for a target profile:
    t times the running sup of phi_Y(s**beta) s**(alpha-1) over s in (t, 1)."""
    alpha = ctx.alpha
    s = default_grid(-8, 0)
    vals = phi_Y(s ** beta) * s ** (alpha - 1.0)
    run = np.maximum.accumulate(vals[::-1])[::-1]
    out = np.maximum.accumulate(s * run)  # enforce monotone against float dust
    zd = _domain_profile_desc(phi_Y.phi.zero_desc, alpha, beta)
    phi = MonotoneFn(s, out, zd, NUMERIC_DESC, value_at_zero=0.0, validate=False)
    return FundamentalFn(phi)


def _domain_profile_desc(d, alpha, beta):
    if d.kind == POWER_LOG:
        e = beta * d.p + alpha - 1.0
        if e < 0 or (e == 0 and d.alpha < 0):
            return power_log_desc(beta * d.p + alpha, d.alpha)
        return power_log_desc(1.0, 0.0)
    if d.kind == LIMIT_CONST:
        return power_log_desc(alpha, 0.0)
    return NUMERIC_DESC


def sobolev_reduced_target_generator(B: YoungFn, ctx: SobolevContext) -> YoungFn:
    """The Young function whose inverse is t times the running inf of
    B^{-1}(s) s**(m/n - 1) over s in (1, t), near infinity."""
    alpha = ctx.alpha
    binv = B.inverse()
    s = geometric_grid(1.0, 1e10, 64)
    vals = binv(s) * s ** (alpha - 1.0)
    run = np.minimum.accumulate(vals)
    bn_inv_vals = s * run
    # continue below t = 1 with the local linear profile
    below = geometric_grid(1e-8, 1.0, 16)[:-1]
    lead = bn_inv_vals[0]
    t = np.concatenate((below, s))
    v = np.concatenate((below * lead, bn_inv_vals))
    v = np.maximum.accumulate(v)
    inf_desc = _domain_profile_desc(binv.inf_desc, alpha, 1.0)
    bn_inv = MonotoneFn(t, v, power_log_desc(1.0, 0.0), inf_desc,
                        value_at_zero=0.0, validate=False)
    qc = QuasiConvexFn(bn_inv.right_inverse(), validate=False)
    young = youngify(qc)
    return young


def _target_generator(target):
    """Young generator of an Orlicz-type target given as a space or directly."""
    if not isinstance(target, SpaceDescriptor):
        return target
    if target.family == ORLICZ:
        return target.generator
    if target.family == LEBESGUE:
        return linfty_young() if math.isinf(target.p) else power_young(target.p)
    raise ConditionViolated("the reduced construction needs an Orlicz target")


def sobolev_orlicz_domain(target, ctx: SobolevContext) -> AlternativeOutcome:
    """Existence and identity of the largest Orlicz domain for an Orlicz
    target: reduce the target, then gate on the growth index."""
    B = _target_generator(target)
    Bn = sobolev_reduced_target_generator(B, ctx)
    est = boyd_upper_index(Bn)
    thr = ctx.threshold
    space = SpaceDescriptor(ORLICZ, UNIT, generator=Bn)
    extra = {"index": est.upper_index, "window": est.window,
             "threshold": thr, "exact": est.exact}
    lo, hi = est.window
    band = 0.05
    if est.exact:
        ev = (holds(est.upper_index, reason="growth index below threshold")
              if est.upper_index < thr else
              fails(est.upper_index, reason="growth index at or above threshold"))
    elif hi < thr - band:
        ev = holds(est.upper_index, reason="estimated index below threshold")
    elif lo > thr + band:
        ev = fails(est.upper_index, reason="estimated index above threshold")
    else:
        ev = undecided("estimated index inside the undecided band")
    return AlternativeOutcome(DOMAIN, space, ev, rule="growth-index-threshold", extra=extra)


def sobolev_no_largest_on_level(Y: SpaceDescriptor,
                                ctx: SobolevContext) -> AlternativeOutcome:
    """Largest Orlicz domain for a general catalog target: decide through the
    weak companion of the target's level, falling back to the direct
    domain-side dichotomy when the companion route is inconclusive."""
    if Y.family == ORLICZ:
        return sobolev_orlicz_domain(Y, ctx)
    L = companions(Y)[1]
    probe = sobolev_orlicz_domain(L, ctx)
    if probe.evidence.status == FAILS and weak_strong_collapse(L.generator):
        extra = dict(probe.extra or {})
        extra["route"] = "weak-companion"
        extra["weak_companion"] = L.label()
        return AlternativeOutcome(DOMAIN, probe.space, probe.evidence,
                                  rule="weak-companion-route", extra=extra)
    if Y.family == LORENTZ and Y.p < INF:
        inv_p = 1.0 / Y.p + ctx.alpha
        if inv_p < 1.0:
            rep = SpaceDescriptor(LORENTZ, Y.interval, p=1.0 / inv_p, q=Y.q)
            out = principal_alternative_domain(rep)
            extra = {"route": "catalog-domain-representative",
                     "representative": rep.label()}
            return AlternativeOutcome(DOMAIN, out.space, out.evidence, rule=out.rule,
                                      extra=extra)
    if Y.family == LEBESGUE and 1.0 < Y.p < INF:
        rep = SpaceDescriptor(LORENTZ, Y.interval, p=Y.p, q=Y.p)
        return sobolev_no_largest_on_level(rep, ctx)
    return AlternativeOutcome(DOMAIN, probe.space,
                              undecided("no rule beyond the companion route"),
                              rule="weak-companion-route", extra=probe.extra)


def sobolev_target_condition(phi_X: FundamentalFn, ctx: SobolevContext) -> Verdict:
    """Whether the domain profile contracts by a definite power under
    geometric shrinking: find sigma, c in (0,1) with
    phi(sigma t) <= c sigma**alpha phi(t) on (0, 1)."""
    alpha = ctx.alpha
    d = phi_X.phi.zero_desc
    if d.kind == POWER_LOG:
        if d.p > alpha:
            sigma = 0.25
            return holds(sigma, reason="power gap above the contraction exponent")
        return fails(reason="no power gap above the contraction exponent")
    t = default_grid(-8, 0)
    base = phi_X(t)
    pos = base > 0
    for k in range(1, 13):
        sigma = 2.0 ** (-k)
        ratio = phi_X(sigma * t[pos]) / (sigma ** alpha * base[pos])
        c = float(np.max(ratio))
        if c < 0.999:
            return holds(sigma, reason=f"contraction constant {c:.3g}")
    return undecided("no contraction constant found on the sigma grid")


def sobolev_optimal_target_fundamental(phi_X: FundamentalFn, ctx: SobolevContext,
                                       beta: float = 1.0) -> FundamentalFn:
    """Profile of the smallest admissible target space for a domain profile:
    t**(-alpha beta) phi_X(t**beta), valid under the contraction condition."""
    cond = sobolev_target_condition(phi_X, ctx)
    if cond.status == FAILS:
        raise ConditionViolated("the domain profile violates the contraction "
                                "condition; use the numeric associate route")
    alpha = ctx.alpha
    t = default_grid(-8, 0)
    vals = t ** (-alpha * beta) * phi_X(t ** beta)
    vals = np.maximum.accumulate(vals)
    d = phi_X.phi.zero_desc
    zd = power_log_desc(beta * (d.p - alpha), d.alpha) if d.kind == POWER_LOG \
        else NUMERIC_DESC
    phi = MonotoneFn(t, vals, zd, NUMERIC_DESC, value_at_zero=0.0, validate=False)
    return FundamentalFn(phi)


# -- the averaging maximal operator -------------------------------------------


# grid points of F times scales per array pass of the exponential-weight
# transform, which bounds the working memory at ~2.4 MB: 16 scales of a
# 1,025-point table that has no collinear run (a merged power table of a
# few dozen nodes takes all 257 default scales in one pass)
_BLOCK = 1 << 14

# a merged power segment reproduces every node it passes over to this
# relative bound, and so all of F between them (the two differ linearly in
# log-log between nodes): ~225 ulp, far above the rounding of a sampled
# power (the conjugate power tables lie within 4.6e-15 of one power), far
# below any slope change that a table records
_COLLINEAR_RTOL = 5e-14
# the longest merged segment, as a factor in abscissa: without this cap
# (one chord on each side of t = 1 for a power table) the transform of the
# t**2 conjugate is 2.1e-15 off mpmath in the median, against 7.2e-16, and
# that of the t**4 conjugate 1.2e-14 at most, against 2.1e-15.  Cells of
# abscissa, not counts of nodes, make a merged table merge to itself
_RUN_SPAN = 10.0


def exp_weight_transform(F: MonotoneFn, t_grid=None, cutoff=50.0):
    """G(t) = integral over tau of F(t tau) e^{-tau}; exact per power segment
    through incomplete-gamma differences, truncated at the cutoff with a
    descriptor-driven tail estimate.

    Each power piece of F is integrated once: runs of nodes on one log-log
    line are merged first (:func:`_merge_collinear`), and below the first
    node a pure power (alpha = 0) is integrated in closed form from 0; a
    log or exp-reciprocal factor there gets a 120-point geometric
    refinement and a linear ramp from 0.  The scales go through array
    passes of _BLOCK grid points each, which bounds the working memory
    whatever the size of the table."""
    if t_grid is None:
        t_grid = geometric_grid(1e-8, 1e8, 16)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.full(t_grid.shape, INF)
    if F.t_inf < INF:
        return t_grid, out
    F = _merge_collinear(F)
    cut = _exp_weight_cutoffs(F.inf_desc, t_grid, cutoff)
    live = np.flatnonzero(np.isfinite(cut))
    # each scale's head ends at the first node of F over it, or at the
    # cutoff where that lies beyond
    b_head = F.t[0] / t_grid[live]
    b_head = np.where(b_head < cut[live], b_head, cut[live])
    form = F.power_log_form(True)
    head_power = form[0] if form is not None and form[1] == 0.0 else None
    if head_power is None:
        # rows of geomspace are independent
        head = np.concatenate((np.zeros((live.size, 1)),
                               np.geomspace(b_head * 1e-12, b_head, 120, axis=1)), axis=1)
    else:
        head = b_head[:, None]
    step = max(1, _BLOCK // F.t.size)
    for lo in range(0, live.size, step):
        idx = live[lo:lo + step]
        out[idx] = _exp_weight_block(F, t_grid[idx], cut[idx], head[lo:lo + step],
                                     head_power, cutoff)
    return t_grid, out


def _merge_collinear(F):
    """F without the nodes that the log-log chord of their kept neighbours
    reproduces to _COLLINEAR_RTOL, each chord within one _RUN_SPAN cell of
    abscissa; F itself where no node drops.  Zero and infinite values, the
    first node of each cell, node pairs one ulp apart and the first and
    last three positive finite nodes are kept.  The merged table carries
    F's descriptors, which extrapolate from the first and last of those
    nodes, so it equals F beyond its grid."""
    t, v = F.t, F.v

    def misses(k, lo, hi):
        # the chord evaluated as MonotoneFn evaluates a power segment; a zero
        # or infinite end gives NaN, which misses
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.log(v[hi] / v[lo]) / np.log(t[hi] / t[lo])
            fit = v[lo] * np.exp(s * np.log(t[k] / t[lo]))
            return ~(np.abs(fit - v[k]) <= _COLLINEAR_RTOL * v[k])

    k = np.arange(1, t.size - 1)
    keep = np.ones(t.size, dtype=bool)
    keep[k] = misses(k, k - 1, k + 1)
    cell = np.floor(np.log(t) / math.log(_RUN_SPAN))
    keep[1:] |= cell[1:] != cell[:-1]
    ends = np.flatnonzero((v > 0.0) & np.isfinite(v))
    keep[ends[:3]] = keep[ends[-3:]] = True
    # a node pair one ulp apart records a step of F's derivative
    pair = t[1:] == np.nextafter(t[:-1], INF)
    keep[1:] |= pair
    keep[:-1] |= pair
    while not keep.all():
        kept, drop = np.flatnonzero(keep), np.flatnonzero(~keep)
        right = np.searchsorted(kept, drop)
        lo, hi = kept[right - 1], kept[right]
        bad = misses(drop, lo, hi)
        if not bad.any():
            return MonotoneFn(t[keep], v[keep], F.zero_desc, F.inf_desc,
                              value_at_zero=F.value_at_zero,
                              value_at_inf=F.value_at_inf, validate=False)
        # halve each chord that misses a node; a chord over one node passed
        # above, so this ends
        keep[(lo[bad] + hi[bad]) // 2] = True
    return F


def _exp_weight_block(F, t, cut, head, head_power, cutoff):
    """The transform at the scales t, each truncated at its own cutoff, in
    one array pass.  Each row of head starts the scale's breakpoints; with
    a head_power p, F is c x**p below its first node and the integral from
    0 to the row's one head point b is closed: F(t b) b**-p gamma(p + 1, b)."""
    n = t.size
    taus, rows = _tau_breakpoints(F.t, t, cut, head)
    vals = F(t[rows] * taus)
    bounds = np.searchsorted(rows, np.arange(n + 1))
    bad = np.zeros(n, dtype=bool)
    bad[rows[np.isinf(vals)]] = True
    # segments [a, b] join neighbouring breakpoints of one row
    seg = (rows[:-1] == rows[1:]) & (vals[1:] > 0) & (taus[1:] > taus[:-1])
    if bad.any():
        seg &= ~bad[rows[:-1]]
    a, b, va, vb = taus[:-1][seg], taus[1:][seg], vals[:-1][seg], vals[1:][seg]
    seg_rows = rows[:-1][seg]
    seg_bounds = np.searchsorted(seg_rows, np.arange(n + 1))
    # F(t tau) rises with tau, so a row's first segment is the only one
    # that can start at 0: a linear ramp
    first = seg_bounds[:-1][seg_bounds[:-1] < seg_bounds[1:]]
    ramp = first[va[first] == 0.0]
    ramp_rows = seg_rows[ramp]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ar, br = a[ramp], b[ramp]
        c = vb[ramp] / (br - ar)
        ramp_total = np.zeros(n)
        # c (tau - a) e**-tau integrates to c (mass at s = 2 - a mass at s = 1)
        m2, m1 = np.exp(_log_gamma_mass(np.array([[2.0], [1.0]]), ar, br))
        ramp_total[ramp_rows] = c * (m2 - ar * m1)
        # the power-segment formula runs over the ramps too; they are
        # left out of the checks and sums below
        sigma = np.where(vb == va, 0.0, np.log(vb / va) / np.log(b / a))
        log_piece = np.log(va) - sigma * np.log(a) + _log_gamma_mass(sigma + 1.0, a, b)
        pieces = np.exp(log_piece)
    finite = np.isfinite(pieces)
    finite[ramp] = True
    bad[seg_rows[~finite]] = True
    start = seg_bounds[:-1].copy()
    start[ramp_rows] += 1
    # one sum per scale over its own power segments, after its ramp: the
    # bits of the pairwise summation depend on which values are summed
    # together.  A 2-d sum along its contiguous rows adds each row as the
    # 1-d sum does, so the scales of one row length share one call
    length = seg_bounds[1:] - start
    sums = np.zeros(n)
    for m in np.unique(length[length > 0]).tolist():
        same = np.flatnonzero(length == m)
        sums[same] = np.add.reduce(pieces[start[same, None] + np.arange(m)], axis=1)
    total = ramp_total + sums
    if head_power is not None:
        b, vb = taus[bounds[:-1]], vals[bounds[:-1]]
        # vb multiplies outside exp: its log, far from 0 for a steep power,
        # would round the sum to tens of ulp
        with np.errstate(invalid="ignore", over="ignore"):
            total += vb * np.exp(_log_gamma_mass(head_power + 1.0, 0.0, b)
                                 - head_power * np.log(b))
    tail = _exp_weight_tail(F.inf_desc, vals[bounds[1:] - 1], cut, cutoff)
    total += tail
    total[bad | np.isinf(tail)] = INF
    return total


def _exp_weight_cutoffs(d, t_grid, cutoff):
    """Truncation point of the integral at each scale; inf where the
    transform diverges there."""
    if d.kind != EXPONENTIAL:
        return np.full(t_grid.shape, float(cutoff))
    out = np.full(t_grid.shape, INF)
    if d.gamma > 1.0:
        return out
    for i, t in enumerate(t_grid.tolist()):
        # choose a cutoff beyond which the integrand certainly decays
        if d.gamma == 1.0:
            if t >= 1.0:
                continue
            c = max(cutoff, 100.0 / (1.0 - t))
        elif t > 0:
            try:
                c = max(cutoff, 4.0 * (2.0 * t ** d.gamma) ** (1.0 / (1.0 - d.gamma)))
            except OverflowError:
                continue
        else:
            c = cutoff
        if math.isfinite(c) and c <= 1e6:
            out[i] = c
    return out


def _tau_breakpoints(grid, t, cut, head):
    """The tau breakpoints of every scale in one flat array, with row ids.

    Row i holds the head points head[i] up to the first node of F, the grid
    of F mapped through tau = x / t[i] inside (0, cut[i]), and cut[i].
    Each row is sorted by construction; repeats are dropped as np.unique
    would drop them."""
    n = t.size
    inner = grid[None, :] / t[:, None]
    inside = (inner > 0) & (inner < cut[:, None])
    table = np.concatenate((head, inner, cut[:, None]), axis=1)
    keep = np.concatenate((np.ones(head.shape, dtype=bool), inside,
                           np.ones((n, 1), dtype=bool)), axis=1)
    taus = table[keep]
    rows = np.repeat(np.arange(n), keep.sum(axis=1))
    new = np.ones(taus.size, dtype=bool)
    new[1:] = (taus[1:] != taus[:-1]) | (rows[1:] != rows[:-1])
    return taus[new], rows[new]


def _transform_desc_zero(d):
    """Asymptotic class near zero of the exponential-weight transform."""
    if d.kind == POWER_LOG:
        return d
    if d.kind == EXP_RECIPROCAL:
        return exp_reciprocal_desc(d.gamma / (1.0 + d.gamma))
    if d.kind == ZERO_ON_INTERVAL:
        return exp_reciprocal_desc(1.0)
    return NUMERIC_DESC


def _transform_desc_inf(d):
    """Asymptotic class near infinity of the exponential-weight transform."""
    if d.kind == POWER_LOG:
        return d
    if d.kind == EXPONENTIAL:
        if d.gamma < 1.0:
            return exponential_desc(d.gamma / (1.0 - d.gamma))
        return NUMERIC_DESC  # a finite jump appears; the table records it
    return NUMERIC_DESC


def _exp_weight_tail(d, v_end, cut, cutoff):
    """The integral beyond each scale's cutoff, from the value of F there."""
    with np.errstate(over="ignore", invalid="ignore"):
        if d.kind == EXPONENTIAL:
            # integrand decays at least like e^{-tau/2} beyond the adapted cutoff
            decay = np.array([math.exp(-c / 2.0) for c in cut.tolist()])
            return np.where(cut < 700, 2.0 * v_end * decay, 0.0)
        p = d.p if d.kind == POWER_LOG else 1.0
        weight = np.exp(_log_gamma_mass(p + 1.0, cutoff, max(cutoff * 4, 700.0)))
        return v_end * cutoff ** (-p) * weight


def _no_optimal(side, rule, reason):
    """The outcome of a gate that rules out every Orlicz space on ``side``."""
    return AlternativeOutcome(side, None, fails(reason=reason), rule=rule, extra={
        "reason": "no Orlicz target exists" if side == TARGET else "no Orlicz domain space"})


def maximal_optimal_target(A: YoungFn) -> AlternativeOutcome:
    """Smallest Orlicz target for the averaging maximal operator with Orlicz
    domain A: transform the conjugate through the exponential weight, undo
    the conjugation, and gate on the averaged-domination inequality."""
    At = conjugate(A)
    if At.t_inf < INF:
        return _no_optimal(TARGET, "weighted-moment-gate",
                           "conjugate jumps to infinity; the exponential-weight "
                           "moment diverges for every scale")
    d = At.base.inf_desc
    if d.kind == EXPONENTIAL and d.gamma > 1.0:
        return _no_optimal(TARGET, "weighted-moment-gate",
                           "conjugate grows super-exponentially")
    t_grid, vals = exp_weight_transform(At.base)
    # keep the representable window: below ~1e-280 the transform of a
    # double-exponentially vanishing conjugate is numerical dust
    fin = np.isfinite(vals) & (vals < 1e290) & (vals > 1e-280)
    if not fin.any() or not (vals[fin] > 0).any():
        return _no_optimal(TARGET, "weighted-moment-gate",
                           "weighted moments diverge at every sampled scale")
    t_fin = t_grid[fin]
    v_fin = vals[fin]
    smallest_t0 = float(t_fin[0])
    inf_desc = _transform_desc_inf(At.base.inf_desc)
    if inf_desc.kind == NUMERIC_ONLY and np.isinf(vals).any():
        # unit-rate conjugate: the moment diverges beyond a finite scale
        inf_desc = infinite_beyond_desc(float(t_grid[np.isinf(vals)][0]))
    Bt = young_from_values(t_fin, v_fin,
                           _transform_desc_zero(At.base.zero_desc),
                           inf_desc, convexify=True)
    B_A = conjugate(Bt)
    # averaged-domination gate, via the domain construction applied to B_A
    G = _averaged_domination_profile(cumulative_integral(B_A.base, weight_exp=-2.0))
    verdict = dominates(A, QuasiConvexFn(G, validate=False), GLOBAL)
    space = SpaceDescriptor(ORLICZ, HALFLINE, generator=B_A)
    extra = {"smallest_scale": smallest_t0, "constant": verdict.witness}
    return AlternativeOutcome(TARGET, space, verdict, rule="averaged-domination", extra=extra)


def _averaged_domination_profile(integ: MonotoneFn) -> MonotoneFn:
    """t times integ(t), integ the integral of B(tau)/tau**2 up to t; the
    canonical largest domain profile for the averaging maximal operator."""
    vals = integ.v * integ.t
    zd = integ.zero_desc
    if zd.kind == POWER_LOG:
        zd = power_log_desc(zd.p + 1.0, zd.alpha)
    di = integ.inf_desc
    if di.kind == POWER_LOG:
        di = power_log_desc(di.p + 1.0, di.alpha)
    return MonotoneFn(integ.t, vals, zd, di, value_at_zero=0.0, validate=False)


def maximal_optimal_domain(B: YoungFn) -> AlternativeOutcome:
    """Largest Orlicz domain for the averaging maximal operator with Orlicz
    target B: t times the averaged tail of B, when that average converges."""
    integ = cumulative_integral(B.base, weight_exp=-2.0)
    if not np.isfinite(integ.v).any() or np.isinf(integ.v[0]):
        return _no_optimal(DOMAIN, "averaged-tail-gate",
                           "the averaged tail of the target diverges at zero")
    prof = _averaged_domination_profile(integ)
    qc = QuasiConvexFn(prof, validate=False)
    space = SpaceDescriptor(ORLICZ, HALFLINE, generator=qc)
    ev = holds(1.0, reason="averaged tail converges; the averaged profile is "
                           "the largest admissible generator")
    return AlternativeOutcome(DOMAIN, space, ev, rule="averaged-tail")


# -- the exponential-kernel transform -----------------------------------------


def laplace_optimal_target(A: YoungFn) -> AlternativeOutcome:
    """Smallest Orlicz target for the exponential-kernel transform with
    Orlicz domain A; symbolic optimality rules for the power and the
    quadratic-log families, honest undecided otherwise."""
    At = conjugate(A)
    integ = cumulative_integral(At.base, weight_exp=-2.0)
    if not np.isfinite(integ.v).any() or np.isinf(integ.v[0]):
        return _no_optimal(TARGET, "log-moment-gate",
                           "the averaged tail of the conjugate diverges at zero")
    G = _averaged_domination_profile(integ)
    B_table = G.correlative()
    B_A = youngify(QuasiConvexFn(B_table, validate=False))
    space = SpaceDescriptor(ORLICZ, HALFLINE, generator=B_A)

    d0, d1 = A.base.zero_desc, A.base.inf_desc
    if d0.kind == d1.kind == POWER_LOG and d0.p == d1.p \
            and d0.alpha == 0.0 and d1.alpha == 0.0:
        p = float(d0.p)
        if p == 1.0:
            ev = holds(1.0, reason="bounded-target route: the transform maps "
                                   "the integrable class into the sup class")
            return AlternativeOutcome(TARGET, space, ev, rule="power-family", extra={"p": p})
        pd = p / (p - 1.0)
        rep = SpaceDescriptor(LORENTZ, HALFLINE, p=pd, q=p)
        return AlternativeOutcome(TARGET, space, embeds(rep, space), rule="power-family",
                                  extra={"p": p, "dual": pd,
                                         "representative": rep.label()})
    if _is_quadratic_log(A):
        t = np.geomspace(1e-4, 1e4, 41)
        ratio = B_A.base(t) / np.maximum(A.base(t), 1e-300)
        if np.isfinite(ratio).all() and ratio.max() <= 16.0 and ratio.min() >= 1.0 / 16.0:
            ev = holds(float(ratio.max()),
                       reason="self-mapped quadratic-log level")
            return AlternativeOutcome(TARGET, space, ev, rule="quadratic-log-family")
    ev = undecided("no symbolic optimality criterion for this family")
    return AlternativeOutcome(TARGET, space, ev, rule="level-representative")


def _is_quadratic_log(A: YoungFn):
    d0, d1 = A.base.zero_desc, A.base.inf_desc
    return d0.kind == d1.kind == POWER_LOG and d0.p == d1.p == 2.0


def laplace_interpolation_sufficient(A: YoungFn):
    """Sufficient boundedness route through interpolation between the
    integrable/sup pair and the self-dual square pair: requires the doubling
    condition and a sub-quadratic profile.  Returns the verdict and, when it
    holds, the optimal target generator."""
    d2 = delta2(A, GLOBAL)
    if d2.status != HOLDS:
        return (fails(reason="doubling fails: " + d2.reason)
                if d2.status == FAILS else undecided(d2.reason)), None
    t = A.base.t
    v = A.base.v
    fin = np.isfinite(v)
    ratio = v[fin] / t[fin] ** 2
    if np.any(np.diff(ratio) > 1e-9 * np.maximum(ratio[:-1], 1e-300)):
        k = int(np.flatnonzero(np.diff(ratio) > 1e-9 * ratio[:-1])[0])
        return fails(witness=float(t[fin][k]),
                     reason="profile grows faster than quadratic"), None
    target = youngify(conjugate(A).correlative())
    return holds(d2.witness, reason="doubling with sub-quadratic profile"), target
