"""Optimal-space constructors and existence tests for three operators:
the gradient-embedding (Sobolev) setting, the averaging maximal operator,
and the exponential-kernel integral transform.

All constructions reduce to exact piecewise-power integrals of the stored
tables plus symbolic descriptor arithmetic; growth indices fall back to a
log-log slope estimate with a declared undecided band when no symbolic
class is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special as _special

from .alternative import (
    DOMAIN,
    NO_OPTIMAL,
    OPTIMAL,
    TARGET,
    UNDECIDED_OUTCOME,
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


class QuadratureNonConvergent(ArithmeticError):
    """Tail estimates of an improper integral disagree beyond tolerance."""


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
    """Upper dilation-growth index of the generator; exact for symbolic
    classes, otherwise a log-log slope fit over dyadic dilations."""
    d = B.base.inf_desc
    if d.kind == POWER_LOG and B.t_inf == INF:
        return BoydEstimate(float(d.p), (float(d.p), float(d.p)), exact=True)
    if d.kind == EXPONENTIAL or B.t_inf < INF:
        return BoydEstimate(INF, (INF, INF), exact=True)
    inv = B.base.right_inverse()
    tf = B.base.t[np.isfinite(B.base.v)]
    window = tf[tf >= tf[-1] / 1000.0]
    vals = B.base(window)
    log_s, log_r, implied = [], [], []
    inv_t = inv(vals)
    for k in range(1, 21):
        s = 2.0 ** k
        inv_st = inv(s * vals)
        pos = (inv_t > 0) & np.isfinite(inv_st) & (inv_st > 0)
        if not pos.any():
            continue
        ratio = np.max(inv_t[pos] / inv_st[pos])
        if ratio <= 0 or ratio >= 1.0:
            continue
        log_s.append(math.log(s))
        log_r.append(math.log(ratio))
        implied.append(-math.log(s) / math.log(ratio))
    if len(log_s) < 2:
        return BoydEstimate(INF, (1.0, INF))
    slope = float(np.polyfit(log_s, log_r, 1)[0])
    if slope >= 0:
        return BoydEstimate(INF, (min(implied), INF))
    est = -1.0 / slope
    lo = min(min(implied), est)
    hi = max(max(implied), est)
    return BoydEstimate(est, (lo, hi))


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
    if d.kind == LIMIT_CONST or d.kind == NUMERIC_ONLY:
        return power_log_desc(alpha, 0.0) if d.kind == LIMIT_CONST else NUMERIC_DESC
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
    inf_desc = _reduced_inverse_desc(binv.inf_desc, alpha)
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


def _reduced_inverse_desc(d, alpha):
    """Near-infinity class of the reduced inverse from the class of B^{-1}."""
    if d.kind == POWER_LOG:
        e = d.p + alpha - 1.0
        if e < 0 or (e == 0 and d.alpha < 0):
            return power_log_desc(d.p + alpha, d.alpha)
        return power_log_desc(1.0, 0.0)
    if d.kind == LIMIT_CONST:
        return power_log_desc(alpha, 0.0)
    return NUMERIC_DESC


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
    if est.exact:
        if est.upper_index < thr:
            ev = holds(est.upper_index, reason="growth index below threshold")
            return AlternativeOutcome(DOMAIN, OPTIMAL, space, ev,
                                      rule="growth-index-threshold", extra=extra)
        ev = fails(est.upper_index, reason="growth index at or above threshold")
        return AlternativeOutcome(DOMAIN, NO_OPTIMAL, space, ev,
                                  rule="growth-index-threshold", extra=extra)
    lo, hi = est.window
    band = 0.05
    if hi < thr - band:
        ev = holds(est.upper_index, reason="estimated index below threshold")
        return AlternativeOutcome(DOMAIN, OPTIMAL, space, ev,
                                  rule="growth-index-threshold", extra=extra)
    if lo > thr + band:
        ev = fails(est.upper_index, reason="estimated index above threshold")
        return AlternativeOutcome(DOMAIN, NO_OPTIMAL, space, ev,
                                  rule="growth-index-threshold", extra=extra)
    ev = undecided("estimated index inside the undecided band")
    return AlternativeOutcome(DOMAIN, UNDECIDED_OUTCOME, space, ev,
                              rule="growth-index-threshold", extra=extra)


def sobolev_no_largest_on_level(Y: SpaceDescriptor,
                                ctx: SobolevContext) -> AlternativeOutcome:
    """Largest Orlicz domain for a general catalog target: decide through the
    weak companion of the target's level, falling back to the direct
    domain-side dichotomy when the companion route is inconclusive."""
    if Y.family == ORLICZ:
        return sobolev_orlicz_domain(Y, ctx)
    L = companions(Y)[1]
    probe = sobolev_orlicz_domain(L, ctx)
    if probe.result == NO_OPTIMAL and weak_strong_collapse(L.generator):
        extra = dict(probe.extra or {})
        extra["route"] = "weak-companion"
        extra["weak_companion"] = L.label()
        return AlternativeOutcome(DOMAIN, NO_OPTIMAL, probe.space,
                                  probe.evidence, rule="weak-companion-route",
                                  extra=extra)
    if Y.family == LORENTZ and Y.p < INF:
        inv_p = 1.0 / Y.p + ctx.alpha
        if inv_p < 1.0:
            rep = SpaceDescriptor(LORENTZ, Y.interval, p=1.0 / inv_p, q=Y.q)
            out = principal_alternative_domain(rep)
            extra = {"route": "catalog-domain-representative",
                     "representative": rep.label()}
            return AlternativeOutcome(DOMAIN, out.result, out.space,
                                      out.evidence, rule=out.rule, extra=extra)
    if Y.family == LEBESGUE and 1.0 < Y.p < INF:
        rep = SpaceDescriptor(LORENTZ, Y.interval, p=Y.p, q=Y.p)
        return sobolev_no_largest_on_level(rep, ctx)
    return AlternativeOutcome(DOMAIN, UNDECIDED_OUTCOME, probe.space,
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
# transform: 16 scales of a 1,025-point table, a working set of ~2.4 MB
_BLOCK = 1 << 14


def exp_weight_transform(F: MonotoneFn, t_grid=None, cutoff=50.0):
    """G(t) = integral over tau of F(t tau) e^{-tau}; exact per power segment
    through incomplete-gamma differences, truncated at the cutoff with a
    descriptor-driven tail estimate.  The scales go through array passes
    of _BLOCK grid points each, which bounds the working memory whatever
    the size of the table."""
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
        out[idx] = _exp_weight_block(F, t_grid[idx], cut[idx], cutoff)
    return t_grid, out


def _exp_weight_block(F, t, cut, cutoff):
    """The transform at the scales t, each truncated at its own cutoff, in
    one array pass."""
    n = t.size
    taus, rows = _tau_breakpoints(F.t, t, cut)
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
                     + _special.gammaln(sigma + 1.0) + _log_gamma_diff(sigma, a, b))
        pieces = np.exp(log_piece)
    pw_rows = seg_rows[pw]
    bad[pw_rows[~np.isfinite(pieces)]] = True
    ramp_bounds = np.searchsorted(seg_rows[ramp], np.arange(n + 1))
    pw_bounds = np.searchsorted(pw_rows, np.arange(n + 1))
    # one sum per scale over its own slice, ramps first: the bits of the
    # pairwise summation depend on which values are summed together
    total = np.empty(n)
    for i in range(n):
        total[i] = (float(np.sum(ramp_pieces[ramp_bounds[i]:ramp_bounds[i + 1]]))
                    + float(np.sum(pieces[pw_bounds[i]:pw_bounds[i + 1]])))
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


def _tau_breakpoints(grid, t, cut):
    """The tau breakpoints of every scale in one flat array, with row ids.

    Row i holds 0, a geometric refinement of the head (so power behaviour is
    respected there), the grid of F mapped through tau = x / t[i] inside
    (0, cut[i]), and cut[i].  Each row is sorted by construction; repeats
    are dropped as np.unique would drop them."""
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


def _log_gamma_diff(sigma, a, b):
    """log of the regularized incomplete-gamma mass of [a, b] at shape sigma+1."""
    s1 = sigma + 1.0
    diff = np.empty_like(s1)
    # a window in the upper tail is a difference of Q, any other one of P
    upper = a >= s1
    lower = ~upper
    with np.errstate(divide="ignore", invalid="ignore"):
        diff[upper] = (_special.gammaincc(s1[upper], a[upper])
                       - _special.gammaincc(s1[upper], b[upper]))
        diff[lower] = (_special.gammainc(s1[lower], b[lower])
                       - _special.gammainc(s1[lower], a[lower]))
        return np.log(np.maximum(diff, 0.0))


def _gamma_integral(sigma, a, b):
    """Integral of tau**sigma e^-tau over [a, b] for one sigma > -1,
    elementwise in a and b; inf where Gamma(sigma + 1) overflows."""
    s1 = sigma + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        g = _special.gamma(s1)
        out = g * (_special.gammainc(s1, b) - _special.gammainc(s1, a))
    return np.where(np.isinf(g), INF, out)


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
        weight = float(_gamma_integral(p, cutoff, max(cutoff * 4, 700.0)))
        return v_end * cutoff ** (-p) * weight


def maximal_optimal_target(A: YoungFn) -> AlternativeOutcome:
    """Smallest Orlicz target for the averaging maximal operator with Orlicz
    domain A: transform the conjugate through the exponential weight, undo
    the conjugation, and gate on the averaged-domination inequality."""
    At = conjugate(A)
    if At.t_inf < INF:
        ev = fails(reason="conjugate jumps to infinity; the exponential-weight "
                          "moment diverges for every scale")
        return AlternativeOutcome(TARGET, NO_OPTIMAL, None, ev,
                                  rule="weighted-moment-gate",
                                  extra={"reason": "no Orlicz target exists"})
    d = At.base.inf_desc
    if d.kind == EXPONENTIAL and d.gamma > 1.0:
        ev = fails(reason="conjugate grows super-exponentially")
        return AlternativeOutcome(TARGET, NO_OPTIMAL, None, ev,
                                  rule="weighted-moment-gate",
                                  extra={"reason": "no Orlicz target exists"})
    t_grid, vals = exp_weight_transform(At.base)
    # keep the representable window: below ~1e-280 the transform of a
    # double-exponentially vanishing conjugate is numerical dust
    fin = np.isfinite(vals) & (vals < 1e290) & (vals > 1e-280)
    if not fin.any() or not (vals[fin] > 0).any():
        ev = fails(reason="weighted moments diverge at every sampled scale")
        return AlternativeOutcome(TARGET, NO_OPTIMAL, None, ev,
                                  rule="weighted-moment-gate",
                                  extra={"reason": "no Orlicz target exists"})
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
    G = _averaged_domination_profile(B_A)
    verdict = dominates(A, QuasiConvexFn(G, validate=False), GLOBAL)
    space = SpaceDescriptor(ORLICZ, HALFLINE, generator=B_A)
    extra = {"smallest_scale": smallest_t0, "constant": verdict.witness}
    if verdict.status == HOLDS:
        return AlternativeOutcome(TARGET, OPTIMAL, space,
                                  holds(verdict.witness, reason=verdict.reason),
                                  rule="averaged-domination", extra=extra)
    if verdict.status == FAILS:
        return AlternativeOutcome(TARGET, NO_OPTIMAL, space,
                                  fails(reason=verdict.reason),
                                  rule="averaged-domination", extra=extra)
    return AlternativeOutcome(TARGET, UNDECIDED_OUTCOME, space, verdict,
                              rule="averaged-domination", extra=extra)


def _averaged_domination_profile(B: YoungFn) -> MonotoneFn:
    """t times the integral of B(tau)/tau**2 up to t; the canonical largest
    domain profile for the averaging maximal operator."""
    integ = cumulative_integral(B.base, weight_exp=-2.0)
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
        ev = fails(reason="the averaged tail of the target diverges at zero")
        return AlternativeOutcome(DOMAIN, NO_OPTIMAL, None, ev,
                                  rule="averaged-tail-gate",
                                  extra={"reason": "no Orlicz domain space"})
    prof = _averaged_domination_profile(B)
    qc = QuasiConvexFn(prof, validate=False)
    space = SpaceDescriptor(ORLICZ, HALFLINE, generator=qc)
    ev = holds(1.0, reason="averaged tail converges; the averaged profile is "
                           "the largest admissible generator")
    return AlternativeOutcome(DOMAIN, OPTIMAL, space, ev, rule="averaged-tail")


# -- the exponential-kernel transform -----------------------------------------


def laplace_optimal_target(A: YoungFn) -> AlternativeOutcome:
    """Smallest Orlicz target for the exponential-kernel transform with
    Orlicz domain A; symbolic optimality rules for the power and the
    quadratic-log families, honest undecided otherwise."""
    At = conjugate(A)
    integ = cumulative_integral(At.base, weight_exp=-2.0)
    if not np.isfinite(integ.v).any() or np.isinf(integ.v[0]):
        ev = fails(reason="the averaged tail of the conjugate diverges at zero")
        return AlternativeOutcome(TARGET, NO_OPTIMAL, None, ev,
                                  rule="log-moment-gate",
                                  extra={"reason": "no Orlicz target exists"})
    G = _averaged_domination_profile(At)
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
            return AlternativeOutcome(TARGET, OPTIMAL, space, ev,
                                      rule="power-family", extra={"p": p})
        pd = p / (p - 1.0)
        rep = SpaceDescriptor(LORENTZ, HALFLINE, p=pd, q=p)
        ev = embeds(rep, space)
        result = OPTIMAL if ev.status == HOLDS else (
            NO_OPTIMAL if ev.status == FAILS else UNDECIDED_OUTCOME)
        return AlternativeOutcome(TARGET, result, space, ev, rule="power-family",
                                  extra={"p": p, "dual": pd,
                                         "representative": rep.label()})
    if _is_quadratic_log(A):
        t = np.geomspace(1e-4, 1e4, 41)
        ratio = B_A(t) / np.maximum(A(t), 1e-300)
        if np.isfinite(ratio).all() and ratio.max() <= 16.0 and ratio.min() >= 1.0 / 16.0:
            ev = holds(float(ratio.max()),
                       reason="self-mapped quadratic-log level")
            return AlternativeOutcome(TARGET, OPTIMAL, space, ev,
                                      rule="quadratic-log-family")
    ev = undecided("no symbolic optimality criterion for this family")
    return AlternativeOutcome(TARGET, UNDECIDED_OUTCOME, space, ev,
                              rule="level-representative")


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
