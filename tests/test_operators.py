import json
import math

import numpy as np
import pytest
from scipy import special

from orlicalc.alternative import NO_OPTIMAL, OPTIMAL
from orlicalc.monotone import (
    EXPONENTIAL,
    INF,
    POWER_LOG,
    MonotoneFn,
    default_grid,
    geometric_grid,
    power_log_desc,
    zero_on_interval_desc,
)
from orlicalc.operators import (
    ConditionViolated,
    SobolevContext,
    _log_gamma_diff,
    boyd_upper_index,
    exp_weight_transform,
    laplace_interpolation_sufficient,
    laplace_optimal_target,
    maximal_optimal_domain,
    maximal_optimal_target,
    sobolev_no_largest_on_level,
    sobolev_optimal_domain_fundamental,
    sobolev_optimal_target_fundamental,
    sobolev_orlicz_domain,
    sobolev_reduced_target_generator,
    sobolev_target_condition,
)
from orlicalc.spaces import (
    LORENTZ,
    LORENTZ_ZYGMUND,
    ORLICZ,
    UNIT,
    FundamentalFn,
    SpaceDescriptor,
)
from orlicalc.young import (
    FAILS,
    HOLDS,
    conjugate,
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_callable,
    young_from_json,
)


def profile(fn, zero_desc, lo=-8, hi=0):
    t = default_grid(lo, hi)
    from orlicalc.monotone import NUMERIC_DESC
    return FundamentalFn(MonotoneFn(t, fn(t), zero_desc, NUMERIC_DESC,
                                    value_at_zero=0.0))


class TestDomainProfile:
    def test_subcritical_power(self):
        n, p, m = 3.0, 2.0, 1.0
        ctx = SobolevContext(int(m), int(n))
        ps = n * p / (n - p)
        phi_Y = profile(lambda t: t ** (1.0 / ps), power_log_desc(1.0 / ps))
        phi_X = sobolev_optimal_domain_fundamental(phi_Y, ctx)
        t = np.geomspace(1e-6, 0.9, 40)
        np.testing.assert_allclose(phi_X(t), t ** (1.0 / p), rtol=1e-6)

    def test_flat_target_profile(self):
        ctx = SobolevContext(2, 5)
        phi_Y = profile(lambda t: np.ones_like(t), power_log_desc(0.0))
        phi_X = sobolev_optimal_domain_fundamental(phi_Y, ctx)
        t = np.geomspace(1e-6, 0.9, 40)
        np.testing.assert_allclose(phi_X(t), t ** 0.4, rtol=1e-6)

    def test_double_loop_oracle(self):
        ctx = SobolevContext(1, 3)
        rng = np.random.default_rng(19)
        phi_Y = profile(lambda t: t ** 0.2 * (1 - np.log(t)) ** -0.5,
                        power_log_desc(0.2, -0.5))
        phi_X = sobolev_optimal_domain_fundamental(phi_Y, ctx)
        s_dense = np.geomspace(1e-8, 1.0, 40000)
        base = phi_Y(s_dense) * s_dense ** (ctx.alpha - 1.0)
        for t in [1e-5, 1e-3, 0.1, 0.5]:
            expect = t * float(np.max(base[s_dense >= t]))
            assert phi_X(t) == pytest.approx(expect, rel=1e-3)

    def test_log_target_profile_level(self):
        # the limiting log profile produces a domain on a definite level;
        # cross-check the averaging bound of the construction
        ctx = SobolevContext(1, 3)
        mn = ctx.alpha
        phi_Y = profile(lambda t: (1 - np.log(t)) ** (mn - 1.0),
                        power_log_desc(0.0, mn - 1.0))
        phi_X = sobolev_optimal_domain_fundamental(phi_Y, ctx)
        t = np.geomspace(1e-6, 0.5, 30)
        assert np.all(np.diff(phi_X(t)) >= -1e-12)
        # averaging bound: integral of phi(s)/s up to t stays below a multiple
        for tt in [1e-4, 1e-2, 0.3]:
            s = np.geomspace(1e-10, tt, 4000)
            vals = phi_X(s) / s
            integral = float(np.trapezoid(vals, s))
            assert integral <= 40.0 * phi_X(tt)

    def test_level_preservation(self):
        ctx = SobolevContext(1, 4)
        rng = np.random.default_rng(23)
        phi1 = profile(lambda t: t ** 0.3, power_log_desc(0.3))
        phi2 = profile(lambda t: 1.7 * t ** 0.3, power_log_desc(0.3))
        out1 = sobolev_optimal_domain_fundamental(phi1, ctx)
        out2 = sobolev_optimal_domain_fundamental(phi2, ctx)
        t = np.geomspace(1e-7, 0.9, 50)
        r = out2(t) / out1(t)
        assert r.max() <= 4 * 1.7 and r.min() >= 1.0 / 4.0

    def test_general_beta_against_direct_definition(self):
        ctx = SobolevContext(1, 3)
        beta = 2.0
        phi_Y = profile(lambda t: t ** 0.4, power_log_desc(0.4))
        out = sobolev_optimal_domain_fundamental(phi_Y, ctx, beta=beta)
        s_dense = np.geomspace(1e-8, 1.0, 40000)
        base = phi_Y(s_dense ** beta) * s_dense ** (ctx.alpha - 1.0)
        for t in [1e-4, 1e-2, 0.2]:
            expect = t * float(np.max(base[s_dense >= t]))
            assert out(t) == pytest.approx(expect, rel=1e-3)


class TestReducedTarget:
    def test_power_target(self):
        n, p, m = 3.0, 2.0, 1.0
        ctx = SobolevContext(int(m), int(n))
        q = n * p / (n - p)
        Bn = sobolev_reduced_target_generator(power_young(q), ctx)
        t = np.geomspace(1e3, 1e8, 50)  # the construction fixes behaviour near infinity
        slope = np.diff(np.log(Bn(t))) / np.diff(np.log(t))
        np.testing.assert_allclose(slope, p, atol=1e-3)

    def test_sup_generator_target(self):
        ctx = SobolevContext(1, 3)
        Bn = sobolev_reduced_target_generator(linfty_young(), ctx)
        t = np.geomspace(1e3, 1e8, 40)
        slope = np.diff(np.log(Bn(t))) / np.diff(np.log(t))
        np.testing.assert_allclose(slope, 3.0, atol=1e-3)

    def test_inf_scan_oracle(self):
        # the defining running inf, scanned densely, fixes the level exactly:
        # target t^q gives exponent 1/(1/q + m/n) when that is finite
        ctx = SobolevContext(1, 3)
        for q in [2.0, 4.0, 6.0]:
            B = power_young(q)
            Bn = sobolev_reduced_target_generator(B, ctx)
            binv = B.inverse()
            s_dense = np.geomspace(1.0, 1e9, 200000)
            base = binv(s_dense) * s_dense ** (ctx.alpha - 1.0)
            run = np.minimum.accumulate(base)
            bninv = Bn.inverse()
            for t in [1e2, 1e4, 1e6]:
                expect = t * float(run[np.searchsorted(s_dense, t)])
                # convexification preserves the level within a dilation factor 2
                assert 0.45 <= bninv(t) / expect <= 2.2
            est = boyd_upper_index(Bn)
            assert est.upper_index == pytest.approx(1.0 / (1.0 / q + ctx.alpha))


class TestBoydIndex:
    def test_power_exact(self):
        for p in [1.0, 2.0, 4.5]:
            est = boyd_upper_index(power_young(p))
            assert est.exact and est.upper_index == p

    def test_exponential_infinite(self):
        est = boyd_upper_index(exp_young(1.5))
        assert est.exact and math.isinf(est.upper_index)

    def test_power_log_slope_fit(self):
        # numeric-only wide table of t^p log t; the analytic dilation limit
        # is p and the slope fit must land within the declared band
        p = 2.0
        t = np.geomspace(1.0, 1e40, 2400)
        v = t ** p * (1.0 + np.log(t))
        from orlicalc.young import QuasiConvexFn
        stripped = MonotoneFn(t, v)
        est = boyd_upper_index(QuasiConvexFn(stripped, validate=False))
        assert not est.exact
        assert est.upper_index == pytest.approx(p, abs=0.05)


class TestSobolevOrliczDomain:
    def test_subcritical_power_target(self):
        ctx = SobolevContext(1, 3)
        p = 2.0
        q = 3.0 * p / (3.0 - p)
        out = sobolev_orlicz_domain(power_young(q), ctx)
        assert out.result == OPTIMAL
        assert out.extra["index"] == pytest.approx(p)

    def test_sup_target_has_no_optimal(self):
        ctx = SobolevContext(1, 3)
        out = sobolev_orlicz_domain(linfty_young(), ctx)
        assert out.result == NO_OPTIMAL
        assert out.extra["index"] == pytest.approx(3.0)

    def test_exponential_target_has_no_optimal(self):
        ctx = SobolevContext(1, 3)
        out = sobolev_orlicz_domain(exp_young(1.5), ctx)
        assert out.result == NO_OPTIMAL

    def test_dichotomy_flip_at_threshold(self):
        n, m = 3, 1
        ctx = SobolevContext(m, n)
        for p in [2.0, 2.5, 2.9, 2.99]:
            q = n * p / (n - p)
            out = sobolev_orlicz_domain(power_young(q), ctx)
            assert out.result == OPTIMAL
            assert out.extra["index"] == pytest.approx(p, abs=1e-9)
        out = sobolev_orlicz_domain(linfty_young(), ctx)
        assert out.result == NO_OPTIMAL


class TestNoLargestOnLevel:
    def test_limiting_scale(self):
        ctx = SobolevContext(1, 3)
        Y = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=3.0, alpha=-1.0)
        out = sobolev_no_largest_on_level(Y, ctx)
        assert out.result == NO_OPTIMAL
        assert out.rule == "weak-companion-route"

    def test_subcritical_lorentz(self):
        ctx = SobolevContext(1, 3)
        p = 2.0
        ps = 3.0 * p / (3.0 - p)
        Y = SpaceDescriptor(LORENTZ, UNIT, p=ps, q=p)
        out = sobolev_no_largest_on_level(Y, ctx)
        assert out.result == OPTIMAL
        assert out.space.p == pytest.approx(p)

    def test_orlicz_delegates(self):
        ctx = SobolevContext(1, 3)
        Y = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0))
        out1 = sobolev_no_largest_on_level(Y, ctx)
        out2 = sobolev_orlicz_domain(Y, ctx)
        assert out1.result == out2.result


class TestTargetSide:
    def test_condition_power(self):
        ctx = SobolevContext(1, 3)
        phi = profile(lambda t: t ** 0.5, power_log_desc(0.5))
        assert sobolev_target_condition(phi, ctx).status == HOLDS

    def test_condition_borderline_fails(self):
        ctx = SobolevContext(1, 3)
        phi = profile(lambda t: t ** (1.0 / 3.0), power_log_desc(1.0 / 3.0))
        assert sobolev_target_condition(phi, ctx).status == FAILS

    def test_condition_power_log(self):
        ctx = SobolevContext(1, 3)
        phi = profile(lambda t: t ** 0.5 * (1 - np.log(t)) ** 0.3,
                      power_log_desc(0.5, 0.3))
        assert sobolev_target_condition(phi, ctx).status == HOLDS

    def test_target_profile_power(self):
        ctx = SobolevContext(1, 3)
        p = 2.0
        phi = profile(lambda t: t ** (1.0 / p), power_log_desc(1.0 / p))
        out = sobolev_optimal_target_fundamental(phi, ctx)
        t = np.geomspace(1e-6, 0.9, 30)
        np.testing.assert_allclose(out(t), t ** (1.0 / p - 1.0 / 3.0), rtol=1e-9)

    def test_target_profile_integrable_class(self):
        ctx = SobolevContext(1, 3)
        phi = profile(lambda t: t, power_log_desc(1.0))
        out = sobolev_optimal_target_fundamental(phi, ctx)
        t = np.geomspace(1e-6, 0.9, 30)
        np.testing.assert_allclose(out(t), t ** (2.0 / 3.0), rtol=1e-9)

    def test_violation_raises(self):
        ctx = SobolevContext(1, 3)
        phi = profile(lambda t: t ** (1.0 / 3.0), power_log_desc(1.0 / 3.0))
        with pytest.raises(ConditionViolated):
            sobolev_optimal_target_fundamental(phi, ctx)


class TestMaximalOperator:
    def test_power_family_gamma_oracle(self):
        for p in [1.5, 2.0, 3.0]:
            A = power_young(p)
            At = conjugate(A)
            pd = p / (p - 1.0)
            cp = (p - 1.0) * p ** (-pd)
            t_grid, vals = exp_weight_transform(At.base)
            mid = (t_grid > 1e-3) & (t_grid < 1e3)
            expect = cp * special.gamma(pd + 1.0) * t_grid[mid] ** pd
            np.testing.assert_allclose(vals[mid], expect, rtol=0.02)

    def test_power_family_optimal(self):
        for p in [1.5, 2.0, 3.0]:
            out = maximal_optimal_target(power_young(p))
            assert out.result == OPTIMAL
            gen = out.space.generator
            t = np.geomspace(1e-2, 1e2, 20)
            slope = np.diff(np.log(gen(t))) / np.diff(np.log(t))
            np.testing.assert_allclose(slope, p, atol=0.05)

    # exponents whose class came back from the transform an ulp off and was
    # reported as no-optimal before exponents were compared with a tolerance
    @pytest.mark.parametrize("p", [1.7512, 1.825, 2.65, 3.05, 3.5, 4.0, 4.5, 4.975])
    def test_power_family_optimal_through_rounded_exponents(self, p):
        out = maximal_optimal_target(power_young(p))
        assert out.result == OPTIMAL
        t = np.geomspace(1e-3, 1e3, 61)
        ratio = out.space.generator(t) / t ** p
        assert ratio.max() / ratio.min() <= 4.0

    def test_power_log_optimal_through_rounded_exponents(self):
        out = maximal_optimal_target(power_log_young(1.0, alpha_zero=-1.0, alpha_inf=3.0))
        assert out.result == OPTIMAL

    def test_integrable_class_has_no_target(self):
        out = maximal_optimal_target(power_young(1.0))
        assert out.result == NO_OPTIMAL
        assert out.extra["reason"] == "no Orlicz target exists"

    def test_log_shifted_family(self):
        a0, ai = -1.5, 1.0
        A = power_log_young(1.0, alpha_zero=a0, alpha_inf=ai)
        out = maximal_optimal_target(A)
        assert out.result == OPTIMAL
        gen = out.space.generator
        ref = power_log_young(1.0, alpha_zero=a0 - 1.0, alpha_inf=ai - 1.0)
        t = np.geomspace(1e-6, 1e6, 41)
        ratio = gen(t) / ref(t)
        assert ratio.max() <= 16.0 and ratio.min() >= 1.0 / 16.0

    def test_doubling_conjugate_reproduces_domain(self):
        # when the conjugate doubles, the constructed target stays on the
        # domain's own level
        A = power_young(2.0)
        out = maximal_optimal_target(A)
        gen = out.space.generator
        t = np.geomspace(1e-3, 1e3, 30)
        ratio = gen(t) / A(t)
        assert ratio.max() / ratio.min() <= 16.0

    def test_domain_power_closed_form(self):
        for p in [1.5, 2.0, 3.0]:
            out = maximal_optimal_domain(power_young(p))
            assert out.result == OPTIMAL
            gen = out.space.generator
            t = np.geomspace(1e-4, 1e4, 40)
            np.testing.assert_allclose(gen(t), t ** p / (p - 1.0), rtol=1e-6)

    def test_domain_integrable_class_diverges(self):
        out = maximal_optimal_domain(power_young(1.0))
        assert out.result == NO_OPTIMAL
        assert out.extra["reason"] == "no Orlicz domain space"

    def test_domain_power_log(self):
        B = power_log_young(2.0, alpha_inf=1.0)
        out = maximal_optimal_domain(B)
        assert out.result == OPTIMAL
        gen = out.space.generator
        t = np.geomspace(10.0, 1e6, 30)
        ratio = gen(t) / (t ** 2 * np.log(t))
        assert ratio.max() / ratio.min() <= 4.0


def loop_exp_weight_transform(F, t_grid=None, cutoff=50.0):
    """The exponential-weight transform as one scalar integral per scale:
    the reference for the array pass of ``exp_weight_transform``."""
    if t_grid is None:
        t_grid = geometric_grid(1e-8, 1e8, 16)
    out = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        out[i] = _loop_value(F, float(t), cutoff)
    return np.asarray(t_grid), out


def _loop_value(F, t, cutoff):
    if F.t_inf < INF:
        return INF
    d = F.inf_desc
    if d.kind == EXPONENTIAL:
        if d.gamma > 1.0:
            return INF
        if d.gamma == 1.0 and t >= 1.0:
            return INF
        if d.gamma == 1.0:
            cutoff = max(cutoff, 100.0 / (1.0 - t))
        else:
            cutoff = max(cutoff, 4.0 * (2.0 * t ** d.gamma) ** (1.0 / (1.0 - d.gamma))
                         if t > 0 else cutoff)
        if not math.isfinite(cutoff) or cutoff > 1e6:
            return INF
    inner = F.t / t
    inner = inner[(inner > 0) & (inner < cutoff)]
    b_head = float(inner[0]) if inner.size else cutoff
    head = np.geomspace(b_head * 1e-12, b_head, 120)
    taus = np.unique(np.concatenate(([0.0], head, inner, [cutoff])))
    vals = F(t * taus)
    if np.isinf(vals).any():
        return INF
    a, b = taus[:-1], taus[1:]
    va, vb = vals[:-1], vals[1:]
    keep = (vb > 0) & (b > a)
    a, b, va, vb = a[keep], b[keep], va[keep], vb[keep]
    total = 0.0
    ramp = va == 0.0
    if ramp.any():
        c = vb[ramp] / (b[ramp] - a[ramp])
        piece = (_loop_gamma(1.0, a[ramp], b[ramp])
                 - a[ramp] * _loop_gamma(0.0, a[ramp], b[ramp]))
        total += float(np.sum(c * piece))
    pw = ~ramp
    if pw.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sigma = np.where(vb[pw] == va[pw], 0.0,
                             np.log(vb[pw] / va[pw]) / np.log(b[pw] / a[pw]))
            log_diff = two_branch_log_gamma_diff(sigma, a[pw], b[pw])
            log_piece = (np.log(va[pw]) - sigma * np.log(a[pw])
                         + special.gammaln(sigma + 1.0) + log_diff)
            pieces = np.exp(log_piece)
        if np.isinf(pieces).any() or np.isnan(pieces).any():
            return INF
        total += float(np.sum(pieces))
    v_end = F(t * cutoff)
    if np.isinf(v_end):
        return INF
    if d.kind == EXPONENTIAL:
        tail = 2.0 * v_end * math.exp(-cutoff / 2.0) if cutoff < 700 else 0.0
    else:
        p = d.p if d.kind == POWER_LOG else 1.0
        with np.errstate(over="ignore"):
            g = special.gamma(p + 1.0)
        g = INF if math.isinf(g) else g * (special.gammainc(p + 1.0, max(cutoff * 4, 700.0))
                                           - special.gammainc(p + 1.0, cutoff))
        tail = v_end * cutoff ** (-p) * g
    if math.isinf(tail):
        return INF
    return total + tail


def _loop_gamma(sigma, a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return special.gamma(sigma + 1.0) * (special.gammainc(sigma + 1.0, b)
                                             - special.gammainc(sigma + 1.0, a))


def two_branch_log_gamma_diff(sigma, a, b):
    """``_log_gamma_diff`` with both branches evaluated on every element."""
    s1 = np.asarray(sigma) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(a >= s1,
                        special.gammaincc(s1, a) - special.gammaincc(s1, b),
                        special.gammainc(s1, b) - special.gammainc(s1, a))
        return np.log(np.maximum(diff, 0.0))


def _zero_head_fn():
    # vanishes up to t = 1, so segments starting at a zero value are ramps
    t = geometric_grid(1e-3, 1e3, 16)
    v = np.where(t <= 1.0, 0.0, (t - 1.0) ** 2)
    return MonotoneFn(t, v, zero_on_interval_desc(1.0), power_log_desc(2.0))


def _jump_fn():
    # +inf from t = 10 on
    t = geometric_grid(1e-3, 1e3, 16)
    return MonotoneFn(t, np.where(t < 10.0, t ** 2, INF), power_log_desc(2.0))


TRANSFORM_CASES = {
    "t^1.5": lambda: conjugate(power_young(1.5)).base,
    "t^2": lambda: conjugate(power_young(2.0)).base,
    "t^3": lambda: conjugate(power_young(3.0)).base,
    "t^4": lambda: conjugate(power_young(4.0)).base,
    "log factors": lambda: conjugate(power_log_young(1.5, -1.0, 1.0)).base,
    "exponential gamma 1": lambda: conjugate(power_log_young(1.0, -1.5, 1.0)).base,
    "exponential gamma 0.5": lambda: conjugate(power_log_young(1.0, -1.5, 2.0)).base,
    "jump to infinity": _jump_fn,
    "zero head": _zero_head_fn,
}

# scales whose tau grid is empty inside (0, cutoff) (1e-6, 1e-5), scales on
# both sides of t = 1 for the unit-rate exponential class, and the extremes
SHORT_GRID = np.array([1e-8, 1e-6, 1e-5, 1e-2, 0.5, 0.99, 1.0, 3.0, 1e3, 1e8])


class TestExpWeightTransform:
    @pytest.mark.parametrize("name", sorted(TRANSFORM_CASES))
    @pytest.mark.parametrize("grid", ["default", "short"])
    def test_bit_identical_to_scalar_loop(self, name, grid):
        F = TRANSFORM_CASES[name]()
        t_grid = None if grid == "default" else SHORT_GRID
        t_new, new = exp_weight_transform(F, t_grid)
        t_old, old = loop_exp_weight_transform(F, t_grid)
        np.testing.assert_array_equal(t_new, t_old)
        assert np.array_equal(new, old, equal_nan=True), \
            np.flatnonzero(~((new == old) | (np.isnan(new) & np.isnan(old))))

    def test_cases_reach_every_branch(self):
        _, jump = exp_weight_transform(_jump_fn())
        assert np.isinf(jump).all()
        _, unit = exp_weight_transform(TRANSFORM_CASES["exponential gamma 1"](),
                                       SHORT_GRID)
        assert np.isinf(unit[SHORT_GRID >= 1.0]).all()
        assert np.isfinite(unit[SHORT_GRID < 0.5]).all()
        F = _zero_head_fn()
        _, zero = exp_weight_transform(F, SHORT_GRID)
        reach = SHORT_GRID * 50.0 > 1.0  # the cutoff passes the zero interval
        assert (zero[~reach] == 0).all() and (zero[reach] > 0).all()
        assert np.isfinite(zero).all()
        assert (F.t / 1e-6 >= 50.0).all()  # no grid point inside the cutoff

    def test_masked_log_gamma_diff_equals_two_branch_form(self):
        rng = np.random.default_rng(5)
        sigma = rng.uniform(-0.9, 12.0, 4000)
        a = 10.0 ** rng.uniform(-6, 2.5, 4000)
        b = a * (1.0 + 10.0 ** rng.uniform(-8, 1, 4000))
        sigma[:10] = np.nan
        new = _log_gamma_diff(sigma, a, b)
        old = two_branch_log_gamma_diff(sigma, a, b)
        assert np.array_equal(new, old, equal_nan=True)
        assert ((a >= sigma + 1.0).sum() > 500) and ((a < sigma + 1.0).sum() > 500)

    def test_overflowing_cutoff_diverges(self):
        # gamma close to 1: the adapted cutoff of large scales overflows a
        # float; those scales diverge instead of raising OverflowError
        F = conjugate(power_log_young(1.0, -1.5, 1.01)).base
        assert F.inf_desc.kind == EXPONENTIAL and F.inf_desc.gamma < 1.0
        t_grid, vals = exp_weight_transform(F)
        assert np.isinf(vals[-1]) and np.isfinite(vals[0])


class TestLaplaceTransform:
    def test_power_family_levels_and_dichotomy(self):
        for p, expect in [(1.0, OPTIMAL), (1.5, OPTIMAL), (2.0, OPTIMAL),
                          (2.5, NO_OPTIMAL), (3.0, NO_OPTIMAL)]:
            out = laplace_optimal_target(power_young(p))
            assert out.result == expect, f"p={p}"
            if p > 1.0:
                pd = p / (p - 1.0)
                gen = out.space.generator
                t = np.geomspace(1e-2, 1e2, 21)
                slope = np.diff(np.log(gen(t))) / np.diff(np.log(t))
                np.testing.assert_allclose(slope, pd, atol=0.02)

    def test_quadratic_log_family(self):
        A = young_from_callable(
            lambda t: t ** 2 * np.log(t + 1.0 / t + 1.0),
            power_log_desc(2.0, 1.0), power_log_desc(2.0, 1.0))
        out = laplace_optimal_target(A)
        assert out.result == OPTIMAL
        gen = out.space.generator
        t = np.geomspace(1e-3, 1e3, 30)
        ratio = gen(t) / A(t)
        assert ratio.max() <= 16.0 and ratio.min() >= 1.0 / 16.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_table_class_power_reads_its_descriptors(self, p):
        # a table of t^p loaded from JSON carries its class only in the
        # descriptors; it must take the rule of the recipe-built power
        t = np.geomspace(1e-4, 1e4, 129)
        obj = {"class": "table", "grid": [[x, x ** p] for x in t.tolist()],
               "zero_desc": {"kind": "power-log", "p": p, "alpha": 0.0},
               "inf_desc": {"kind": "power-log", "p": p, "alpha": 0.0}}
        A = young_from_json(json.loads(json.dumps(obj)))
        assert A.recipe == {"class": "table"}
        table, closed = laplace_optimal_target(A), laplace_optimal_target(power_young(p))
        assert (table.result, table.rule) == (closed.result, closed.rule)
        assert table.rule == "power-family"

    def test_sup_type_domain_has_no_target(self):
        out = laplace_optimal_target(linfty_young(0.5))
        assert out.result == NO_OPTIMAL
        assert out.extra["reason"] == "no Orlicz target exists"

    def test_interpolation_sufficient(self):
        v, target = laplace_interpolation_sufficient(power_young(1.5))
        assert v.status == HOLDS
        t = np.geomspace(1e-2, 1e2, 20)
        slope = np.diff(np.log(target(t))) / np.diff(np.log(t))
        np.testing.assert_allclose(slope, 3.0, atol=0.02)

    def test_interpolation_cubic_fails(self):
        v, target = laplace_interpolation_sufficient(power_young(3.0))
        assert v.status == FAILS and target is None

    def test_interpolation_subquadratic_log(self):
        A = young_from_callable(lambda t: t ** 2 / np.log(math.e + t),
                                power_log_desc(2.0), power_log_desc(2.0, -1.0),
                                grid=default_grid(-6, 6))
        v, target = laplace_interpolation_sufficient(A)
        assert v.status == HOLDS

    def test_self_dual_level_spot_check(self):
        out = laplace_optimal_target(power_young(2.0))
        gen = out.space.generator
        t = np.geomspace(1e-2, 1e2, 15)
        slope = np.diff(np.log(gen(t))) / np.diff(np.log(t))
        np.testing.assert_allclose(slope, 2.0, atol=0.02)
