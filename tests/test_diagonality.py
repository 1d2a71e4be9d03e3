import math

import numpy as np
import pytest

from orlicalc.diagonality import (
    NOT_SUB_DIAGONAL,
    SUB_DIAGONAL,
    UNIFORMLY_SUB_DIAGONAL,
    UNKNOWN,
    ZeroFunction,
    ac_embedding_check,
    build_gw,
    classical_lorentz_Nlambda,
    construct_witness_young,
    lifted_norm,
    ol_inequality_gap,
    orlicz_lambda_Nlambda,
    subdiagonality_status,
)
from orlicalc.monotone import INF, MonotoneFn, default_grid, power_log_desc
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    characteristic,
    lambda_norm,
    luxemburg_norm,
    modular,
)
from orlicalc.spaces import (
    CLASSICAL_LORENTZ,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    ORLICZ,
    UNIT,
    SpaceDescriptor,
)
from orlicalc.young import (
    FAILS,
    HOLDS,
    QuasiConvexFn,
    exp_young,
    linfty_young,
    power_young,
    young_from_derivative,
)

from test_rearrangement import random_sampled


def step_derivative_young(breaks, levels):
    """A Young function with a piecewise-constant derivative."""
    grid, vals = [], []
    prev = None
    for b, lev in zip(breaks, levels):
        if prev is not None:
            grid.append(np.nextafter(b, 0.0))
            vals.append(prev)
        grid.append(b)
        vals.append(lev)
        prev = lev
    grid.append(breaks[-1] * 1e6)
    vals.append(prev)
    from orlicalc.monotone import limit_const_desc
    deriv = MonotoneFn(np.asarray(grid), np.asarray(vals),
                       limit_const_desc(levels[0]), limit_const_desc(levels[-1]),
                       validate=False)
    return young_from_derivative(deriv)


class TestGW:
    def test_square_generator(self):
        E = QuasiConvexFn(power_young(2.0).base)
        data = build_gw(E)
        t = np.geomspace(1e-3, 1e3, 30)
        np.testing.assert_allclose(data.g(t), t, rtol=1e-10)
        np.testing.assert_allclose(data.G(t), 0.5 * t * t, rtol=1e-10)
        # w(r) = 1 / g(G_inv(r)) = 1 / sqrt(2 r)
        r = np.geomspace(1e-2, 1e2, 20)
        np.testing.assert_allclose(data.w(r), 1.0 / np.sqrt(2.0 * r), rtol=1e-9)
        assert data.w(0.0) == INF

    def test_identity_generator(self):
        E = QuasiConvexFn(power_young(1.0).base)
        data = build_gw(E)
        t = np.geomspace(1e-3, 1e3, 30)
        np.testing.assert_allclose(data.g(t), np.ones_like(t), rtol=1e-12)
        np.testing.assert_allclose(data.G(t), t, rtol=1e-10)
        np.testing.assert_allclose(data.w(t), np.ones_like(t), rtol=1e-9)

    def test_random_generators_pass_invariants(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            p = float(rng.uniform(1.0, 4.0))
            E = QuasiConvexFn(power_young(p).base)
            build_gw(E)  # construction verifies the sandwich and the identity
        build_gw(QuasiConvexFn(exp_young(1.5).base))

    def test_threshold_decomposition_of_endpoint_norm(self):
        # the integral of G_inv along level measures splits into the
        # essential-sup term plus the weighted rearrangement, and the split
        # brackets the endpoint norm within the factor-two sandwich
        rng = np.random.default_rng(212)
        from orlicalc.rearrangement import rearrange
        for _ in range(12):
            p = float(rng.uniform(1.2, 3.0))
            E = QuasiConvexFn(power_young(p).base)
            data = build_gw(E)
            f = random_sampled(rng, n_max=6)
            star = rearrange(f)
            direct = 0.0
            prev = 0.0
            for v_j, m_j in zip(star.values[::-1], star.breaks[1:][::-1]):
                direct += (v_j - prev) * float(data.G_inv(float(m_j)))
                prev = v_j
            split = data.t0 * f.sup_value()
            for v_j, lo, hi in zip(star.values, star.breaks[:-1], star.breaks[1:]):
                split += v_j * (data.w_integral(float(hi)) - data.w_integral(float(lo)))
            assert split == pytest.approx(direct, rel=1e-9)
            lam = lambda_norm(f, E)
            assert lam <= direct * (1 + 1e-9)
            assert direct <= 2.0 * lam * (1 + 1e-9)


class TestNlambda:
    def test_split_integral_closed_form(self):
        # derivative 1 on (0,1], 3 t^2 beyond; the jump is stored on
        # ulp-paired nodes so the table is exactly the split function
        upper = default_grid(0, 8)[1:]
        t = np.concatenate(([1e-8, 1.0, np.nextafter(1.0, 2.0)], upper))
        v = np.concatenate(([1.0, 1.0, 3.0], 3.0 * upper ** 2))
        from orlicalc.monotone import limit_const_desc
        deriv = MonotoneFn(t, v, limit_const_desc(1.0), power_log_desc(2.0))
        A = young_from_derivative(deriv)
        E = QuasiConvexFn(power_young(2.0).base)
        for lam in [0.5, 1.0, 2.0]:
            got = orlicz_lambda_Nlambda(A, E, lam)
            assert got == pytest.approx(4.0 / (3.0 * lam), rel=1e-6)

    def test_vanishing_certificate_for_integrable_target(self):
        # E = t gives the integrable class; a derivative bounded below makes
        # the certificate vanish once the scale beats the bound
        E = QuasiConvexFn(power_young(1.0).base)
        A = step_derivative_young([1e-8, 1.0], [0.5, 2.0])
        n = orlicz_lambda_Nlambda(A, E, lam=4.0)
        assert n == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(213)
        for _ in range(5):
            f = random_sampled(rng)
            assert lambda_norm(f, E) <= 4.0 * luxemburg_norm(f, A) * (1 + 1e-9)

    def test_divergence_for_self_level(self):
        A = power_young(2.0)
        E = QuasiConvexFn(power_young(2.0).base)
        for lam in [0.1, 1.0, 10.0]:
            assert math.isinf(orlicz_lambda_Nlambda(A, E, lam))

    def test_certified_embedding_constant(self):
        # a derivative bounded below and superlinear above admits the strong
        # endpoint space of the square generator, with a computable constant
        rng = np.random.default_rng(217)
        upper = default_grid(0, 8)[1:]
        t = np.concatenate(([1e-8, 1.0, np.nextafter(1.0, 2.0)], upper))
        v = np.concatenate(([1.0, 1.0, 3.0], 3.0 * upper ** 2))
        from orlicalc.monotone import limit_const_desc
        deriv = MonotoneFn(t, v, limit_const_desc(1.0), power_log_desc(2.0))
        A = young_from_derivative(deriv)
        E = QuasiConvexFn(power_young(2.0).base)
        lam = 1.0
        n = orlicz_lambda_Nlambda(A, E, lam)
        assert math.isfinite(n)
        const = n + lam
        for _ in range(10):
            f = random_sampled(rng)
            assert lambda_norm(f, E) <= const * luxemburg_norm(f, A) * (1 + 1e-9)


class TestOLInequality:
    def test_zero_function(self):
        A = power_young(2.0)
        G = power_young(2.0)
        v = SampledFn([(1.0, 2.0)])
        lhs, rhs = ol_inequality_gap(A, G, v, SampledFn([]), 1.0)
        assert lhs == 0.0 and rhs >= 0.0

    def test_square_case(self):
        # for the square pair the scale term integrates 1/(4t), which
        # diverges over (0,1); the contract holds with an infinite right side
        A = G = power_young(2.0)
        v = SampledFn([(1.0, 1.0)])
        f = characteristic(1.0)
        lhs, rhs = ol_inequality_gap(A, G, v, f, 1.0)
        assert math.isfinite(lhs) and lhs <= rhs

    def test_square_case_with_offset_weight(self):
        # moving the weight off the origin keeps every integral finite
        A = G = power_young(2.0)
        v = SampledFn([(0.0, 0.5), (1.0, 1.0)])
        f = characteristic(1.0)
        lhs, rhs = ol_inequality_gap(A, G, v, f, 1.0)
        assert math.isfinite(rhs)
        assert lhs <= rhs * (1 + 1e-9)

    def test_fuzz_never_violates(self):
        rng = np.random.default_rng(219)
        gens = [power_young(1.5), power_young(2.0), power_young(3.0),
                exp_young(1.0)]
        for k in range(120):
            A = gens[rng.integers(0, len(gens))]
            G = gens[rng.integers(0, 3)]
            v = random_sampled(rng, n_max=4, vmax=3.0)
            f = random_sampled(rng, n_max=6)
            lam = float(10.0 ** rng.uniform(-1.5, 1.5))
            lhs, rhs = ol_inequality_gap(A, G, v, f, lam)
            if math.isfinite(rhs):
                assert lhs <= rhs * (1 + 1e-9) + 1e-12, f"case {k}"


class TestClassicalLorentzCertificate:
    def test_finite_certificate_and_inequality(self):
        t = np.concatenate((default_grid(-8, 0), default_grid(0, 8)[1:]))
        v = np.where(t <= 1.0, 1.0, 3.0 * t ** 2)
        from orlicalc.monotone import limit_const_desc
        deriv = MonotoneFn(t, v, limit_const_desc(1.0), power_log_desc(2.0))
        A = young_from_derivative(deriv)
        w = SampledFn([(1.0, 1.0)])
        q = 1.0
        lam = 1.0
        n = classical_lorentz_Nlambda(A, w, q, lam)
        assert math.isfinite(n) and n >= 0.0
        const = (q * n + q * lam) ** (1.0 / q)
        rng = np.random.default_rng(223)
        from orlicalc.rearrangement import classical_lorentz_norm
        for _ in range(10):
            f = random_sampled(rng)
            assert classical_lorentz_norm(f, w, q) <= \
                const * luxemburg_norm(f, A) * (1 + 1e-9)

    def test_zero_weight(self):
        A = power_young(2.0)
        w = SampledFn([(0.0, 1.0)])
        assert classical_lorentz_Nlambda(A, w, 1.0, 1.0) == 0.0

    def test_norm_ratio_sampling(self):
        # compatible weight: certified constant bounds the observed ratios
        A = power_young(3.0)
        w = SampledFn([(2.0, 0.5), (1.0, 0.5), (0.25, 2.0)])
        q = 2.0
        lam = 0.5
        n = classical_lorentz_Nlambda(A, w, q, lam)
        assert math.isfinite(n)
        const = (q * n + q * lam) ** (1.0 / q)
        rng = np.random.default_rng(227)
        from orlicalc.rearrangement import classical_lorentz_norm
        worst = 0.0
        for _ in range(20):
            f = random_sampled(rng)
            ratio = classical_lorentz_norm(f, w, q) / luxemburg_norm(f, A)
            worst = max(worst, ratio)
        assert worst <= const * (1 + 1e-9)


class TestWitness:
    def test_characteristic_square(self):
        s = 0.7
        f = characteristic(s)
        E = QuasiConvexFn(power_young(2.0).base)
        A = construct_witness_young(f, E)
        lamE = lambda_norm(f, E)
        # the bound is exactly attained for characteristics: the evaluated
        # modular certifies it exactly, the norm inherits bisection tolerance
        assert modular(f, A, scale=1.0 / (2.0 * lamE)) <= 1.0 + 1e-12
        assert luxemburg_norm(f, A) <= 2.0 * lamE * (1 + 1e-9)
        n1 = orlicz_lambda_Nlambda(A, E, 1.0)
        assert n1 <= 1.0 + 1e-9
        # the derivative is flat below the break and jumps beyond it
        a = A.derivative
        h_top = s ** 0.5 / (2.0 * lamE) * 0  # just sanity of access
        assert math.isinf(a(A.t_inf * 4.0))

    def test_scale_invariance(self):
        f = SampledFn([(3.0, 0.5), (1.0, 1.5)])
        E = QuasiConvexFn(power_young(2.0).base)
        A1 = construct_witness_young(f, E)
        A2 = construct_witness_young(f.scale(7.0), E)
        t = np.geomspace(1e-4, A1.t_inf * 0.99, 30)
        np.testing.assert_allclose(A1(t), A2(t), rtol=1e-9)

    def test_zero_raises(self):
        E = QuasiConvexFn(power_young(2.0).base)
        with pytest.raises(ZeroFunction):
            construct_witness_young(SampledFn([]), E)

    def test_seeded_corpus_guarantees(self):
        rng = np.random.default_rng(229)
        gens = [QuasiConvexFn(power_young(p).base) for p in (1.5, 2.0, 3.0)]
        for k in range(60):
            E = gens[rng.integers(0, len(gens))]
            f = random_sampled(rng, n_max=8)
            A = construct_witness_young(f, E)
            lamE = lambda_norm(f, E)
            # modular at twice the endpoint norm stays inside the unit ball
            assert modular(f, A, scale=1.0 / (2.0 * lamE)) <= 1.0 + 1e-12
            assert luxemburg_norm(f, A) <= 2.0 * lamE * (1 + 1e-9)
            assert orlicz_lambda_Nlambda(A, E, 1.0) <= 1.0 + 1e-9


class TestAlmostCompact:
    def test_sup_generator_into_finite_endpoint(self):
        A = linfty_young()
        E = QuasiConvexFn(power_young(2.0).base)
        assert ac_embedding_check(A, E).status == HOLDS

    def test_infinite_generator_fails(self):
        A = power_young(2.0)
        E = QuasiConvexFn(linfty_young().base)
        assert ac_embedding_check(A, E).status == FAILS

    def test_matches_certificate_for_powers(self):
        # reverse-doubling finite-valued generator: the vanishing-tail
        # verdict coincides with certificate finiteness at some scale, for
        # generators whose derivative is bounded below (so both sides see
        # only the growth at infinity)
        E = QuasiConvexFn(power_young(2.0).base)
        from orlicalc.monotone import limit_const_desc
        upper = default_grid(0, 8)[1:]
        for p, expect in [(3.0, True), (2.0, False)]:
            t = np.concatenate(([1e-8, 1.0, np.nextafter(1.0, 2.0)], upper))
            v = np.concatenate(([1.0, 1.0, p], p * upper ** (p - 1.0)))
            deriv = MonotoneFn(t, v, limit_const_desc(1.0),
                               power_log_desc(p - 1.0))
            A = young_from_derivative(deriv)
            ac = ac_embedding_check(A, E)
            n1 = orlicz_lambda_Nlambda(A, E, 1.0)
            if expect:
                assert ac.status == HOLDS and math.isfinite(n1)
            else:
                assert ac.status == FAILS and math.isinf(n1)


class TestDiagonalityTable:
    def test_lorentz_sweep(self):
        for p in [1.5, 2.0, 4.0]:
            for q in [1.0, 2.0, 4.0, INF]:
                try:
                    X = SpaceDescriptor(LORENTZ, UNIT, p=p, q=q)
                except Exception:
                    continue
                st = subdiagonality_status(X)
                if q <= p:
                    assert st.status == UNIFORMLY_SUB_DIAGONAL
                else:
                    assert st.status == NOT_SUB_DIAGONAL

    def test_lebesgue(self):
        assert subdiagonality_status(
            SpaceDescriptor(LEBESGUE, UNIT, p=3.0)).status == UNIFORMLY_SUB_DIAGONAL
        st = subdiagonality_status(SpaceDescriptor(LEBESGUE, UNIT, p=INF))
        assert st.status == SUB_DIAGONAL and st.uniform.status == FAILS

    def test_exponential_contrast(self):
        E = exp_young(1.0)
        weak_orlicz = SpaceDescriptor(ORLICZ, UNIT, generator=E)
        strong = SpaceDescriptor(LAMBDA, UNIT, generator=E)
        st1 = subdiagonality_status(weak_orlicz)
        st2 = subdiagonality_status(strong)
        assert st1.status == SUB_DIAGONAL and st1.uniform.status == FAILS
        assert st2.status == UNIFORMLY_SUB_DIAGONAL

    def test_classical_lorentz_weight(self):
        w_good = SampledFn([(2.0 ** -k, 1e-2) for k in range(30)])
        X = SpaceDescriptor(CLASSICAL_LORENTZ, UNIT, weight=w_good, q=1.0)
        st = subdiagonality_status(X)
        assert st.status in (UNIFORMLY_SUB_DIAGONAL, UNKNOWN)
        w_flat = SampledFn([(1.0, 1.0)])
        X2 = SpaceDescriptor(CLASSICAL_LORENTZ, UNIT, weight=w_flat, q=1.0)
        assert subdiagonality_status(X2).status == UNKNOWN


class TestLiftedNorm:
    def test_identity_map(self):
        rng = np.random.default_rng(233)
        X = SpaceDescriptor(LORENTZ, UNIT, p=2.0, q=1.5)
        F = power_young(1.0)
        from orlicalc.spaces import norm as space_norm
        for _ in range(5):
            f = random_sampled(rng, n_max=5)
            assert lifted_norm(F, X, f) == pytest.approx(space_norm(X, f), rel=1e-9)

    def test_power_lift_of_characteristic(self):
        p, q, r = 2.0, 1.0, 2.0
        X = SpaceDescriptor(LORENTZ, UNIT, p=p, q=q)
        F = power_young(r)
        s = 0.4
        got = lifted_norm(F, X, characteristic(s))
        # the lifted profile: scale at which the image hits unit norm
        expect = ((p / q) ** (1.0 / q) * s ** (1.0 / p)) ** (1.0 / r)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_tail_is_rejected(self):
        f = SampledFn([(1.0, 1.0)], tail=PowerTail(2.0, 0.3, 0.01))
        X = SpaceDescriptor(LEBESGUE, UNIT, p=2.0)
        with pytest.raises(ValueError, match="tail"):
            lifted_norm(power_young(2.0), X, f)

    def test_orlicz_lift_is_composition(self):
        rng = np.random.default_rng(239)
        A = power_young(2.0)
        F = power_young(1.5)
        X = SpaceDescriptor(ORLICZ, UNIT, generator=A)
        comp = power_young(3.0)  # A o F = t^3
        for _ in range(6):
            f = random_sampled(rng, n_max=5)
            assert lifted_norm(F, X, f) == pytest.approx(
                luxemburg_norm(f, comp), rel=1e-9)
