import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orlicalc import diagonality
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
    integrate_outer_reciprocal,
    lifted_norm,
    ol_inequality_gap,
    orlicz_lambda_Nlambda,
    subdiagonality_status,
)
from orlicalc.monotone import (
    INF,
    MonotoneFn,
    _power_segment_integral,
    default_grid,
    geometric_grid,
    infinite_beyond_desc,
    limit_const_desc,
    power_log_desc,
    zero_on_interval_desc,
)
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    characteristic,
    distribution,
    lambda_norm,
    luxemburg_norm,
    modular,
    rearrange,
)
from orlicalc.spaces import (
    CLASSICAL_LORENTZ,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    LORENTZ_ZYGMUND,
    MARCINKIEWICZ,
    ORLICZ,
    UNIT,
    SpaceDescriptor,
    norm as space_norm,
)
from orlicalc.young import (
    FAILS,
    HOLDS,
    QuasiConvexFn,
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
)

from helpers import (
    reference_outer_reciprocal, reference_residual_inf, reference_residual_zero,
    sequential_least_admissible_scale)
from test_rearrangement import random_sampled


def sequential_lifted_norm(F, X, f, space_norm=space_norm):
    """The lifted norm one image norm per scale of the scale search."""
    def ok(lam):
        image = F(f.values / lam)
        return not np.isinf(image).any() and space_norm(
            X, SampledFn(np.column_stack((image, f.widths)), f.length)) <= 1.0

    return sequential_least_admissible_scale(ok, max(f.sup_value(), 1.0), 1e-10)


# the generators and spaces of the lifted-norm property
LIFT_FS = [power_young(1.0), power_young(2.0), power_young(1.37), exp_young(1.0),
           linfty_young(2.0), power_log_young(2.0, 0.5, 1.0)]
LIFT_XS = [SpaceDescriptor(LEBESGUE, UNIT, p=1.0), SpaceDescriptor(LEBESGUE, UNIT, p=2.5),
           SpaceDescriptor(LEBESGUE, UNIT, p=INF), SpaceDescriptor(LORENTZ, UNIT, p=3.0, q=2.0),
           SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=2.0, q=2.0, alpha=0.3),
           SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0)),
           SpaceDescriptor(LAMBDA, UNIT, generator=power_young(2.0)),
           SpaceDescriptor(MARCINKIEWICZ, UNIT, generator=exp_young(1.0)),
           SpaceDescriptor(CLASSICAL_LORENTZ, UNIT, weight=SampledFn([(2.0, 0.3), (1.0, 0.7)]),
                           q=1.5)]


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


def chunked_outer_piece(outer, c, ta, tb, va, vb):
    """Reference: integral of outer(c / inner) over [ta, tb], inner a power
    segment, one segment at a time."""
    if tb <= ta:
        return 0.0
    if va == 0.0 and vb == 0.0:
        o = outer.value_at_inf  # the inner argument is infinite here
        return o * (tb - ta) if o > 0 else 0.0
    if np.isinf(va):
        return float(outer(0.0)) * (tb - ta)
    if np.isinf(vb):
        # the inner argument falls from c/va to zero: bound by its left edge
        with np.errstate(divide="ignore"):
            o = float(outer(np.float64(c) / va))
        return o * (tb - ta) if o > 0 else 0.0
    if va == 0.0:
        # leading sliver of a ramp: the inner argument is huge; conservative
        o = outer.value_at_inf
        return o * (tb - ta) if o > 0 else 0.0
    u_a, u_b = c / va, c / vb  # inner values at the edges (u_a >= u_b)
    if u_a == u_b:
        return float(outer(u_a)) * (tb - ta)
    sigma = math.log(vb / va) / math.log(tb / ta)
    grid = outer.t[(outer.t > min(u_a, u_b)) & (outer.t < max(u_a, u_b))]
    us = np.unique(np.concatenate(([u_b], grid, [u_a])))
    # preimages: u = (c/va) (t/ta)^(-sigma)  =>  t = ta ((c/va)/us)^(1/sigma)
    with np.errstate(over="ignore"):
        ts = ta * ((c / va) / us) ** (1.0 / sigma)
    order = np.argsort(ts)
    ts = np.clip(ts[order], ta, tb)
    ovals = outer(us[order])
    seg = _power_segment_integral(ovals[:-1], ovals[1:], ts[:-1], ts[1:])
    if np.isinf(seg).any():
        return INF
    return float(np.sum(seg))


def loop_outer_reciprocal(outer, table, c, lo=0.0, hi=INF):
    """Reference for integrate_outer_reciprocal: the same edges, integrated
    by a Python loop over the segments."""
    t0, t1 = table.t[0], table.t[-1]
    lo_eff = max(lo, t0 * 1e-40)
    hi_eff = min(hi, t1 * 1e40)
    if hi_eff <= lo_eff:
        return 0.0
    parts = [np.asarray([lo_eff, hi_eff])]
    if lo_eff < t0 < hi_eff:
        parts.append(geometric_grid(lo_eff, t0, 8))
    parts.append(table.t[(table.t > lo_eff) & (table.t < hi_eff)])
    if lo_eff < t1 < hi_eff:
        parts.append(geometric_grid(t1, hi_eff, 8))
    edges = np.unique(np.concatenate(parts))
    tv = table(edges)
    trans = ((tv[:-1] == 0.0) & (tv[1:] > 0.0)) | \
            (np.isfinite(tv[:-1]) & (tv[:-1] > 0) & np.isinf(tv[1:]))
    if trans.any():
        extra = [np.geomspace(edges[k] * (1 + 1e-12), edges[k + 1], 33)
                 for k in np.flatnonzero(trans)]
        edges = np.unique(np.concatenate([edges] + extra))
        tv = table(edges)
    total = 0.0
    for k in range(edges.size - 1):
        piece = chunked_outer_piece(outer, c, float(edges[k]), float(edges[k + 1]),
                                    float(tv[k]), float(tv[k + 1]))
        if math.isinf(piece):
            return INF
        total += piece
    res = reference_residual_zero(outer, table, c, lo, lo_eff)
    if math.isinf(res):
        return INF
    total += res
    res = reference_residual_inf(outer, table, c, hi_eff, hi)
    if math.isinf(res):
        return INF
    return total + res


def edge_case_table():
    """A short derivative table with every kind of segment: zero at both
    ends, a ramp from zero, a plateau, a power segment and a jump to +inf."""
    t = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 8.0])
    v = np.array([0.0, 0.0, 1.0, 1.0, 5.0, INF])
    return MonotoneFn(t, v, zero_on_interval_desc(1.0), infinite_beyond_desc(4.0))


def bounded_outer():
    """min(t, 2) on a default grid: finite at infinity, so segments where
    the table vanishes are charged a finite value."""
    t = default_grid(-4, 4)
    return MonotoneFn(t, np.minimum(t, 2.0), power_log_desc(1.0),
                      limit_const_desc(2.0))


def assert_same_integral(got, expect):
    if math.isinf(expect):
        assert got == expect
    else:
        assert math.isfinite(got)
        assert got == pytest.approx(expect, rel=1e-13, abs=1e-300)


class TestOuterReciprocal:
    """The array pass agrees with the per-segment loop."""

    @pytest.mark.parametrize("table", [
        pytest.param(edge_case_table, id="edge-cases"),
        pytest.param(lambda: linfty_young().derivative, id="linfty-derivative"),
        pytest.param(lambda: step_derivative_young([1e-8, 1.0, 4.0], [0.5, 0.5, 2.0])
                     .derivative, id="flat-steps"),
        pytest.param(lambda: power_young(2.5).derivative, id="power"),
    ])
    @pytest.mark.parametrize("outer", [
        pytest.param(bounded_outer, id="bounded"),
        pytest.param(lambda: build_gw(QuasiConvexFn(exp_young(1.0).base)).g_inv,
                     id="exp-g-inv"),
        pytest.param(lambda: power_young(1.5).derivative.left_inverse(), id="power-inv"),
    ])
    def test_matches_segment_loop(self, table, outer):
        table, outer = table(), outer()
        rows = [(1.0, 0.0, INF), (0.07, 0.3, 2.5), (30.0, 1.5, 6.0)]
        for c, lo, hi in rows:
            expect = loop_outer_reciprocal(outer, table, c, lo, hi)
            got = integrate_outer_reciprocal(outer, table, c, lo, hi)
            assert_same_integral(got, expect)
        # one call over the rows, in both orders, gives each row's float of
        # the one-row reference up to and including the first +inf
        for order in (rows, rows[::-1]):
            want = [reference_outer_reciprocal(outer, table, *row) for row in order]
            stop = next((i + 1 for i, w in enumerate(want) if math.isinf(w)), len(want))
            got = integrate_outer_reciprocal(outer, table, *np.array(order).T)
            assert got.tolist() == want[:stop]

    def test_edge_segments_charge_the_outer_value(self):
        # every segment of the edge-case table that the refinement does not
        # split is charged outer(c / va) over its width: 2 on the zero
        # stretch, outer(c) on the plateau, and +inf where the table is +inf
        outer = bounded_outer()
        table = edge_case_table()
        assert integrate_outer_reciprocal(outer, table, 1.0, 0.5, 1.0) == 2.0 * 0.5
        assert integrate_outer_reciprocal(outer, table, 1.0, 2.0, 3.0) == \
            pytest.approx(1.0, rel=1e-15)
        assert integrate_outer_reciprocal(outer, table, 1.0, 8.0, 9.0) == 0.0
        assert math.isinf(integrate_outer_reciprocal(
            power_young(1.5).derivative.left_inverse(), table, 1.0, 0.5, 1.0))

    def test_extreme_table_values_are_quiet(self):
        # c / va overflows on a segment whose table value is subnormal: the
        # segment is charged outer's value at infinity, like a sliver of a
        # ramp, and vb / va overflows on one spanning 300 decades; neither
        # may raise a numpy warning (warnings from this module are errors
        # under the test configuration)
        outer = bounded_outer()
        tiny = MonotoneFn([1.0, 2.0], [1e-310, 1e-300], power_log_desc(1.0),
                          power_log_desc(1.0), validate=False)
        assert integrate_outer_reciprocal(outer, tiny, 1e3, 1.0, 2.0) == 2.0
        steep = MonotoneFn([1.0, 2.0], [1e-300, 1e10], power_log_desc(1.0),
                           power_log_desc(1.0), validate=False)
        assert math.isfinite(integrate_outer_reciprocal(outer, steep, 1e-5, 1.0, 2.0))

    def test_criterion_corpus_matches_segment_loop(self):
        rng = np.random.default_rng(241)
        gens = [power_young(1.5), power_young(3.0), exp_young(1.0), linfty_young()]
        for k in range(8):
            A = gens[k % len(gens)]
            G = gens[(k // 2) % 3]
            g_inv = G.derivative.left_inverse()
            lo = float(rng.uniform(0.0, 2.0))
            hi = lo + float(10.0 ** rng.uniform(-2.0, 1.0))
            c = float(10.0 ** rng.uniform(-1.5, 1.5))
            assert_same_integral(integrate_outer_reciprocal(g_inv, A.derivative, c, lo, hi),
                                 loop_outer_reciprocal(g_inv, A.derivative, c, lo, hi))


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

    def test_left_side_matches_cut_loop(self):
        # the left side sums G_inv(d(mid)) * weight * width over the cuts of
        # each weight step; the array form adds the same terms in the same
        # order, so the sums are equal bit for bit
        rng = np.random.default_rng(251)
        gens = [power_young(1.5), power_young(2.0), exp_young(1.0)]
        for k in range(12):
            G = gens[k % 3]
            v = random_sampled(rng, n_max=4, vmax=3.0)
            if k % 4 == 0:
                v = SampledFn([(0.0, 0.3)] + list(v.pieces))
            f = random_sampled(rng, n_max=6)
            G_inv = G.base.left_inverse()
            d = distribution(f)
            expect = 0.0
            pos = 0.0
            knots = np.sort(rearrange(f).values)
            for wv, ww in v.pieces:
                seg_lo, seg_hi = pos, pos + ww
                pos = seg_hi
                if wv == 0.0:
                    continue
                cuts = np.unique(np.clip(np.concatenate(([seg_lo, seg_hi], knots)),
                                         seg_lo, seg_hi))
                for a, b in zip(cuts[:-1], cuts[1:]):
                    if b > a:
                        expect += float(G_inv(float(d(0.5 * (a + b))))) * wv * (b - a)
            lhs, _ = ol_inequality_gap(power_young(2.0), G, v, f, 1.0)
            assert lhs == expect, k

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


    def test_sides_are_python_floats(self):
        # the modular is a numpy float; the right side is still a float
        A, G = power_young(2.0), power_young(3.0)
        lhs, rhs = ol_inequality_gap(A, G, SampledFn([(1.0, 2.0)]),
                                     SampledFn([(1.0, 0.5)]), 1.0)
        assert type(lhs) is float and type(rhs) is float and math.isfinite(rhs)

    def test_first_step_divergent_at_zero_does_no_segment_work(self, monkeypatch):
        # under A = G = t^1.3 the integrand of the first weight step is not
        # integrable at 0: its residual there decides the right side before
        # any segment of any step is integrated
        A = G = power_young(1.3)
        calls = []
        chunks = diagonality._outer_chunks
        monkeypatch.setattr(diagonality, "_outer_chunks",
                            lambda *args: calls.append(1) or chunks(*args))
        v = SampledFn([(2.0, 0.5), (1.0, 0.5), (0.5, 2.0)])
        assert ol_inequality_gap(A, G, v, characteristic(1.0), 1.0)[1] == INF
        assert not calls
        # with the weight moved off the origin, the segments are integrated
        v = SampledFn([(0.0, 0.5), (1.0, 0.5), (0.5, 2.0)])
        assert math.isfinite(ol_inequality_gap(A, G, v, characteristic(1.0), 1.0)[1])
        assert calls

    def test_table_evaluations_do_not_grow_with_the_weight_steps(self, monkeypatch):
        # 1, 30 and 300 weight steps: the derivative of A is evaluated on
        # array arguments equally often, since one pass takes every step
        A, G = power_young(1.5), power_young(3.0)
        rng = np.random.default_rng(5)
        f = SampledFn(list(zip(rng.uniform(0.1, 5.0, 5), rng.uniform(0.1, 1.0, 5))))
        table = A.derivative
        evaluate = MonotoneFn.__call__
        counts = []

        def counted(fn, x):
            if fn is table and np.ndim(x):
                counts[-1] += 1
            return evaluate(fn, x)

        monkeypatch.setattr(MonotoneFn, "__call__", counted)
        for n in (1, 30, 300):
            v = SampledFn(list(zip(rng.uniform(0.1, 3.0, n), np.full(n, 0.05))))
            counts.append(0)
            assert math.isfinite(ol_inequality_gap(A, G, v, f, 1.0)[1])
        assert counts[0] > 0 and counts == counts[:1] * 3


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

    def test_exponential_generator_certificate_bounds_the_ratios(self):
        # past the derivative's grid e**t leaves the float range: the inner
        # map is +inf there, which once raised OverflowError
        A = exp_young(1.0)
        w = SampledFn([(2.0, 0.5), (1.0, 1.0)])
        rng = np.random.default_rng(229)
        from orlicalc.rearrangement import classical_lorentz_norm
        for q in (1.0, 1.5, 2.0):
            n = classical_lorentz_Nlambda(A, w, q, 1.0)
            assert math.isfinite(n)
            const = (q * n + q) ** (1.0 / q)
            for _ in range(10):
                f = random_sampled(rng)
                assert classical_lorentz_norm(f, w, q) <= \
                    const * luxemburg_norm(f, A) * (1 + 1e-9)


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


    def test_verdict_and_witness_are_the_scale_loop(self):
        # each scale integrated on its own, ascending, stopping at the
        # first that diverges, as the check did one call per scale: the
        # generators fail at the first, a later (2^-5, 2^0) or no scale
        gens = {"t^1.3": power_young(1.3), "t^3": power_young(3.0),
                "exp": exp_young(1.0), "linfty": linfty_young(),
                "pl 2,-1,1": power_log_young(2.0, alpha_zero=-1.0, alpha_inf=1.0),
                "pl 1.5,0,0.5": power_log_young(1.5, alpha_zero=0.0, alpha_inf=0.5)}
        witnesses = set()
        for A in gens.values():
            for E_name in ("t^1.3", "t^3", "exp", "pl 2,-1,1", "pl 1.5,0,0.5"):
                E = QuasiConvexFn(gens[E_name].base)
                data = build_gw(E)
                a_inv = A.derivative.right_inverse()
                cap = min(1.0, float(data.g.t[-1]))
                vals = []
                for k in range(-10, 11, 5):
                    vals.append(reference_outer_reciprocal(a_inv, data.g, 2.0 ** k, 0.0, cap))
                    if math.isinf(vals[-1]):
                        break
                ac = ac_embedding_check(A, E)
                if math.isinf(vals[-1]):
                    assert ac.status == FAILS and ac.witness == 2.0 ** k
                    witnesses.add(k)
                else:
                    assert ac.status != FAILS
                    if ac.status == HOLDS:
                        assert type(ac.witness) is float and ac.witness == max(vals)
        assert witnesses == {-10, -5, 0}


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

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(LIFT_FS), st.sampled_from(LIFT_XS),
           st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.01, 0.2)),
                    min_size=1, max_size=5))
    # an Orlicz image norm is itself a bisection, so it steps at the last
    # bit of the image: here images of f * (1 / lam) for f / lam move the
    # lift by 8e-11
    @example(LIFT_FS[0], LIFT_XS[5], [(2.1723671894200516, 0.15456104257911182),
                                      (0.9352882073272871, 0.03112288137256082),
                                      (7.7721002765806615, 0.1197594251470386)])
    def test_is_the_one_scale_search(self, F, X, pieces):
        # the gauge search's certified bracket answers some scales without
        # an image norm; every answer is the one the image norm gives
        f = SampledFn(pieces)
        assert lifted_norm(F, X, f) == sequential_lifted_norm(F, X, f)

    def test_image_norms_per_lift(self, monkeypatch):
        # one image norm per scale that the root phase or the bisection
        # inside the certified bracket asks; a search that asks one image
        # norm for every scale makes 36 here
        X = SpaceDescriptor(LORENTZ, UNIT, p=2.0, q=1.5)
        F = power_young(2.0)
        f = SampledFn([(2.0, 0.3), (0.5, 0.2), (7.0, 0.01)])
        seen = []
        space_norm = diagonality.space_norm

        def counted(*args):
            seen.append(args)
            return space_norm(*args)

        monkeypatch.setattr(diagonality, "space_norm", counted)
        assert lifted_norm(F, X, f) == sequential_lifted_norm(F, X, f, space_norm)
        assert len(seen) <= 12

    def test_power_lift_of_characteristic(self):
        p, q, r = 2.0, 1.0, 2.0
        X = SpaceDescriptor(LORENTZ, UNIT, p=p, q=q)
        F = power_young(r)
        s = 0.4
        got = lifted_norm(F, X, characteristic(s))
        # the lifted profile: scale at which the image hits unit norm
        expect = ((p / q) ** (1.0 / q) * s ** (1.0 / p)) ** (1.0 / r)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_young_function_that_jumps_to_inf(self):
        # below the scale sup |f| / threshold an image piece is +inf, whose
        # norm is +inf; at and above it every image piece is 0
        X = SpaceDescriptor(LORENTZ, UNIT, p=3.0, q=2.0)
        f = SampledFn([(1.0, 1.0), (3.0, 2.0)])
        for threshold in (1.0, 2.0):
            assert lifted_norm(linfty_young(threshold), X, f) == pytest.approx(
                3.0 / threshold, rel=1e-9)

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
