import json
import math

import mpmath as mp
import numpy as np
import pytest

from orlicalc.diagonality import construct_witness_young
import orlicalc.young as young_mod
from orlicalc.monotone import (
    GLOBAL,
    INF,
    INFINITE_BEYOND,
    LIMIT_CONST,
    NEAR_INFINITY,
    NEAR_ZERO,
    NUMERIC_ONLY,
    POWER_LOG,
    ZERO_ON_INTERVAL,
    MonotoneFn,
    _power_segment_integral,
    default_grid,
    exp_reciprocal_desc,
    exponential_desc,
    limit_const_desc,
    power_log_desc,
)
from orlicalc.rearrangement import SampledFn
from orlicalc.young import (
    FAILS,
    HOLDS,
    IntegralDiverges,
    UNDECIDED,
    QuasiConvexFn,
    YoungFn,
    _symbolic_dominates_inf,
    _symbolic_dominates_zero,
    conjugate,
    delta2,
    dominates,
    exp_young,
    linfty_young,
    nabla2,
    power_log_young,
    power_young,
    young_from_callable,
    young_from_derivative,
    young_from_json,
    young_from_values,
    young_to_json,
    youngify,
)

from helpers import random_step_monotone


def conjugate_scan_oracle(A, t, taus):
    """sup{tau*t - A(tau)} by direct maximization over a dense grid."""
    vals = A(taus)
    fin = np.isfinite(vals)
    return max(0.0, float(np.max(taus[fin] * t - vals[fin])))


def reference_value(A, x):
    """Point-by-point A(x) in Python floats, for the table and the
    closed-form head and tail; None where the kernel integrates numerically."""
    a, base, t = A.derivative, A.base, A.derivative.t
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return base.value_at_inf
    if x < t[0]:
        d = a.zero_desc
        ax = float(a(x))
        if d.kind == ZERO_ON_INTERVAL or ax == 0.0:
            return 0.0
        if math.isinf(ax):
            return math.inf
        if d.kind == LIMIT_CONST:
            return d.limit * x
        if d.kind == POWER_LOG and d.alpha != 0.0:
            return None
        p = d.p if d.kind == POWER_LOG else a._edge_slope(True)
        return ax * x / (p + 1.0)
    if x > t[-1]:
        if math.isinf(base.v[-1]) or a._i_last_fin < t.size - 1:
            return math.inf
        d = a.inf_desc
        if d.kind == POWER_LOG and d.alpha == 0.0:
            p = d.p
        elif d.kind in (NUMERIC_ONLY, LIMIT_CONST):
            p = a._edge_slope(False) if d.kind == NUMERIC_ONLY else 0.0
        else:
            return None
        aN, tN = float(a.v[-1]), float(t[-1])
        if d.kind == LIMIT_CONST:
            aN = d.limit
        try:
            return float(base.v[-1]) + aN * tN * ((x / tN) ** (p + 1.0) - 1.0) / (p + 1.0)
        except OverflowError:
            return math.inf
    i = int(np.searchsorted(t, x, side="right")) - 1
    if x == t[i]:
        return float(base.v[i])
    return float(base.v[i]) + float(_power_segment_integral(a.v[i], a(x), t[i], x))


def random_young(rng):
    """Randomized Young functions across the canonical families."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return power_young(float(rng.uniform(1.0, 6.0)))
    if kind == 1:
        p = float(rng.uniform(1.2, 4.0))
        a0 = float(rng.uniform(-1.5, min(1.5, p - 1.0)))
        ai = float(rng.uniform(max(-1.5, 1.0 - p), 1.5))
        return power_log_young(p, alpha_zero=a0, alpha_inf=ai)
    if kind == 2:
        return exp_young(float(rng.uniform(0.6, 2.5)))
    # random convex table: integrate a random non-decreasing derivative
    a = random_step_monotone(rng, with_plateaus=True)
    return young_from_derivative(a)


class TestConjugate:
    def test_self_conjugate_quadratic(self):
        A = power_young(2.0, coef=0.5)
        At = conjugate(A)
        x = np.geomspace(1e-6, 1e6, 100)
        np.testing.assert_allclose(At(x), 0.5 * x ** 2, rtol=1e-10)

    def test_cubic_against_scan_oracle(self):
        A = power_young(3.0, coef=1.0 / 3.0)
        At = conjugate(A)
        taus = np.geomspace(1e-8, 1e8, 300001)
        for t in [0.01, 0.5, 1.0, 7.0, 90.0]:
            expect = conjugate_scan_oracle(A, t, taus)
            assert At(t) == pytest.approx(expect, rel=1e-6)
        # closed form (2/3) t^{3/2}
        x = np.geomspace(1e-4, 1e4, 50)
        np.testing.assert_allclose(At(x), (2.0 / 3.0) * x ** 1.5, rtol=1e-10)

    def test_sup_norm_generator(self):
        A = linfty_young()
        At = conjugate(A)
        x = np.geomspace(1e-6, 1e6, 60)
        np.testing.assert_allclose(At(x), x, rtol=1e-9)

    def test_double_conjugate_of_sup_norm_generator_is_itself(self):
        # the conjugate's derivative is a right inverse whose limit at +inf,
        # its limit-const descriptor 2, is not its value there, +inf
        At = conjugate(linfty_young(2.0))
        reloaded = young_from_json(json.loads(json.dumps(young_to_json(At))))
        x = [1e-3, 1.0, 1.999, 2.001, 10.0]
        for B in (conjugate(At), conjugate(reloaded)):
            assert B(x).tolist() == [0.0, 0.0, 0.0, INF, INF]
            d = B.base.inf_desc
            assert d.kind == INFINITE_BEYOND and d.threshold == 2.0

    def test_conjugate_of_identity_is_sup_norm_generator(self):
        A = power_young(1.0)
        At = conjugate(A)
        assert At(0.999) == pytest.approx(0.0, abs=1e-12)
        assert At(2.0) > 1e6   # jump region just above the threshold

    def test_linear_conjugate_keeps_its_vanishing_interval(self):
        # the conjugate of t vanishes up to 1, and its zero descriptor says
        # so: the jump generator that vanishes up to 3 dominates it near
        # zero with the constant it gives linfty(1), the same function
        At = conjugate(power_young(1.0))
        d = At.base.zero_desc
        assert d.kind == ZERO_ON_INTERVAL and d.threshold == np.nextafter(1.0, 0.0)
        assert At(d.threshold) == 0.0
        want = dominates(linfty_young(3.0), linfty_young(1.0), NEAR_ZERO).witness
        got = dominates(linfty_young(3.0), At, NEAR_ZERO).witness
        assert want == 3.0 and got == pytest.approx(want, rel=1e-15)

    def test_young_inequality_on_random_functions(self):
        rng = np.random.default_rng(101)
        pts = np.geomspace(1e-3, 1e3, 50)
        for _ in range(12):
            A = random_young(rng)
            At = conjugate(A)
            tau, t = np.meshgrid(pts, pts)
            bound = A(tau.ravel()) + At(t.ravel())
            prod = tau.ravel() * t.ravel()
            ok = prod <= bound * (1 + 1e-10) + 1e-12
            assert ok.all()

    def test_biconjugation_recovers_values(self):
        rng = np.random.default_rng(202)
        for _ in range(10):
            A = random_young(rng)
            Att = conjugate(conjugate(A))
            t = A.base.t
            v = A.base.v
            fin = np.isfinite(v) & (v > 1e-280)
            np.testing.assert_allclose(Att(t[fin]), v[fin], rtol=1e-6)

    def test_value_of_inverse_below_argument_everywhere(self):
        # with A(0) = 0 the bound holds on the whole positive axis
        rng = np.random.default_rng(304)
        s = np.geomspace(1e-6, 1e6, 120)
        for _ in range(12):
            A = random_young(rng)
            back = A(A.integral_inverse(s))
            fin = np.isfinite(back)
            assert np.all(back[fin] <= s[fin] * (1 + 1e-10))

    def test_inverse_product_sandwich(self):
        rng = np.random.default_rng(303)
        x = np.geomspace(1e-6, 1e6, 200)
        for _ in range(20):
            A = random_young(rng)
            At = conjugate(A)
            prod = A.integral_inverse(x) * At.integral_inverse(x)
            assert np.all(prod >= x * (1 - 1e-10))
            assert np.all(prod <= 2.0 * x * (1 + 1e-10))


class TestIntegralKernel:
    """A(x) and integral_inverse take arrays and give arrays of the same
    shape, a float for a scalar, and +inf rather than an exception."""

    FUNCTIONS = [
        power_young(2.0),
        power_log_young(1.5, alpha_zero=-1.0, alpha_inf=1.0),
        exp_young(1.0),
        conjugate(power_log_young(2.0, alpha_zero=1.0, alpha_inf=1.0)),
        conjugate(exp_young(2.0)),
        conjugate(linfty_young(2.0)),
        linfty_young(3.0),
        # a grid that ends below 1: the span to 1e308 overflows a ratio
        young_from_derivative(MonotoneFn(np.array([1e-3, 1e-2]), np.array([1.0, 2.0]),
                                         power_log_desc(0.0), exponential_desc(1.0))),
    ]

    def test_scalar_gives_float_and_arrays_keep_shape(self):
        A = power_young(2.0)
        assert type(A(3.0)) is float
        assert type(A.integral_inverse(9.0)) is float
        x = np.array([[0.5, 1.0], [2.0, 4.0]])
        assert A(x).shape == (2, 2)
        assert A.integral_inverse(x).shape == (2, 2)
        np.testing.assert_allclose(A(x), x ** 2, rtol=1e-12)

    def test_matches_pointwise_reference(self):
        # equal on the table; off it numpy's array power may differ from
        # the C library's by an ulp, so the closed forms get 4 ulp
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            A = random_young(rng)
            for B in (A, conjugate(A)):
                t = B.derivative.t
                x = np.concatenate((np.geomspace(t[0] * 1e-6, t[-1] * 1e6, 200),
                                    t[:: max(1, t.size // 50)], [0.0, INF]))
                with np.errstate(over="ignore"):
                    got = B(x)
                for q, g in zip(x, got):
                    ref = reference_value(B, float(q))
                    if ref is None:
                        continue
                    if t[0] <= q <= t[-1]:
                        assert g == ref, (B.recipe, q)
                    else:
                        assert g == pytest.approx(ref, rel=4 * np.finfo(float).eps, abs=0)
                    checked += 1
        assert checked > 10000

    @pytest.mark.parametrize("k", range(len(FUNCTIONS)))
    def test_batch_equals_single_points(self, k):
        # off-grid branches use fixed nodes, so a point's value does not
        # depend on the other points of the call
        A = self.FUNCTIONS[k]
        x = np.concatenate((np.geomspace(1e-40, 1e40, 41), [1e300, 1.7e308, 0.0, INF]))
        with np.errstate(over="ignore", invalid="ignore"):
            batch = A(x)
            assert np.array_equal(batch, [A(q) for q in x])
            assert not np.isnan(batch).any()
            inv = A.integral_inverse(x)
            assert np.array_equal(inv, [A.integral_inverse(q) for q in x])
            assert not np.isnan(inv).any()

    @pytest.mark.parametrize("alpha", [-1.0, 0.5])
    def test_rows_equal_calls_of_their_own(self, alpha):
        # below its grid a log factor is integrated in closed form, each
        # point from the first node alone, so a row of a 2-d array gives
        # what a call with that row alone gives
        A = power_log_young(2.0, alpha_zero=alpha, alpha_inf=0.0)
        rng = np.random.default_rng(11)
        x = 10.0 ** rng.uniform(-300.0, 2.0, (24, 9))
        x[3] = 10.0 ** rng.uniform(-14.0, -9.0, 9)
        x[5, :4] = 0.0
        got = A(x)
        assert got.shape == x.shape
        for row, want in zip(x, got):
            assert np.array_equal(A(row), want)
        assert np.array_equal(A(x[:, None, :]), got[:, None, :])

    @pytest.mark.parametrize("build", [
        lambda: power_young(2.0),
        lambda: power_log_young(2.0, alpha_zero=1.0, alpha_inf=1.0),
        lambda: exp_young(1.0),
        lambda: young_from_values(np.geomspace(0.1, 10.0, 9), np.geomspace(0.1, 10.0, 9) ** 3),
        lambda: conjugate(power_log_young(2.0, alpha_zero=1.0, alpha_inf=1.0)),
        lambda: linfty_young(2.0),
    ], ids=["power", "power-log", "exp", "sampled table", "conjugate", "linfty"])
    def test_nodes_give_the_value_table(self, build):
        # the last node too: it took the previous node's value plus a
        # segment, and A(1e8) of t**2 was 1.0000000000000002e16
        A = build()
        assert np.array_equal(A(A.derivative.t), A.base.v)

    @pytest.mark.parametrize("alpha_zero", [1.0, -1.0, 0.5])
    def test_log_factor_head_at_the_first_node(self, alpha_zero):
        # below t0 the derivative is v0 (t / t0)**(p - 1) l**a0 with
        # l = log t / log t0; its integral over (0, t0), the first value of
        # the table, is v0 t0 e**z z**-a0 Gamma(a0 + 1, z) / p at
        # z = p / k, k = -1 / log t0 (an extension grid left it 2.4e-6 to
        # 4.8e-6 off for these three)
        p = 2.0
        A = power_log_young(p, alpha_zero=alpha_zero, alpha_inf=1.0)
        t0, v0 = mp.mpf(A.derivative.t[0]), mp.mpf(A.derivative.v[0])
        with mp.workdps(40):
            k = -1 / mp.log(t0)  # l = log t / log t0 = 1 + log(t / t0) / log t0
            want = v0 * t0 / k * mp.exp(p / k) * (k / p) ** (alpha_zero + 1) \
                * mp.gammainc(alpha_zero + 1, p / k)
        assert A.base.v[0] == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_log_factor_start_above_its_first_node(self):
        # with its grid from 1e-5, the start 1e-300 lies an ulp below the
        # first node 10**(-300 + ...) of the integration grid; a point at the
        # start took the integral up to the largest point of the call
        t = np.geomspace(1e-5, 1e5, 161)
        a = MonotoneFn(t, t * (1.0 - np.log(np.minimum(t, 1.0))) ** 0.5,
                       power_log_desc(1.0, 0.5), power_log_desc(1.0, 0.0), validate=False)
        A = young_from_derivative(a)
        got = A(np.array([1e-305, 1e-6]))
        assert got[0] == A(1e-305) == 0.0
        assert got[1] == A(1e-6) > 0.0

    def test_overflowing_tail_is_inf(self):
        # the power-tail primitive overflows beyond the grid of the double
        # conjugate of exp(t) - 1 - t
        A = conjugate(conjugate(exp_young(1.0)))
        assert A(65000.0) == INF
        assert A(np.array([65000.0]))[0] == INF
        assert math.isfinite(A(float(A.derivative.t[-1])))


class TestYoungify:
    def test_identity(self):
        B = QuasiConvexFn(power_young(1.0).base)
        A = youngify(B)
        x = np.geomspace(1e-4, 1e4, 40)
        np.testing.assert_allclose(A(x), x, rtol=1e-10)

    def test_square(self):
        B = QuasiConvexFn(power_young(2.0).base)
        A = youngify(B)
        x = np.geomspace(1e-4, 1e4, 40)
        np.testing.assert_allclose(A(x), 0.5 * x ** 2, rtol=1e-10)

    def test_sandwich_on_random_quasi_convex(self):
        rng = np.random.default_rng(404)
        for _ in range(10):
            g = random_step_monotone(rng)
            ratio = MonotoneFn(g.t, g.v * g.t)  # A/t = g, with ends of its own
            B = QuasiConvexFn(ratio)
            A = youngify(B)
            t = B.base.t
            assert np.all(A(t) <= B(t) * (1 + 1e-9))
            assert np.all(B(t) <= A(2.0 * t) * (1 + 1e-9))

    def test_divergent_integral_raises(self):
        t = default_grid(-4, 4)
        # B(t)/t ~ 1/t near zero is not integrable
        bad = MonotoneFn(t, np.full_like(t, 3.0), power_log_desc(0.0), power_log_desc(0.0))
        with pytest.raises(IntegralDiverges):
            youngify(QuasiConvexFn(bad, validate=False))


class TestGrowthConditions:
    def test_power_doubles_globally(self):
        for p in [1.0, 2.0, 3.5]:
            v = delta2(power_young(p), GLOBAL)
            assert v.status == HOLDS
            assert v.witness == pytest.approx(2.0 ** p, rel=0.6)

    def test_exponential_contrast_near_infinity(self):
        E = exp_young(1.0)
        assert delta2(E, NEAR_INFINITY).status == FAILS
        assert nabla2(E, NEAR_INFINITY).status == HOLDS

    def test_t_log_doubles(self):
        A = young_from_callable(lambda t: t * np.log1p(t),
                                power_log_desc(2.0), power_log_desc(1.0, 1.0),
                                grid=default_grid(-6, 6))
        assert delta2(A, GLOBAL).status == HOLDS

    def test_nabla2_linear_fails(self):
        assert nabla2(power_young(1.0), NEAR_INFINITY).status == FAILS

    def test_sup_norm_generator_conditions(self):
        L = linfty_young()
        assert delta2(L, NEAR_INFINITY).status == FAILS
        assert nabla2(L, NEAR_INFINITY).status == HOLDS

    def test_nabla2_global_scans_the_grid(self):
        # the global regime takes both tails' verdicts and the scan of the
        # whole grid for a dyadic c with A(c t) >= 2 c A(t): c = 4 for t**2
        # (c = 2 meets it with equality, which rounding may miss)
        v = nabla2(power_young(2.0))
        assert (v.status, v.witness) == (HOLDS, 4.0)
        assert nabla2(power_young(1.0)).status == FAILS
        # a linear table has no such c on its grid
        t = np.geomspace(1e-2, 1e2, 9)
        assert young_mod._reverse_scan(MonotoneFn(t, t), t).status == UNDECIDED
        assert young_mod._reverse_scan(MonotoneFn(t, np.zeros_like(t)), t).status == HOLDS


class TestDominates:
    def test_global_regime_searches_once(self, monkeypatch):
        # the tail regimes' windows lie inside B's grid, where the least
        # dyadic K is no smaller: the global verdict takes the descriptors'
        # verdicts and one search of the whole grid
        calls = []
        real = young_mod._dilation_search

        def counted(a, b, window, *args):
            calls.append(window.size)
            return real(a, b, window, *args)

        monkeypatch.setattr(young_mod, "_dilation_search", counted)
        gens = [power_young(2.0), power_young(3.0), power_log_young(2.0, alpha_inf=1.0),
                exp_young(1.0), linfty_young(2.0)]
        for A in gens:
            for B in gens:
                calls.clear()
                v = dominates(A, B)
                searched = len(calls)
                low, high = dominates(A, B, NEAR_ZERO), dominates(A, B, NEAR_INFINITY)
                tail_fails = FAILS in (low.status, high.status)
                assert searched == (0 if tail_fails else 1)
                assert (v.status == FAILS) if tail_fails else v.status != FAILS
                if v.status == HOLDS:
                    assert v.witness >= max(low.witness, high.witness)
        calls.clear()
        B = power_young(2.0, coef=3.0)
        v = dominates(power_young(2.0), B)
        assert (v.status, v.witness) == (HOLDS, 2.0)
        assert calls == [B.base.t.size]

    def test_power_order_near_infinity(self):
        A3, A2 = power_young(3.0), power_young(2.0)
        assert dominates(A3, A2, NEAR_INFINITY).status == HOLDS
        assert dominates(A2, A3, NEAR_INFINITY).status == FAILS

    def test_exponential_beats_powers(self):
        E = exp_young(1.0)
        A = power_young(4.0)
        assert dominates(E, A, NEAR_INFINITY).status == HOLDS
        assert dominates(A, E, NEAR_INFINITY).status == FAILS

    def test_log_refinement_at_equal_power(self):
        A = power_log_young(2.0, alpha_inf=1.0)
        B = power_log_young(2.0, alpha_inf=-1.0)
        assert dominates(A, B, NEAR_INFINITY).status == HOLDS
        assert dominates(B, A, NEAR_INFINITY).status == FAILS

    def test_reflexive_and_transitive(self):
        rng = np.random.default_rng(505)
        powers = sorted(rng.uniform(1.0, 5.0, size=3))
        A, B, C = (power_young(float(p)) for p in powers)
        for fn in (A, B, C):
            assert dominates(fn, fn, NEAR_INFINITY).status == HOLDS
        vAB = dominates(B, A, NEAR_INFINITY)   # A below dilation of B
        vBC = dominates(C, B, NEAR_INFINITY)
        vAC = dominates(C, A, NEAR_INFINITY)
        assert vAB.status == vBC.status == vAC.status == HOLDS
        assert vAC.witness <= vAB.witness * vBC.witness * (1 + 1e-9) + 1.0

    def test_conjugate_reverses_domination(self):
        A, B = power_young(3.0), power_young(2.0)
        # near infinity the relation holds, globally it fails near zero;
        # conjugation must agree in both regimes
        d1 = dominates(A, B, NEAR_INFINITY)
        d2 = dominates(conjugate(B), conjugate(A), NEAR_INFINITY)
        assert d1.status == HOLDS and d2.status == HOLDS
        g1 = dominates(A, B, GLOBAL)
        g2 = dominates(conjugate(B), conjugate(A), GLOBAL)
        assert g1.status == FAILS and g2.status == FAILS

    @pytest.mark.parametrize("ta, tb", [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)])
    def test_witness_dilates_past_jumps_to_infinity(self, ta, tb):
        # B is +inf past t_B, where A(K t) must be +inf too: K >= t_A / t_B
        A, B = linfty_young(ta), linfty_young(tb)
        t = np.concatenate((np.geomspace(1e-3, 1e3, 20001),
                            np.nextafter([ta, tb], [0.0, 0.0]), [ta, tb],
                            np.nextafter([ta, tb], [INF, INF])))
        for regime in (NEAR_ZERO, NEAR_INFINITY, GLOBAL):
            v = dominates(A, B, regime)
            assert v.status == HOLDS
            assert np.all(B(t) <= A(v.witness * t)), (regime, v.witness)

    def test_global_witnesses_hold_beyond_both_grids(self):
        # every global holds between two of these generators is checked with
        # the exact A on 200 points a side over the 12 decades past both
        # tables; the samples of t^2 extrapolate as t^2, which a window of
        # their grid does not show
        gens = [power_young(1.2), power_young(2.0), power_young(3.5),
                power_log_young(2.0, 0.0, 1.0), power_log_young(2.0, -1.0, 0.5),
                exp_young(1.0), linfty_young(2.0),
                young_from_json({"class": "table", "grid": [[1, 1], [2, 4], [4, 16], [8, 64]]}),
                conjugate(power_young(1.5))]
        held, false = 0, []
        for i, A in enumerate(gens):
            for j, B in enumerate(gens):
                v = dominates(A, B, GLOBAL)
                if i == j or v.status != HOLDS:
                    continue
                held += 1
                lo = min(A.base.t[0], B.base.t[0])
                hi = max(A.base.t[-1], B.base.t[-1])
                x = np.concatenate((np.geomspace(lo * 1e-12, lo, 200),
                                    np.geomspace(hi, hi * 1e12, 200)))
                with np.errstate(over="ignore"):
                    ok = B(x) <= A(v.witness * x) * (1 + 1e-9)
                if not ok.all():
                    false.append((i, j, float(x[~ok][0])))
        assert held == 11
        assert not false

    def test_samples_value_table_names_the_class_of_the_integral(self):
        # the samples' edge power at infinity is 0, as their last positive
        # value follows a zero, but A integrates a derivative that is 1 past
        # the grid, so A is t - 1 there and unbounded
        A = young_from_values([1.0, 2.0], [0.0, 1.0])
        assert A.base.inf_desc == power_log_desc(1.0)
        assert A(INF) == A.base.value_at_inf == INF
        assert A(1e6) == pytest.approx(1e6 - 1.0, rel=1e-12)
        v = dominates(A, power_young(1.0), NEAR_INFINITY)
        assert v.status == HOLDS
        x = np.geomspace(2.0, 1e12, 200)
        assert np.all(x <= A(v.witness * x))
        # a limit-const zero end has a constant derivative below the grid,
        # so A and its value table are linear there
        B = young_from_values([1.0, 2.0, 4.0], [1.0, 3.0, 7.0], limit_const_desc(0.0))
        assert B.base.zero_desc == power_log_desc(1.0)
        assert B.base(0.5) == pytest.approx(B(0.5), rel=1e-12)
        assert B(0.5) == pytest.approx(0.5, rel=1e-12)

    def test_exponents_an_ulp_apart_are_one_class(self):
        # a conjugate, its transform and an averaged profile bring 4 back
        # as 4.000000000000001 and 3 as 3.0000000000000004
        p, a = 4.000000000000001, 3.0000000000000004
        for decide in (_symbolic_dominates_inf, _symbolic_dominates_zero):
            for db, da in [(power_log_desc(p, 0.0), power_log_desc(4.0, 0.0)),
                           (power_log_desc(1.0, a), power_log_desc(1.0, 3.0)),
                           (power_log_desc(4.0, 0.0), power_log_desc(p, 0.0)),
                           (power_log_desc(1.0, 3.0), power_log_desc(1.0, a))]:
                v = decide(db, da)
                assert v.status == HOLDS and v.reason == "identical power-log class"
        g = 0.5000000000000001
        assert _symbolic_dominates_inf(exponential_desc(g),
                                       exponential_desc(0.5)).status == HOLDS
        assert _symbolic_dominates_zero(exp_reciprocal_desc(0.5),
                                        exp_reciprocal_desc(g)).status == HOLDS

    def test_exponents_further_apart_keep_their_order(self):
        assert _symbolic_dominates_inf(power_log_desc(4.000001, 0.0),
                                       power_log_desc(4.0, 0.0)).status == FAILS
        assert _symbolic_dominates_inf(power_log_desc(4.0, 3.000001),
                                       power_log_desc(4.0, 3.0)).status == FAILS
        assert _symbolic_dominates_inf(power_log_desc(4.0, 3.0),
                                       power_log_desc(4.0, 3.000001)).status == HOLDS
        assert _symbolic_dominates_zero(power_log_desc(3.999999, 5.0),
                                        power_log_desc(4.0, 0.0)).status == FAILS
        assert _symbolic_dominates_zero(power_log_desc(4.0, 0.0),
                                        power_log_desc(4.0, 1e-6)).status == HOLDS
        assert _symbolic_dominates_inf(exponential_desc(0.500001),
                                       exponential_desc(0.5)).status == FAILS
        assert _symbolic_dominates_zero(exp_reciprocal_desc(0.5),
                                        exp_reciprocal_desc(0.500001)).status == FAILS

    def test_correlative_preserves_quasi_convexity(self):
        rng = np.random.default_rng(606)
        for _ in range(8):
            A = random_young(rng)
            cor = A.correlative()
            assert isinstance(cor, QuasiConvexFn)
            # re-validate explicitly
            QuasiConvexFn(cor.base)


def _witness_young():
    return construct_witness_young(SampledFn([(3.0, 0.5), (1.0, 1.5)]),
                                   QuasiConvexFn(power_young(2.0).base))


def _values_young():
    t = np.geomspace(1e-3, 1e3, 97)
    return young_from_values(t, t ** 2 * np.log(2.0 + t),
                             power_log_desc(2.0), power_log_desc(2.0, 1.0))


TABLE_CLASS_BUILDERS = [
    pytest.param(lambda: conjugate(linfty_young(2.0)), id="conjugate-linfty"),
    pytest.param(lambda: conjugate(power_log_young(1.0, -1.0, 1.0)), id="conjugate-t-log"),
    pytest.param(lambda: conjugate(exp_young(1.0)), id="conjugate-exp"),
    pytest.param(lambda: conjugate(conjugate(exp_young(1.0))), id="biconjugate-exp"),
    pytest.param(lambda: youngify(QuasiConvexFn(power_log_young(2.0, 0.5, 1.0).base)),
                 id="youngify-power-log"),
    pytest.param(lambda: youngify(QuasiConvexFn(power_young(1.0).base)), id="youngify-linear"),
    pytest.param(_values_young, id="young-from-values"),
    pytest.param(_witness_young, id="witness"),
]


class TestWireFormat:
    def test_table_roundtrip_with_infinity_sentinel(self):
        from orlicalc.young import young_to_json, young_from_json
        A = linfty_young(2.0)
        obj = young_to_json(A)
        assert obj == {"class": "linfty", "threshold": 2.0}
        B = conjugate(A)  # a table-class function with finite values
        obj = young_to_json(B)
        assert obj["class"] == "table"
        C = young_from_json(obj)
        x = np.geomspace(1e-3, 1e3, 20)
        np.testing.assert_allclose(C(x), B(x), rtol=1e-9)

    def test_table_with_jump_serializes_inf(self):
        from orlicalc.young import young_to_json, young_from_json
        t = np.array([0.5, 1.0, 1.0 + 2 ** -40, 4.0])
        v = np.array([0.0, 0.0, np.inf, np.inf])
        from orlicalc.monotone import MonotoneFn, zero_on_interval_desc, infinite_beyond_desc
        base = MonotoneFn(t, v, zero_on_interval_desc(1.0), infinite_beyond_desc(1.0))
        from orlicalc.young import YoungFn
        A = YoungFn(base, base)
        obj = young_to_json(A)
        assert ["inf" in row for row in map(str, obj["grid"])].count(True) == 2
        B = young_from_json(obj)
        assert B(0.9) == 0.0 and math.isinf(B(2.0))

    def test_legacy_tables_load_numeric_only(self):
        # objects without descriptor or boundary fields keep their old
        # meaning: each end is numeric-only, which a table holds as the
        # power of its edge segment
        t = np.array([1.0, 2.0, 4.0])
        A = young_from_json({"class": "table", "grid": [[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]]})
        assert A.base.zero_desc == A.base.inf_desc == power_log_desc(1.0)
        np.testing.assert_allclose(A([0.5, 3.0, 8.0]), [1.0, 6.0, 16.0], rtol=1e-12)
        x = np.geomspace(1e-3, 1e3, 25)
        assert np.array_equal(A(x), young_from_values(t, 2.0 * t)(x))

        grid = [[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]]
        dgrid = [[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]]
        B = young_from_json({"class": "table", "grid": grid, "derivative_grid": dgrid})
        assert B.derivative.zero_desc == B.derivative.inf_desc == power_log_desc(1.0)
        old = YoungFn(MonotoneFn(t, t ** 2), MonotoneFn(t, 2.0 * t))
        assert np.array_equal(B.base(x), old.base(x))
        assert np.array_equal(B(x), old(x))
        assert B(0.5) == pytest.approx(0.25, rel=1e-12)

        # a value table given with its derivative takes the class of the
        # derivative's integral where it names none: A(x) = 2x, not the
        # flat power of the one-node value table
        C = young_from_json({"class": "table", "grid": [[1.0, 2.0]],
                             "derivative_grid": [[1.0, 2.0]]})
        assert C.base(1e-3) == pytest.approx(2e-3, rel=1e-15)
        assert C(1e-3) == 2e-3
        assert C.base.zero_desc == C.base.inf_desc == power_log_desc(1.0)
        assert dominates(power_young(1.0), C, NEAR_ZERO).status == HOLDS
        # a descriptor that is given is kept
        D = young_from_json({"class": "table", "grid": [[1.0, 2.0]], "derivative_grid":
                             [[1.0, 2.0]], "zero_desc": {"kind": "power-log", "p": 3.0}})
        assert D.base.zero_desc == power_log_desc(3.0)
        assert D.base.inf_desc == power_log_desc(1.0)

    def test_table_fields_name_descriptors_and_boundary_values(self):
        obj = young_to_json(conjugate(linfty_young(2.0)))
        assert obj["zero_desc"] == {"kind": "power-log", "p": 1.0, "alpha": 0.0}
        assert obj["value_at_zero"] == 0.0 and obj["value_at_inf"] == "inf"
        assert obj["derivative_zero_desc"] == {"kind": "limit-const", "limit": 2.0}

    @pytest.mark.parametrize("build", TABLE_CLASS_BUILDERS)
    def test_table_class_roundtrip_keeps_growth_class(self, build):
        B = build()
        obj = json.loads(json.dumps(young_to_json(B)))
        assert obj["class"] == "table"
        C = young_from_json(obj)
        x = np.geomspace(B.base.t[0] * 1e-4, B.base.t[-1] * 1e4, 120)
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_allclose(C.base(x), B.base(x), rtol=1e-12)
        np.testing.assert_allclose(C(x), B(x), rtol=1e-12)
        for regime in (NEAR_ZERO, NEAR_INFINITY):
            assert delta2(C, regime).status == delta2(B, regime).status
            assert nabla2(C, regime).status == nabla2(B, regime).status


GENERATOR_BUILDERS = TABLE_CLASS_BUILDERS + [
    pytest.param(lambda: power_young(2.0, coef=0.5), id="power"),
    pytest.param(lambda: power_log_young(1.5, -1.0, 1.0), id="power-log"),
    pytest.param(lambda: exp_young(1.0), id="exponential"),
    pytest.param(lambda: linfty_young(2.0), id="linfty"),
    pytest.param(lambda: young_from_callable(lambda t: t ** 3), id="young-from-callable"),
    pytest.param(lambda: young_from_derivative(random_step_monotone(np.random.default_rng(3))),
                 id="young-from-derivative"),
    pytest.param(lambda: young_from_json({"class": "table", "grid": [[1, 1], [2, 4], [4, 16]]}),
                 id="json-samples"),
    pytest.param(lambda: QuasiConvexFn(power_young(3.0).base), id="quasi-convex"),
    pytest.param(lambda: power_log_young(2.0, 0.5, 1.0).correlative(), id="correlative"),
]


@pytest.mark.parametrize("build", GENERATOR_BUILDERS)
def test_char_profile_is_built_once_and_vanishes_at_zero(build):
    # the correlative maps the right inverse's value at +inf, which is +inf,
    # to the value 0 at 0
    A = build()
    assert A.base.right_inverse().value_at_inf == INF
    phi = A.char_profile
    assert phi.value_at_zero == 0.0 and phi(0.0) == 0.0
    assert A.char_profile is phi
