import json
import math

import numpy as np
import pytest

from orlicalc.diagonality import construct_witness_young
from orlicalc.monotone import (
    GLOBAL,
    INF,
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
    power_log_desc,
)
from orlicalc.rearrangement import SampledFn
from orlicalc.young import (
    FAILS,
    HOLDS,
    IntegralDiverges,
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


def reference_integral_value(A, x):
    """Point-by-point integral_value in Python floats, for the table and the
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
        p = d.p if d.kind == POWER_LOG else a._edge_slope_zero()
        return ax * x / (p + 1.0)
    if x > t[-1]:
        if math.isinf(base.v[-1]) or a._i_last_fin < t.size - 1:
            return math.inf
        d = a.inf_desc
        if d.kind == POWER_LOG and d.alpha == 0.0:
            p = d.p
        elif d.kind in (NUMERIC_ONLY, LIMIT_CONST):
            p = a._edge_slope_inf() if d.kind == NUMERIC_ONLY else 0.0
        else:
            return None
        aN, tN = float(a.v[-1]), float(t[-1])
        if d.kind == LIMIT_CONST:
            aN = d.limit
        try:
            return float(base.v[-1]) + aN * tN * ((x / tN) ** (p + 1.0) - 1.0) / (p + 1.0)
        except OverflowError:
            return math.inf
    i = min(int(np.searchsorted(t, x, side="right")) - 1, max(t.size - 2, 0))
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

    def test_conjugate_of_identity_is_sup_norm_generator(self):
        A = power_young(1.0)
        At = conjugate(A)
        assert At(0.999) == pytest.approx(0.0, abs=1e-12)
        assert At(2.0) > 1e6   # jump region just above the threshold

    def test_young_inequality_on_random_functions(self):
        rng = np.random.default_rng(101)
        pts = np.geomspace(1e-3, 1e3, 50)
        for _ in range(12):
            A = random_young(rng)
            At = conjugate(A)
            tau, t = np.meshgrid(pts, pts)
            bound = A.integral_value(tau.ravel()) + At.integral_value(t.ravel())
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
            np.testing.assert_allclose(Att.integral_value(t[fin]), v[fin], rtol=1e-6)

    def test_value_of_inverse_below_argument_everywhere(self):
        # with A(0) = 0 the bound holds on the whole positive axis
        rng = np.random.default_rng(304)
        s = np.geomspace(1e-6, 1e6, 120)
        for _ in range(12):
            A = random_young(rng)
            back = A.integral_value(A.integral_inverse(s))
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
    """integral_value and integral_inverse take arrays and give arrays of the
    same shape, a float for a scalar, and +inf rather than an exception."""

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
        assert type(A.integral_value(3.0)) is float
        assert type(A.integral_inverse(9.0)) is float
        x = np.array([[0.5, 1.0], [2.0, 4.0]])
        assert A.integral_value(x).shape == (2, 2)
        assert A.integral_inverse(x).shape == (2, 2)
        np.testing.assert_allclose(A.integral_value(x), x ** 2, rtol=1e-12)

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
                    got = B.integral_value(x)
                for q, g in zip(x, got):
                    ref = reference_integral_value(B, float(q))
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
            batch = A.integral_value(x)
            assert np.array_equal(batch, [A.integral_value(q) for q in x])
            assert not np.isnan(batch).any()
            inv = A.integral_inverse(x)
            assert np.array_equal(inv, [A.integral_inverse(q) for q in x])
            assert not np.isnan(inv).any()

    def test_overflowing_tail_is_inf(self):
        # the power-tail primitive overflows beyond the grid of the double
        # conjugate of exp(t) - 1 - t
        A = conjugate(conjugate(exp_young(1.0)))
        assert A.integral_value(65000.0) == INF
        assert A.integral_value(np.array([65000.0]))[0] == INF
        assert math.isfinite(A.integral_value(float(A.derivative.t[-1])))


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
            ratio = MonotoneFn(g.t, g.v * g.t, g.zero_desc, g.inf_desc)  # A/t = g
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


class TestDominates:
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
        A = YoungFn(base, base, validate=False)
        obj = young_to_json(A)
        assert ["inf" in row for row in map(str, obj["grid"])].count(True) == 2
        B = young_from_json(obj)
        assert B(0.9) == 0.0 and math.isinf(B(2.0))

    def test_legacy_tables_load_numeric_only(self):
        # objects without descriptor or boundary fields keep their old meaning
        t = np.array([1.0, 2.0, 4.0])
        A = young_from_json({"class": "table", "grid": [[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]]})
        assert A.base.zero_desc.kind == A.base.inf_desc.kind == NUMERIC_ONLY
        np.testing.assert_allclose(A([0.5, 3.0, 8.0]), [1.0, 6.0, 16.0], rtol=1e-12)
        x = np.geomspace(1e-3, 1e3, 25)
        assert np.array_equal(A(x), young_from_values(t, 2.0 * t)(x))

        grid = [[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]]
        dgrid = [[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]]
        B = young_from_json({"class": "table", "grid": grid, "derivative_grid": dgrid})
        assert B.derivative.zero_desc.kind == B.derivative.inf_desc.kind == NUMERIC_ONLY
        old = YoungFn(MonotoneFn(t, t ** 2), MonotoneFn(t, 2.0 * t))
        assert np.array_equal(B(x), old(x))
        assert np.array_equal(B.integral_value(x), old.integral_value(x))
        assert B.integral_value(0.5) == pytest.approx(0.25, rel=1e-12)

        # a flat numeric-only table still keeps its value at zero
        C = young_from_json({"class": "table", "grid": [[1.0, 2.0]],
                             "derivative_grid": [[1.0, 2.0]]})
        assert C(1e-3) == 2.0

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
            np.testing.assert_allclose(C(x), B(x), rtol=1e-12)
        np.testing.assert_allclose(C.integral_value(x), B.integral_value(x), rtol=1e-12)
        for regime in (NEAR_ZERO, NEAR_INFINITY):
            assert delta2(C, regime).status == delta2(B, regime).status
            assert nabla2(C, regime).status == nabla2(B, regime).status
