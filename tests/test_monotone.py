import math

import numpy as np
import pytest

from orlicalc.monotone import (
    INF,
    MonotoneFn,
    _invert_desc_inf,
    _invert_desc_zero,
    cumulative_integral,
    default_grid,
    infinite_beyond_desc,
    integral_on_interval,
    limit_const_desc,
    power_log_desc,
    zero_on_interval_desc,
)
from orlicalc.young import (
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
)

from helpers import dense_taus, random_step_monotone, scan_left_inverse, scan_right_inverse


def power_table(p, coef=1.0):
    t = default_grid(-6, 6)
    return MonotoneFn(t, coef * t ** p, power_log_desc(p), power_log_desc(p))


class TestEvaluation:
    def test_power_is_exact_everywhere(self):
        fn = power_table(2.7)
        x = np.geomspace(1e-9, 1e9, 400)  # includes both tails
        np.testing.assert_allclose(fn(x), x ** 2.7, rtol=1e-11)

    def test_boundary_values(self):
        fn = power_table(2.0)
        assert fn(0.0) == 0.0
        assert fn(INF) == INF

    def test_jump_to_inf_is_left_continuous(self):
        t = default_grid(-2, 2)
        v = np.where(t <= 1.0, 0.0, INF)
        fn = MonotoneFn(t, v, zero_on_interval_desc(1.0), infinite_beyond_desc(1.0))
        assert fn(1.0) == 0.0
        assert fn(1.0000001) == INF
        assert fn.t_inf == 1.0
        assert fn.t_zero == 1.0


class TestLogTails:
    """power-log tails with a log factor stay positive and increasing on
    grids that end below 1 or start above 1."""

    def test_tail_beyond_grid_ending_below_one(self):
        fn = MonotoneFn([1e-3, 1e-2], [1.0, 2.0], power_log_desc(0.0),
                        power_log_desc(1.0, 1.0))
        vals = fn(np.array([0.1, 1.0, 10.0]))
        assert np.all(vals > 0.0) and np.all(np.diff(vals) > 0.0)
        A = young_from_derivative(fn)
        assert A.integral_value(1e300) > A.integral_value(1e-2)

    def test_tail_below_grid_starting_above_one(self):
        fn = MonotoneFn([1e2, 1e3], [1.0, 2.0], power_log_desc(1.0, 1.0),
                        power_log_desc(1.0))
        vals = fn(np.array([0.1, 1.0, 10.0]))
        assert np.all(vals > 0.0) and np.all(np.diff(vals) > 0.0)

    def test_tails_on_the_other_side_of_one_keep_their_form(self):
        fn = MonotoneFn([1e-3, 1e3], [1.0, 2.0], power_log_desc(1.0, 2.0),
                        power_log_desc(1.0, 2.0))
        x = np.array([1e-6, 1e6])
        expect = np.array([1e-3 * (math.log(1e6) / math.log(1e3)) ** 2,
                           2.0 * 1e3 * (math.log(1e6) / math.log(1e3)) ** 2])
        np.testing.assert_allclose(fn(x), expect, rtol=1e-14)


class TestRightInverse:
    def test_square(self):
        fn = power_table(2.0)
        inv = fn.right_inverse()
        x = np.geomspace(1e-8, 1e8, 300)
        np.testing.assert_allclose(inv(x), np.sqrt(x), rtol=1e-11)

    def test_degenerate_step(self):
        t = default_grid(-2, 2)
        v = np.where(t <= 1.0, 0.0, INF)
        fn = MonotoneFn(t, v, zero_on_interval_desc(1.0), infinite_beyond_desc(1.0))
        inv = fn.right_inverse()
        for s in [0.0, 1e-3, 1.0, 17.0, 1e9]:
            assert inv(s) == pytest.approx(1.0)
        assert inv(INF) == INF

    def test_random_tables_match_sup_scan(self):
        rng = np.random.default_rng(7)
        taus = dense_taus(1e-5, 1e5)
        for _ in range(25):
            fn = random_step_monotone(rng)
            inv = fn.right_inverse()
            lo, hi = fn.v[0], fn.v[-1]
            for s in np.geomspace(max(lo * 0.5, 1e-6), hi * 2.0, 17):
                expect = scan_right_inverse(fn, s, taus)
                got = inv(float(s))
                if expect >= taus[-1] * 0.999:  # scan saturated at its top edge
                    assert got >= expect * 0.999
                elif expect == 0.0 or got == 0.0:
                    assert got <= taus[0] * 1.01 or expect <= taus[0] * 1.01
                else:
                    assert got == pytest.approx(expect, rel=2e-4)

    def test_composition_bound_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            fn = random_step_monotone(rng)
            inv = fn.right_inverse()
            lhs = fn.t
            rhs = inv(fn(fn.t))
            assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_value_of_inverse_stays_below_argument(self):
        # meaningful above the function's infimum; below it the supremum of
        # an empty set is 0 and the value there is the infimum itself
        rng = np.random.default_rng(12)
        for _ in range(15):
            fn = random_step_monotone(rng)
            inv = fn.right_inverse()
            s = np.geomspace(fn.v[0] * 1.001, fn.v[-1] * 2.0, 40)
            back = fn(inv(s))
            fin = np.isfinite(back)
            assert np.all(back[fin] <= s[fin] * (1 + 1e-9))


class TestLeftInverse:
    def test_cube(self):
        fn = power_table(3.0)
        inv = fn.left_inverse()
        x = np.geomspace(1e-6, 1e6, 200)
        np.testing.assert_allclose(inv(x), x ** (1.0 / 3.0), rtol=1e-11)

    def test_constant_plateau(self):
        t = default_grid(-3, 3)
        c = 4.0
        fn = MonotoneFn(t, np.full_like(t, c))
        inv = fn.left_inverse()
        assert inv(0.0) == 0.0
        assert inv(1.0) == 0.0
        assert inv(c) == 0.0
        assert inv(c * 1.0001) == INF
        assert inv(INF) == INF

    def test_random_tables_match_inf_scan(self):
        rng = np.random.default_rng(13)
        taus = dense_taus(1e-5, 1e5)
        for _ in range(25):
            fn = random_step_monotone(rng)
            inv = fn.left_inverse()
            lo, hi = fn.v[0], fn.v[-1]
            for s in np.geomspace(max(lo * 0.6, 1e-6), hi * 0.999, 17):
                expect = scan_left_inverse(fn, s, taus)
                got = inv(float(s))
                if math.isinf(expect) or math.isinf(got):
                    assert got >= taus[-1] * 0.99 or expect >= taus[-1] * 0.99
                elif expect <= taus[0] * 1.001:  # scan saturated at its bottom edge
                    assert got <= expect * 1.001
                else:
                    assert got == pytest.approx(expect, rel=2e-4)

    def test_composition_bound_on_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            fn = random_step_monotone(rng)
            inv = fn.left_inverse()
            assert np.all(inv(fn(fn.t)) <= fn.t * (1 + 1e-9))


def list_built_inverse(fn, side):
    """Reference for the generalized inverse: runs of equal values found by
    a Python scan, and the inverse's nodes appended run by run."""
    t, v = fn.t, fn.v
    runs = []
    i = 0
    while i < v.size:
        if not (np.isfinite(v[i]) and v[i] > 0.0):
            i += 1
            continue
        j = i
        while j + 1 < v.size and v[j + 1] == v[i]:
            j += 1
        runs.append((float(v[i]), float(t[i]), float(t[j])))
        i = j + 1
    tz, t_inf = fn.t_zero, fn.t_inf
    if not runs:
        if t_inf < INF:
            c = t_inf
            return MonotoneFn(np.array([1.0]), np.array([c]), limit_const_desc(c),
                              limit_const_desc(c),
                              value_at_zero=c if side == "right" else 0.0,
                              value_at_inf=INF if side == "right" else c,
                              validate=False)
        raise ValueError("cannot invert a function with no finite positive values")
    flat_bottom = (tz == 0.0 and runs[0][1] == t[0]
                   and fn.value_at_zero == runs[0][0])
    flat_top = (t_inf == INF and runs[-1][2] == t[-1]
                and fn.value_at_inf == runs[-1][0])
    s_pts, tau_pts = [], []
    for k, (val, ta, tb) in enumerate(runs):
        lo_extended = flat_bottom and k == 0
        hi_extended = flat_top and k == len(runs) - 1
        if lo_extended and hi_extended:
            s_pts.append(val)
            tau_pts.append(INF if side == "right" else 0.0)
            continue
        if side == "right":
            if ta < tb and not lo_extended:
                s_pts.append(np.nextafter(val, 0.0))
                tau_pts.append(ta)
            if not hi_extended:
                s_pts.append(val)
                tau_pts.append(tb)
            else:
                s_pts.append(np.nextafter(val, 0.0))
                tau_pts.append(ta)
        else:
            if not lo_extended:
                s_pts.append(val)
                tau_pts.append(ta)
            if ta < tb and not hi_extended:
                s_pts.append(np.nextafter(val, INF))
                tau_pts.append(tb)
            elif lo_extended:
                s_pts.append(np.nextafter(val, INF))
                tau_pts.append(tb)
    s_pts = np.asarray(s_pts)
    tau_pts = np.asarray(tau_pts)
    keep = np.concatenate(([True], s_pts[1:] > s_pts[:-1]))
    s_pts, tau_pts = s_pts[keep], tau_pts[keep]
    if flat_bottom:
        c = runs[0][0]
        zero_desc = zero_on_interval_desc(np.nextafter(c, 0.0) if side == "right" else c)
        value_at_zero = 0.0
    elif tz > 0.0:
        zero_desc = limit_const_desc(tz)
        value_at_zero = tz if side == "right" else 0.0
    else:
        zero_desc = _invert_desc_zero(fn)
        value_at_zero = 0.0
    if flat_top:
        V = runs[-1][0]
        inf_desc = infinite_beyond_desc(np.nextafter(V, 0.0) if side == "right" else V)
        value_at_inf = INF
    elif t_inf < INF:
        inf_desc = limit_const_desc(t_inf)
        value_at_inf = INF if side == "right" else t_inf
    else:
        inf_desc = _invert_desc_inf(fn)
        value_at_inf = INF
    return MonotoneFn(s_pts, tau_pts, zero_desc=zero_desc, inf_desc=inf_desc,
                      value_at_zero=value_at_zero, value_at_inf=value_at_inf,
                      validate=False)


def ulp_paired_steps():
    """Plateaus stored on ulp-paired nodes, ending in a jump to +inf."""
    t = np.array([1.0, np.nextafter(2.0, 0.0), 2.0, 4.0, 4.0 * (1 + 2 ** -40)])
    v = np.array([1.0, 1.0, 3.0, 3.0, INF])
    return MonotoneFn(t, v, limit_const_desc(1.0), infinite_beyond_desc(4.0),
                      validate=False)


DEGENERATE_TABLES = {
    "single-point": lambda: MonotoneFn([1.0], [2.0]),
    "single-point-power": lambda: MonotoneFn([1.0], [2.0], power_log_desc(1.0),
                                             power_log_desc(2.0)),
    "plateau-bottom": lambda: MonotoneFn([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 3.0]),
    "plateau-top": lambda: MonotoneFn([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 3.0]),
    "plateau-both": lambda: MonotoneFn([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0]),
    "plateau-inside": lambda: MonotoneFn([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 3.0],
                                         power_log_desc(1.0), power_log_desc(1.0)),
    "constant": lambda: MonotoneFn([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]),
    "limit-bottom": lambda: MonotoneFn([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                       limit_const_desc(1.0), power_log_desc(1.0)),
    "limit-top": lambda: MonotoneFn([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                    power_log_desc(1.0), limit_const_desc(3.0)),
    "zero-head": lambda: MonotoneFn([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 2.0],
                                    zero_on_interval_desc(2.0), power_log_desc(1.0)),
    "jump-to-inf": lambda: MonotoneFn([1.0, 2.0, np.nextafter(2.0, 3.0), 3.0],
                                      [1.0, 2.0, INF, INF]),
    "ulp-paired-jumps": ulp_paired_steps,
    "zero-then-inf": lambda: linfty_young().derivative,
    "no-positive-values": lambda: MonotoneFn([1.0, 2.0], [0.0, 0.0]),
    "power": lambda: power_young(2.0).base,
    "power-log": lambda: power_log_young(2.0, 0.5, 1.0).derivative,
    "exp": lambda: exp_young(1.0).base,
    "exp-correlative": lambda: exp_young(1.0).base.correlative(),
}


def same_table(got, expect):
    assert np.array_equal(got.t, expect.t) and np.array_equal(got.v, expect.v)
    assert got.zero_desc == expect.zero_desc and got.inf_desc == expect.inf_desc
    assert got.value_at_zero == expect.value_at_zero
    assert got.value_at_inf == expect.value_at_inf


class TestInverseReference:
    """The array inverse equals the list-built one bit for bit."""

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
    def test_degenerate_tables(self, name, side):
        fn = DEGENERATE_TABLES[name]()
        invert = fn.right_inverse if side == "right" else fn.left_inverse
        try:
            expect = list_built_inverse(fn, side)
        except ValueError:
            with pytest.raises(ValueError):
                invert()
            return
        same_table(invert(), expect)

    def test_random_step_tables(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            fn = random_step_monotone(rng)
            same_table(fn.right_inverse(), list_built_inverse(fn, "right"))
            same_table(fn.left_inverse(), list_built_inverse(fn, "left"))


class TestCorrelative:
    def test_power_fixed_point(self):
        fn = power_table(1.7)
        cor = fn.correlative()
        x = np.geomspace(1e-6, 1e6, 100)
        np.testing.assert_allclose(cor(x), x ** 1.7, rtol=1e-11)

    def test_exp_substitution(self):
        t = default_grid(-4, 2)
        fn = MonotoneFn(t, np.expm1(t))
        cor = fn.correlative()
        # exact on the transformed grid
        np.testing.assert_allclose(cor(cor.t), 1.0 / np.expm1(1.0 / cor.t), rtol=1e-12)
        # interpolated where the function is not double-exponentially steep
        x = np.geomspace(0.5, 1e4, 60)
        np.testing.assert_allclose(cor(x), 1.0 / np.expm1(1.0 / x), rtol=1e-3)

    def test_involution_exact_on_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            fn = random_step_monotone(rng)
            back = fn.correlative().correlative()
            np.testing.assert_allclose(back.t, fn.t, rtol=1e-14)
            np.testing.assert_allclose(back.v, fn.v, rtol=1e-14)


class TestIntegration:
    def test_cumulative_power(self):
        p = 3.0
        t = default_grid(-6, 6)
        deriv = MonotoneFn(t, p * t ** (p - 1.0), power_log_desc(p - 1.0), power_log_desc(p - 1.0))
        integ = cumulative_integral(deriv)
        x = np.geomspace(1e-6, 1e6, 80)
        np.testing.assert_allclose(integ(x), x ** p, rtol=1e-11)

    def test_weighted_interval_integral(self):
        fn = power_table(2.0)
        # integral of t^2 * t^-3 = log(hi/lo)
        got = integral_on_interval(fn, 0.5, 8.0, weight_exp=-3.0)
        assert got == pytest.approx(math.log(16.0), rel=1e-10)

    def test_divergent_head_is_inf(self):
        fn = power_table(1.0)
        integ = cumulative_integral(fn, weight_exp=-2.0)
        assert np.isinf(integ(1.0))
