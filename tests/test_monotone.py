import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orlicalc.monotone import (
    INF,
    LIMIT_CONST,
    NUMERIC_DESC,
    MonotoneFn,
    _integral_off_grid,
    _invert_desc,
    _power_segment_integral,
    cumulative_integral,
    default_grid,
    exp_reciprocal_desc,
    exponential_desc,
    infinite_beyond_desc,
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

    @pytest.mark.parametrize("fn", [
        linfty_young(2.0).base,
        MonotoneFn([1.0, 2.0, 3.0], [1.0, 2.0, INF]),
        MonotoneFn([2.0], [3.0]),
        power_table(2.0),
        exp_young(1.0).base,
    ])
    def test_nan_gives_nan_and_negatives_the_value_at_zero(self, fn):
        # the RuntimeWarning filters of the suite turn any warning into an error
        x = np.array([[np.nan, -1.0], [-INF, -5e-324]])
        out = fn(x)
        assert out.shape == (2, 2)
        assert math.isnan(out[0, 0]) and math.isnan(fn(np.nan))
        assert np.all(out.ravel()[1:] == fn.value_at_zero)
        assert fn(-1.0) == fn(-INF) == fn.value_at_zero

    @pytest.mark.parametrize("t, v", [
        ([1.0, 1e10], [1e-200, 1e200]),          # the value ratio overflows
        ([1e-200, 1e200], [1.0, 4.0]),           # the abscissa ratio overflows
        ([1e-300, 1e300], [2.0, 2.0]),           # flat over 600 decades
        ([1.0, 1e10, 1e20], [1e-300, 1e-10, 1e300]),
    ])
    def test_overflowing_segments_against_mpmath(self, t, v):
        # inside a segment F is vl (x / tl)**s with s the log-log slope; the
        # table takes it from logs where a ratio or vl e**y leaves the floats
        fn = MonotoneFn(t, v)
        x = np.geomspace(t[0], t[-1], 97)
        with mp.workdps(40):
            want = []
            for xi in x.tolist():
                i = min(int(np.searchsorted(t, xi, side="right")) - 1, len(t) - 2)
                tl, tr, vl, vr = (mp.mpf(t[i]), mp.mpf(t[i + 1]),
                                  mp.mpf(v[i]), mp.mpf(v[i + 1]))
                s = mp.log(vr / vl) / mp.log(tr / tl)
                want.append(float(vl * (mp.mpf(xi) / tl) ** s))
        np.testing.assert_allclose(fn(x), want, rtol=1e-12)

    def test_tail_below_a_subnormal_quotient(self):
        # x / t[0] underflows to 0: the power comes from log x - log t[0]
        assert MonotoneFn([2.0], [3.0])(5e-324) == 3.0
        fn = MonotoneFn([2.0], [3.0], power_log_desc(0.01))
        expect = 3.0 * math.exp(0.01 * (math.log(5e-324) - math.log(2.0)))
        assert fn(5e-324) == pytest.approx(expect, rel=1e-14)
        assert fn(5e-324) > 0.0

    def test_tail_above_an_overflowing_quotient(self):
        # x / t[-1] overflows: the power comes from log x - log t[-1]
        assert MonotoneFn([1e-8], [3.0])(1e308) == 3.0
        fn = MonotoneFn([1e-8, 1e-7], [3.0, 4.0], power_log_desc(1.0),
                        power_log_desc(0.01, 1.0))
        log_q = math.log(1e308) - math.log(1e-7)
        expect = 4.0 * math.exp(0.01 * log_q) * (1.0 + log_q)
        assert fn(1e308) == pytest.approx(expect, rel=1e-14)


class TestLogTails:
    """power-log tails with a log factor stay positive and increasing on
    grids that end below 1 or start above 1."""

    def test_tail_beyond_grid_ending_below_one(self):
        fn = MonotoneFn([1e-3, 1e-2], [1.0, 2.0], power_log_desc(0.0),
                        power_log_desc(1.0, 1.0))
        vals = fn(np.array([0.1, 1.0, 10.0]))
        assert np.all(vals > 0.0) and np.all(np.diff(vals) > 0.0)
        A = young_from_derivative(fn)
        assert A(1e300) > A(1e-2)

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


def test_power_tails_keep_their_digits_past_the_float_range():
    # va (x / ta)**p with (x / ta)**p subnormal below the grid (2.9e-9 off
    # when va multiplied it), or overflowing above it under a small va
    p, ta, va = 2.561424241758843, 1835.6832409454846, 1.2059752343155526e19
    fn = MonotoneFn([ta, 2.0 * ta], [va, va * 2.0 ** p], power_log_desc(p), power_log_desc(p))
    x = 1.4223366056567873e-120
    small = MonotoneFn([1.0, 2.0], [1e-300, 4e-300], power_log_desc(2.0), power_log_desc(2.0))
    with mp.workdps(40):
        want = mp.mpf(va) * (mp.mpf(x) / mp.mpf(ta)) ** mp.mpf(p)
        assert abs(fn(x) / want - 1) <= 1e-13
        want = mp.mpf(1e-300) * mp.mpf(1e160) ** 2
        assert abs(small(1e160) / want - 1) <= 1e-13


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
        zero_desc = _invert_desc(fn.zero_desc)
        value_at_zero = 0.0
    if flat_top:
        V = runs[-1][0]
        inf_desc = infinite_beyond_desc(np.nextafter(V, 0.0) if side == "right" else V)
        value_at_inf = INF
    elif t_inf < INF:
        inf_desc = limit_const_desc(t_inf)
        value_at_inf = INF if side == "right" else t_inf
    else:
        inf_desc = _invert_desc(fn.inf_desc)
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

    def test_each_side_is_built_once_and_shared(self):
        # a table is immutable, so the inverse of each side is stored on it:
        # the second call returns the first call's table, still equal to the
        # list-built one, and the two sides stay apart
        rng = np.random.default_rng(31)
        for _ in range(10):
            fn = random_step_monotone(rng)
            right, left = fn.right_inverse(), fn.left_inverse()
            assert fn.right_inverse() is right and fn.left_inverse() is left
            assert right is not left
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

    def test_divergent_head_is_inf(self):
        fn = power_table(1.0)
        integ = cumulative_integral(fn, weight_exp=-2.0)
        assert np.isinf(integ(1.0))

    def test_convergent_integral_tends_to_its_total(self):
        # the integral of t**p t**-2 past the grid converges for p < 1 and
        # for a constant; its table is bounded, by the integral over (0, inf)
        for inf_desc, p in [(power_log_desc(0.5), 0.5), (limit_const_desc(1.0), 0.0),
                            (NUMERIC_DESC, 0.5)]:
            t = np.array([1.0, 2.0, 4.0])
            fn = MonotoneFn(t, t ** p, zero_on_interval_desc(1.0), inf_desc)
            integ = cumulative_integral(fn, weight_exp=-2.0)
            total = 1.0 / (1.0 - p)
            assert integ.inf_desc.kind == LIMIT_CONST
            assert integ.inf_desc.limit == pytest.approx(total, rel=1e-12)
            assert integ(INF) == integ.value_at_inf == integ.inf_desc.limit
            assert integ(1e10) <= integ.value_at_inf

    def test_ramp_segment_against_closed_form(self):
        # a zero-left segment integrates its linear ramp c (t - a) against t**w:
        # c [t**(w+2)/(w+2) - a t**(w+1)/(w+1)] from a to b, logs at w = -2, -1
        a, b, vr = 0.3, 0.7, 2.0
        c = vr / (b - a)
        for w in [-4.33, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 1.0]:
            def prim(t):
                one = math.log(t) if w == -2.0 else t ** (w + 2.0) / (w + 2.0)
                two = math.log(t) if w == -1.0 else t ** (w + 1.0) / (w + 1.0)
                return one - a * two
            got = _power_segment_integral([0.0], [vr], [a], [b], w)[0]
            assert got == pytest.approx(c * (prim(b) - prim(a)), rel=1e-14), w

    def test_ramp_segment_overflow_is_inf_not_nan(self):
        # both primitives overflow here; their difference was inf - inf = nan
        got = _power_segment_integral([0.0], [1.0], [1e-200], [2e-200], -4.33)
        assert got.tolist() == [INF]

    def test_segments_whose_ratios_leave_the_floats(self):
        # vr / vl = 1e400 gave the slope inf and the integral NaN; the
        # slope now comes from logs and the rising integrand from its right
        # end.  The references are 40-digit closed forms
        fn = MonotoneFn([1.0, 2.0], [1e-200, 1e200], power_log_desc(0.0), power_log_desc(0.0))
        assert cumulative_integral(fn).v[1] == pytest.approx(1.50401809192068e197, rel=1e-13)
        with mp.workdps(40):
            def closed(vl, vr, a, b, w):
                vl, vr, a, b = (mp.mpf(x) for x in (vl, vr, a, b))
                s = mp.log(vr / vl) / mp.log(b / a)
                k = s + w + 1
                return float(vl * a ** -s * (b ** k - a ** k) / k)

            # tr / tl = 1e400, a subnormal left value, and a falling one
            for case in [(1.0, 2.0, 1e-200, 1e200, 0.0), (5e-320, 1e-300, 1.0, 1e10, -0.5),
                         (1e-310, 1.0, 1.0, 4.0, -2.0), (1e300, 1e-10, 1.0, 1e10, -0.5)]:
                got = _power_segment_integral(*([x] for x in case[:4]), case[4])[0]
                assert got == pytest.approx(closed(*case), rel=1e-12), case
        # segments whose ratios are floats keep their floats bit for bit
        vl, vr = np.array([1.0, 3.0, 0.5]), np.array([2.0, 30.0, 0.5])
        a, b = np.array([1.0, 2.0, 5.0]), np.array([2.0, 9.0, 6.0])
        for w in (0.0, -2.5):
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(vr == vl, 0.0, np.log(vr / vl) / np.log(b / a))
            e = s + w + 1.0
            want = vl * a ** (w + 1.0) * (np.exp(e * np.log(b / a)) - 1.0) / e
            assert np.array_equal(_power_segment_integral(vl, vr, a, b, w), want)


ZERO_KINDS = ("power-log", "log-critical", "numeric-only", "limit-const",
              "exp-reciprocal", "zero-on-interval", "zero-first-node")
INF_KINDS = ("power-log", "log-critical", "numeric-only", "limit-const",
             "infinite-beyond", "exponential", "inf-block", "zero-last-node")


@st.composite
def off_grid_ends(draw):
    """(kind, zero_side, w, anchor, va, p, alpha, gamma, x) for the integral
    off a two-node table: anchors from 1e-8 to 1e8, on both sides of 1
    (exp-reciprocal ones no lower than 100**(-1 / gamma)),
    p and alpha in [-3, 3] (alpha < -1 at e = p + w + 1 = 0, the
    log-critical kind), and x up to 300 decades off the grid, short of
    where F(x), the integral or x leaves the normal range."""
    zero = draw(st.booleans())
    kind = draw(st.sampled_from(ZERO_KINDS if zero else INF_KINDS))
    w = draw(st.sampled_from([0.0, -2.0, -1.5, 0.5]))
    a, va = 10.0 ** draw(st.floats(-8.0, 8.0)), 10.0 ** draw(st.floats(-20.0, 20.0))
    p, alpha, gamma = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), 0.0
    if kind == "log-critical":
        p, alpha = -(w + 1.0), draw(st.floats(-3.0, -1.01))
    elif kind == "numeric-only":
        p, alpha = draw(st.floats(0.05, 3.0)), 0.0
    elif kind == "limit-const":
        p, alpha = 0.0, 0.0
    frac = draw(st.floats(0.0, 1.0))
    if kind == "exp-reciprocal":
        # F(x) = va exp(a**-gamma - x**-gamma), with a**-gamma at most 100,
        # as the table's own F(x) rounds at that scale, and x**-gamma up to
        # 600 over it
        gamma = draw(st.floats(0.2, 3.0))
        a = max(a, 100.0 ** (-1.0 / gamma))
        lowest = (a ** -gamma + 600.0) ** (-1.0 / gamma)
        return kind, zero, w, a, va, p, alpha, gamma, min(a, a * (lowest / a) ** frac)
    side, la, lv = (-1.0 if zero else 1.0), math.log10(a), math.log10(va)
    bounds = [300.0, 300.0 - side * la]
    for slope, level in ((p * side, lv), ((p + w + 1.0) * side, lv + (w + 1.0) * la)):
        if slope != 0.0:
            bounds.append((290.0 - math.copysign(level, slope)) / abs(slope))
    return kind, zero, w, a, va, p, alpha, gamma, a * 10.0 ** (side * frac * max(0.0, min(bounds)))


def off_grid_table(kind, zero, a, va, p, alpha, gamma):
    """The two-node table whose extrapolation at one end is the drawn form."""
    t = np.array([a, 10.0 * a] if zero else [0.1 * a, a])
    v = np.array([va, va * 10.0 ** p] if zero else [va * 10.0 ** -p, va])
    desc = {"numeric-only": NUMERIC_DESC, "limit-const": limit_const_desc(va),
            "exp-reciprocal": exp_reciprocal_desc(gamma),
            "zero-on-interval": zero_on_interval_desc(0.5 * a),
            "infinite-beyond": infinite_beyond_desc(2.0 * a),
            "exponential": exponential_desc(1.0)}.get(kind, power_log_desc(p, alpha))
    if kind == "zero-first-node":
        v[0] = 0.0
    elif kind == "zero-last-node":
        v[:] = 0.0
    elif kind == "inf-block":
        v[1] = INF
    elif kind == "limit-const":
        v[:] = va
    return MonotoneFn(t, v, desc, desc, validate=False)


def exact_off_grid(kind, zero, a, va, p, alpha, gamma, w, x):
    """F(x) and the integral of F(t) t**w over (0, x) (zero) or (x, inf)
    at 40 digits, for F = va exp(a**-gamma - t**-gamma) or
    va (t / a)**p l**alpha, l = log t / log a or 1 -+ log(t / a)."""
    with mp.workdps(40):
        a, va, x = mp.mpf(a), mp.mpf(va), mp.mpf(x)
        if kind == "exp-reciprocal":
            u = x ** -gamma
            F = va * mp.exp(a ** -gamma - u)
            return F, F / gamma * mp.exp(u) * mp.gammainc(-(w + 1) / gamma, u)
        if (a < 1) if zero else (a > 1):
            sigma = 1 / mp.log(a)
        else:
            sigma = mp.mpf(-1 if zero else 1)
        l, k, e = 1 + sigma * mp.log(x / a), abs(sigma), mp.mpf(p) + w + 1
        F = va * (x / a) ** p * l ** alpha
        if e == 0:
            return F, va * a ** (w + 1) * l ** (alpha + 1) / (k * (-alpha - 1))
        return F, (va * a ** (w + 1) / k * mp.exp(abs(e) / k) * (k / abs(e)) ** (alpha + 1)
                   * mp.gammainc(alpha + 1, abs(e) * l / k))


class TestIntegralOffGrid:
    """The integral of a table's extrapolation over (0, x) below its grid or
    (x, inf) above it, against 40-digit mpmath."""

    @settings(max_examples=300, deadline=None)
    @given(off_grid_ends())
    @example(("log-critical", True, -2.0, 1e-8, 1.0, 1.0, -2.5, 0.0, 1e-200))
    @example(("log-critical", False, -1.5, 1e8, 1.0, 0.5, -1.5, 0.0, 1e250))
    @example(("power-log", True, 0.0, 1e-8, 1.0, 1.0, 1.0, 0.0, 1e-150))
    @example(("power-log", False, -1.0 / 0.39 - 1.0, 1e8, 1e20, 2.5, 1.0, 0.0, 1e8))
    @example(("power-log", True, 0.0, 3.0, 1e10, 2.5, 3.0, 0.0, 2.0))
    @example(("power-log", True, 0.5, 1835.68, 1.2e19, 2.56, 0.0, 0.0, 1.42e-120))
    def test_matches_mpmath(self, case):
        kind, zero, w, a, va, p, alpha, gamma, x = case
        fn = off_grid_table(kind, zero, a, va, p, alpha, gamma)
        got = float(_integral_off_grid(fn, np.array([x]), w, zero)[0])
        if kind in ("zero-on-interval", "zero-first-node", "zero-last-node"):
            assert got == 0.0
            return
        if kind in ("infinite-beyond", "exponential", "inf-block"):
            assert got == INF
            return
        if kind == "numeric-only":
            p = fn._edge_slope(zero)
        e = p + (w + 1.0)
        if kind != "exp-reciprocal" and not ((e > 0.0 if zero else e < 0.0)
                                             or (e == 0.0 and alpha < -1.0)):
            assert got == INF
            return
        F, want = exact_off_grid(kind, zero, a, va, p, alpha, gamma, w, x)
        assume(2.3e-308 < F < 1.7e308 and 1e-300 < want < 1e300)
        # where the kernel reads F(x) from the table (no log factor on the
        # zero side, and exp-reciprocal), it carries the table's rounding of
        # F(x) too: va exp(p log(x / a)) is good to about |p log(x / a)| ulp
        inherited = 0.0
        if kind == "exp-reciprocal" or (zero and alpha == 0.0):
            inherited = float(abs(mp.mpf(float(fn(x))) - F) / F)
        assert abs(got - want) <= (1e-13 + inherited) * want, (got, float(want))
        if zero:
            with pytest.raises(ValueError):
                _integral_off_grid(fn, np.array([x]), w, zero, per_x=True)
            return
        # per_x: the same integral over y = t / x, in range where it is
        with mp.workdps(40):
            want = want / mp.mpf(x) ** (w + 1.0)
        got = float(_integral_off_grid(fn, np.array([x]), w, zero, per_x=True)[0])
        if 1e-300 < want < 1e300:
            assert abs(got - want) <= (1e-13 + inherited) * want, (got, float(want))

