import math

import numpy as np
import pytest

from orlicalc.monotone import INF
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    characteristic,
    classical_lorentz_norm,
    distribution,
    hardy_littlewood_pairing,
    lambda_norm,
    lorentz_power_norm,
    luxemburg_norm,
    least_admissible_scale,
    marcinkiewicz_norm,
    maximal,
    modular,
    pairing,
    rearrange,
)
from orlicalc.monotone import MonotoneFn
from orlicalc.rearrangement import _char_profile, _golden_section_max
from orlicalc.young import (
    QuasiConvexFn,
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
    youngify,
)


def random_sampled(rng, n_max=12, vmax=10.0):
    n = int(rng.integers(1, n_max + 1))
    vals = rng.uniform(0.01, vmax, size=n)
    widths = 10.0 ** rng.uniform(-2, 1.5, size=n)
    return SampledFn(list(zip(vals, widths)))


def layout_sum(f, g):
    """|f| + |g| with both laid out from the origin in the order given."""
    fb = np.concatenate(([0.0], np.cumsum([w for _, w in f.pieces])))
    gb = np.concatenate(([0.0], np.cumsum([w for _, w in g.pieces])))
    edges = np.unique(np.concatenate((fb, gb)))
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        fv = next((v for v, a, b in _runs(f) if a <= mid < b), 0.0)
        gv = next((v for v, a, b in _runs(g) if a <= mid < b), 0.0)
        if fv + gv > 0:
            pieces.append((fv + gv, hi - lo))
    return SampledFn(pieces)


def _runs(f):
    pos = 0.0
    for v, w in f.pieces:
        yield v, pos, pos + w
        pos += w


class TestDistribution:
    def test_single_block(self):
        f = SampledFn([(3.0, 2.0)])
        d = distribution(f)
        assert d(0.0) == 2.0
        assert d(2.9) == 2.0
        assert d(3.0) == 0.0
        assert d(100.0) == 0.0

    def test_zero_function(self):
        d = distribution(SampledFn([]))
        assert d(0.0) == 0.0 and d(1.0) == 0.0

    def test_two_steps(self):
        f = SampledFn([(5.0, 1.0), (2.0, 4.0)])
        d = distribution(f)
        assert d(1.0) == 5.0
        assert d(2.0) == 1.0
        assert d(4.99) == 1.0
        assert d(5.0) == 0.0

    def test_rearrangement_preserves_distribution(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = random_sampled(rng)
            g = rearrange(f).as_sampled()
            d1, d2 = distribution(f), distribution(g)
            lam = np.linspace(0.0, 11.0, 57)
            np.testing.assert_allclose(d1(lam), d2(lam), rtol=0, atol=0)


class TestRearrange:
    def test_sorted_unchanged(self):
        f = SampledFn([(5.0, 1.0), (2.0, 3.0)])
        star = rearrange(f)
        assert list(star.values) == [5.0, 2.0]
        assert list(star.widths) == [1.0, 3.0]

    def test_permuted_sorted(self):
        f = SampledFn([(2.0, 3.0), (5.0, 1.0)])
        star = rearrange(f)
        assert list(star.values) == [5.0, 2.0]

    def test_sorting_oracle_on_large_random(self):
        rng = np.random.default_rng(37)
        f = random_sampled(rng, n_max=100)
        star = rearrange(f)
        order = np.argsort([-v for v, _ in f.pieces])
        expect_vals = [f.pieces[i][0] for i in order]
        got = np.repeat(star.values, 1)
        assert sorted(set(expect_vals), reverse=True) == list(got)


class TestMaximal:
    def test_indicator(self):
        avg = maximal(characteristic(1.0))
        assert avg(0.5) == pytest.approx(1.0)
        assert avg(1.0) == pytest.approx(1.0)
        assert avg(4.0) == pytest.approx(0.25)

    def test_zero(self):
        avg = maximal(SampledFn([]))
        assert avg(1.0) == 0.0

    def test_exact_integration_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            f = random_sampled(rng)
            star = rearrange(f)
            avg = maximal(f)
            for t in np.geomspace(star.support * 1e-3, star.support * 3.0, 23):
                # oracle: integrate the step rearrangement directly
                ds = np.minimum(star.breaks[1:], t) - np.minimum(star.breaks[:-1], t)
                expect = float(np.sum(star.values * np.clip(ds, 0.0, None))) / t
                assert avg(float(t)) == pytest.approx(expect, rel=1e-12)

    def test_dominates_rearrangement(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = random_sampled(rng)
            star, avg = rearrange(f), maximal(f)
            s = np.geomspace(1e-3, star.support, 40)
            assert np.all(avg(s) >= star(s) * (1 - 1e-12))

    def test_subadditive_at_breakpoints(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            f, g = random_sampled(rng), random_sampled(rng)
            s = layout_sum(f, g)
            af, ag, asum = maximal(f), maximal(g), maximal(s)
            pts = np.unique(np.concatenate(
                [rearrange(x).breaks[1:] for x in (f, g, s)]))
            assert np.all(asum(pts) <= af(pts) + ag(pts) + 1e-12)

    def test_array_call_equals_pointwise_value(self):
        rng = np.random.default_rng(59)
        fns = [SampledFn([]), characteristic(2.0),
               SampledFn([(1.0, 1.0)], tail=PowerTail(1.0, 1.5, 0.5))]
        for _ in range(12):
            f = random_sampled(rng, n_max=30)
            if rng.random() < 0.5:
                f = SampledFn(f.pieces, tail=PowerTail(20.0, rng.uniform(0.1, 0.9),
                                                       rng.uniform(0.01, 1.0)))
            fns.append(f)
        for f in fns:
            avg = maximal(f)
            edges = np.array([p.lo for p in avg.pieces] + [p.hi for p in avg.pieces])
            t = np.concatenate((edges, np.nextafter(edges, 0.0), [0.0, -1.0, np.nan, INF],
                                np.geomspace(1e-9, max(avg.support, 1.0) * 1e3, 97)))
            got = avg(t)
            want = np.array([avg._value(float(x)) for x in t])
            # the power piece of a tail uses numpy's power, which may be an ulp
            # off the C library's; every other piece is bit for bit
            power = np.array([any(p.kind == "power" and p.lo <= x < p.hi
                                  for p in avg.pieces) for x in t])
            assert np.array_equal(got[~power], want[~power], equal_nan=True)
            np.testing.assert_allclose(got[power], want[power], rtol=4e-16)
            assert isinstance(avg(0.5), float) and avg(0.5) == avg._value(0.5)
            assert avg(t[:96].reshape(2, 48)).shape == (2, 48)


class TestModular:
    def test_square_block(self):
        A = power_young(2.0)
        assert modular(SampledFn([(2.0, 3.0)]), A) == pytest.approx(12.0)

    def test_zero(self):
        assert modular(SampledFn([]), power_young(2.0)) == 0.0

    def test_equals_left_to_right_sum(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            f = random_sampled(rng, n_max=40)
            A = power_young(float(rng.uniform(1.0, 4.0)))
            scale = float(rng.uniform(0.1, 2.0))
            expect = 0.0
            for v, w in f.pieces:
                expect += A.integral_value(scale * v) * w
            assert modular(f, A, scale) == expect

    def test_layer_cake_oracle(self):
        # modular equals the integral of a(lambda) * distribution(lambda)
        rng = np.random.default_rng(53)
        for _ in range(10):
            f = random_sampled(rng)
            A = power_young(float(rng.uniform(1.0, 4.0)))
            d = distribution(f)
            knots = np.concatenate(([0.0], np.sort(d.knots())))
            expect = 0.0
            for lo, hi in zip(knots[:-1], knots[1:]):
                expect += d((lo + hi) / 2.0) * (A.integral_value(hi) - A.integral_value(lo))
            assert modular(f, A) == pytest.approx(expect, rel=1e-10)


class TestLuxemburg:
    def test_characteristic_power(self):
        for p in [1.0, 1.5, 2.0, 5.0]:
            A = power_young(p)
            for s in [1e-4, 0.1, 1.0, 7.0, 100.0]:
                assert luxemburg_norm(characteristic(s), A) == pytest.approx(
                    s ** (1.0 / p), rel=1e-9)

    def test_zero(self):
        assert luxemburg_norm(SampledFn([]), power_young(2.0)) == 0.0

    def test_l2_closed_form(self):
        rng = np.random.default_rng(59)
        A = power_young(2.0)
        for _ in range(10):
            f = random_sampled(rng)
            expect = math.sqrt(sum(v * v * w for v, w in f.pieces))
            assert luxemburg_norm(f, A) == pytest.approx(expect, rel=1e-9)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(61)
        A = power_young(3.0)
        f = random_sampled(rng)
        n1 = luxemburg_norm(f, A)
        n2 = luxemburg_norm(f.scale(7.0), A)
        assert n2 == pytest.approx(7.0 * n1, rel=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(67)
        A = power_young(1.7)
        for _ in range(12):
            f, g = random_sampled(rng), random_sampled(rng)
            s = layout_sum(f, g)
            assert luxemburg_norm(s, A) <= (
                luxemburg_norm(f, A) + luxemburg_norm(g, A)) * (1 + 1e-9)

    def test_power_tail(self):
        # pure power tail: the p-norm has a closed form
        tail = PowerTail(coef=2.0, expo=0.25, width=1.0)
        f = SampledFn([], tail=tail)
        p = 2.0
        expect = (4.0 / (1.0 - 0.5)) ** 0.5  # (int c^2 s^-2e)^{1/2}
        assert luxemburg_norm(f, power_young(p)) == pytest.approx(expect, rel=1e-9)


class TestScaleSearch:
    def test_bracket_then_bisect(self):
        for answer in (3.7e-5, 0.25, 1.0, 42.0, 9e7):
            for start in (1.0, 1e3):
                got = least_admissible_scale(lambda lam: lam >= answer, start, 1e-10)
                assert answer <= got <= answer * (1 + 1e-10)

    def test_no_bracket(self):
        assert least_admissible_scale(lambda lam: True, 1.0, 1e-10) == 0.0
        assert least_admissible_scale(lambda lam: False, 1.0, 1e-10) == INF


    def test_far_bracket_squares_the_step(self):
        calls = []

        def never(lam):
            calls.append(lam)
            return False

        assert least_admissible_scale(never, 1.0, 1e-10) == INF
        # plain doubling up to start * 2**64, then a squared step per call
        assert calls[:66] == [2.0 ** k for k in range(66)]
        assert len(calls) < 80 and len(set(calls)) == len(calls)
        for answer, start in ((1e25, 1.0), (1e200, 1.0), (1e-200, 1e-150)):
            got = least_admissible_scale(lambda lam: lam >= answer, start, 1e-10)
            assert answer <= got <= answer * (1 + 1e-10)

class TestLambdaAndMarcinkiewicz:
    def test_characteristic_power_all_three(self):
        for p in [1.0, 2.0, 3.0]:
            A = power_young(p)
            for s in [0.01, 1.0, 50.0]:
                f = characteristic(s)
                expect = s ** (1.0 / p)
                assert lambda_norm(f, A) == pytest.approx(expect, rel=1e-9)
                assert marcinkiewicz_norm(f, A) == pytest.approx(expect, rel=1e-9)
                assert luxemburg_norm(f, A) == pytest.approx(expect, rel=1e-9)

    def test_zero(self):
        A = power_young(2.0)
        assert lambda_norm(SampledFn([]), A) == 0.0
        assert marcinkiewicz_norm(SampledFn([]), A) == 0.0

    def test_lambda_quadrature_oracle(self):
        rng = np.random.default_rng(71)
        A = power_young(2.0)
        phi = A.base.right_inverse().correlative()
        d_lam = 1e-4
        for _ in range(6):
            f = random_sampled(rng, n_max=5)
            d = distribution(f)
            lam = np.arange(d_lam / 2, 11.0, d_lam)
            expect = float(np.sum(phi(d(lam))) * d_lam)
            assert lambda_norm(f, A) == pytest.approx(expect, rel=1e-3)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(73)
        A = power_young(2.5)
        for _ in range(12):
            f = random_sampled(rng)
            m = marcinkiewicz_norm(f, A)
            l = luxemburg_norm(f, A)
            lam = lambda_norm(f, A)
            assert m <= l * (1 + 1e-9)
            assert l <= lam * (1 + 1e-9)


def loop_marcinkiewicz(f, A, tol=1e-12):
    """Reference for marcinkiewicz_norm: one piece at a time, with scalar
    calls for the grid samples and the golden-section steps."""
    if f.is_zero:
        return 0.0
    phi = _char_profile(A)
    avg = maximal(f)

    def h(t):
        return phi(t) * avg._value(t)

    if not np.isfinite(avg.total):
        return INF
    best = 0.0
    pieces = [(p.lo, p.hi) for p in avg.pieces]
    if avg.support > 0:
        pieces.append((avg.support, avg.support * 1e8))
    for p_lo, p_hi in pieces:
        lo = p_lo if p_lo > 0 else min(p_hi, avg.support) * 1e-12
        hi = p_hi if np.isfinite(p_hi) else avg.support * 1e8
        cand = np.sort(np.concatenate((phi.t[(phi.t > lo) & (phi.t < hi)], [lo, hi])))
        vals = [h(float(c)) for c in cand]
        k = int(np.argmax(vals))
        best = max(best, vals[k])
        a = float(cand[max(k - 1, 0)])
        b = float(cand[min(k + 1, len(cand) - 1)])
        a, b = min(a, b), max(a, b)
        if a <= 0 or b <= a:
            continue
        la, lb = math.log(a), math.log(b)
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = lb - gr * (lb - la)
        x2 = la + gr * (lb - la)
        f1, f2 = h(math.exp(x1)), h(math.exp(x2))
        while lb - la > tol:
            if f1 < f2:
                la, x1, f1 = x1, x2, f2
                x2 = la + gr * (lb - la)
                f2 = h(math.exp(x2))
            else:
                lb, x2, f2 = x2, x1, f1
                x1 = lb - gr * (lb - la)
                f1 = h(math.exp(x1))
        best = max(best, f1, f2)
    return float(best)


class TestMarcinkiewiczSearch:
    def generators(self, rng):
        t = np.geomspace(1e-4, 1e4, 257)
        q = rng.uniform(0.2, 3.0, size=2)
        table = young_from_derivative(MonotoneFn(t, t ** q[0] + 0.5 * t ** q[1]))
        return [power_young(float(rng.uniform(1.0, 3.0))), exp_young(1.0),
                power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5), table,
                linfty_young(2.0)]

    def test_equals_piece_by_piece_loop(self):
        rng = np.random.default_rng(83)
        for _ in range(4):
            fns = [random_sampled(rng, n_max=60), characteristic(0.3),
                   SampledFn([(2.0, 0.5)], tail=PowerTail(1.0, 0.4, 0.02))]
            f = random_sampled(rng, n_max=20)
            fns.append(SampledFn(f.pieces, tail=PowerTail(
                15.0, float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.01, 0.5)))))
            for A in self.generators(rng):
                for f in fns:
                    want = loop_marcinkiewicz(f, A)
                    got = marcinkiewicz_norm(f, A)
                    # numpy's exp and power may be an ulp off the C library's
                    assert got == pytest.approx(want, rel=4e-16)

    def test_edge_cases(self):
        A = power_young(2.0)
        assert marcinkiewicz_norm(SampledFn([]), A) == 0.0
        # not locally integrable: the average is infinite everywhere
        f = SampledFn([(1.0, 1.0)], tail=PowerTail(1.0, 1.5, 0.5))
        assert marcinkiewicz_norm(f, A) == loop_marcinkiewicz(f, A) == INF
        for f in (characteristic(1e-9), characteristic(1e9),
                  SampledFn([], tail=PowerTail(1.0, 0.5, 1.0))):
            assert marcinkiewicz_norm(f, A) == loop_marcinkiewicz(f, A)

    def test_golden_section_in_step(self):
        calls = []

        def g(x):
            calls.append(x.size)
            return -(x - 1.0) ** 2

        la = np.array([0.0, -1.0, 1.0 - 5e-13, 5.0])
        lb = np.array([3.0, 0.5, 1.0 + 4e-13, 10.0])
        want = -(np.clip(1.0, la, lb) - 1.0) ** 2
        f1, f2 = _golden_section_max(g, la, lb, 1e-12)
        np.testing.assert_allclose(np.maximum(f1, f2), want, rtol=0, atol=1e-11)
        # a bracket no wider than tol takes no step; the others shrink together
        assert calls[:2] == [4, 4] and max(calls[2:]) == 3
        calls.clear()
        f1, f2 = _golden_section_max(g, [], [], 1e-12)
        assert f1.size == f2.size == 0 and calls == [0, 0]


class TestYoungifySandwich:
    def test_norm_sandwich_with_young_replacement(self):
        rng = np.random.default_rng(79)
        B = QuasiConvexFn(power_young(3.0).base)
        A = youngify(B)
        for _ in range(10):
            f = random_sampled(rng)
            na = luxemburg_norm(f, A)
            nb = luxemburg_norm(f, B)
            assert na <= nb * (1 + 1e-9)
            assert nb <= 2.0 * na * (1 + 1e-9)


class TestClassicalLorentz:
    def test_flat_weight_is_l1(self):
        rng = np.random.default_rng(83)
        f = random_sampled(rng)
        support = sum(w for _, w in f.pieces)
        w = SampledFn([(1.0, support * 2.0)])
        expect = sum(v * wd for v, wd in f.pieces)
        assert classical_lorentz_norm(f, w, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_power_weight_closed_form(self):
        for p, q in [(2.0, 1.0), (3.0, 2.0), (1.5, 1.5)]:
            s = 0.7
            got = lorentz_power_norm(characteristic(s), p, q)
            expect = (p / q) ** (1.0 / q) * s ** (1.0 / p)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(89)
        for _ in range(8):
            f = random_sampled(rng, n_max=6)
            w = random_sampled(rng, n_max=4, vmax=2.0)
            q = float(rng.uniform(0.5, 3.0))
            star = rearrange(f)
            ds = 1e-4 * star.support
            s = np.arange(ds / 2, star.support * 1.2, ds)
            wv = _weight_on(w, s)
            expect = float(np.sum(star(s) ** q * wv) * ds) ** (1.0 / q)
            got = classical_lorentz_norm(f, w, q)
            assert got == pytest.approx(expect, rel=2e-3)

    def test_sup_variant(self):
        s = 0.33
        got = lorentz_power_norm(characteristic(s), 4.0, INF)
        assert got == pytest.approx(s ** 0.25, rel=1e-12)


def _weight_on(w, s):
    vals = np.zeros_like(s)
    pos = 0.0
    for v, width in w.pieces:
        m = (s >= pos) & (s < pos + width)
        vals[m] = v
        pos += width
    return vals


class TestPairings:
    def test_hardy_littlewood(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            f, g = random_sampled(rng), random_sampled(rng)
            assert pairing(f, g) <= hardy_littlewood_pairing(f, g) * (1 + 1e-12)
