import bisect
import math
import sys
import warnings

import mpmath as mp
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
from orlicalc.monotone import MonotoneFn, geometric_grid
from orlicalc import rearrangement
from orlicalc.diagonality import construct_witness_young
from orlicalc.rearrangement import _rising_end as rising_end
from orlicalc.young import (
    QuasiConvexFn,
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
    young_from_values,
    youngify,
)

from helpers import (
    averaged_pieces,
    loop_lambda_tail,
    loop_marcinkiewicz,
    pointwise_average,
    reference_tail_modular,
    scalar_modular,
    sequential_least_admissible_scale,
    sequential_luxemburg_norm,
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


class TestSampledFnInput:
    def test_pieces_are_two_read_only_arrays(self):
        f = SampledFn([(2, 0.5), ("1.5", 1)])
        assert f.values.tolist() == [2.0, 1.5] and f.widths.tolist() == [0.5, 1.0]
        assert f.breaks.tolist() == [0.0, 0.5, 1.5] and f.length == 1.5
        assert f.pieces == [(2.0, 0.5), (1.5, 1.0)]
        assert all(type(x) is float for p in f.pieces for x in p)
        with pytest.raises(ValueError):
            f.values[0] = 3.0
        g = SampledFn(zip([1.0, 0.0], [2.0, 1.0]))
        assert g.pieces == [(1.0, 2.0), (0.0, 1.0)] and not g.is_zero
        assert SampledFn([]).values.shape == (0,) and SampledFn([]).is_zero

    @pytest.mark.parametrize("pieces", [
        [[1]], [None], [[1, 0.5, 7]], [[1, 2], [3]], [[]], [[1, "abc"]], [[1, {}]],
        [[1, "nan"]], [[1, "inf"]], [["inf", 1]], [[-1, 1]], [[1, 0]], [[1, -2]], 5])
    def test_anything_but_finite_pairs_is_rejected(self, pieces):
        with pytest.raises(ValueError, match="piece"):
            SampledFn(pieces)

    def test_bad_piece_is_named(self):
        with pytest.raises(ValueError, match=r"piece 2 is \[1\.0, nan\]"):
            SampledFn([[1, 1], [1, float("nan")]])

    @pytest.mark.parametrize("obj", [[1, 2], {"values": [1]}, {"pieces": [[1]]}])
    def test_from_json_rejects_malformed_objects(self, obj):
        with pytest.raises(ValueError):
            SampledFn.from_json(obj)

    def test_csv_skips_blank_comment_and_header_lines_only(self):
        f = SampledFn.from_csv("# a comment\n\nvalue,width\n2,0.5\n  \n# more\n1,1.5\n")
        assert f.pieces == [(2.0, 0.5), (1.0, 1.5)]
        assert SampledFn.from_csv("2,0.5\n").pieces == [(2.0, 0.5)]

    @pytest.mark.parametrize("text, line", [
        ("value,width\n1,0.5\n2\n", 3),
        ("1,0.5\n1,abc\n0.5,0.3\n", 2),
        ("value,width\nv,w\n1,1\n", 2),
        ("1,0.5,7\n", 1),
        ("2\n", 1),
        ("1,0.5\n1,nan\n", 2),
        ("# c\n\n1,0.5\n1,inf\n", 4),
    ])
    def test_csv_names_the_line_of_a_bad_row(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}:"):
            SampledFn.from_csv(text)

    def test_csv_negative_value_is_rejected(self):
        with pytest.raises(ValueError, match="piece 2"):
            SampledFn.from_csv("1,0.5\n-1,0.5\n")

    def test_layout_reads_the_pieces_in_order(self):
        f = SampledFn([(3.0, 1.0), (0.0, 0.5), (2.0, 1.0)])
        x = np.array([0.0, 0.5, 1.0, 1.2, 1.5, 2.4, 2.5, 9.0])
        assert f.layout(x).tolist() == [3.0, 3.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0]


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
            pieces = averaged_pieces(avg)
            edges = np.array([p[0] for p in pieces] + [p[1] for p in pieces])
            t = np.concatenate((edges, np.nextafter(edges, 0.0), [0.0, -1.0, np.nan, INF],
                                np.geomspace(1e-9, max(avg.support, 1.0) * 1e3, 97)))
            got = avg(t)
            want = np.array([pointwise_average(avg, float(x)) for x in t])
            # the power piece of a tail uses numpy's power, which may be an ulp
            # off the C library's; every other piece is bit for bit
            power = np.array([any(pw and lo <= x < hi for lo, hi, pw, _, _ in pieces)
                              for x in t])
            assert np.array_equal(got[~power], want[~power], equal_nan=True)
            np.testing.assert_allclose(got[power], want[power], rtol=4e-16)
            assert isinstance(avg(0.5), float) and avg(0.5) == pointwise_average(avg, 0.5)
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
                expect += A(scale * v) * w
            assert modular(f, A, scale) == expect

    def test_layer_cake_oracle(self):
        # modular equals the integral of a(lambda) * distribution(lambda)
        rng = np.random.default_rng(53)
        for _ in range(10):
            f = random_sampled(rng)
            A = power_young(float(rng.uniform(1.0, 4.0)))
            d = distribution(f)
            knots = np.concatenate(([0.0], np.sort(rearrange(f).values)))
            expect = 0.0
            for lo, hi in zip(knots[:-1], knots[1:]):
                expect += d((lo + hi) / 2.0) * (A(hi) - A(lo))
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
        # the last rungs: 0 where the least normal float is admissible, +inf
        # where the largest float is not
        for ok, answer, last in ((lambda lam: lam >= 1e-310, 0.0, sys.float_info.min),
                                 (lambda lam: lam > INF, INF, sys.float_info.max)):
            asked = []
            assert least_admissible_scale(lambda lam: asked.append(lam) or ok(lam),
                                          1.0, 1e-10) == answer
            assert asked[-1] == last


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

    def test_gives_the_sequential_answer(self):
        cases = [(lambda lam, answer=answer: lam >= answer, answer, start)
                 for answer in (1e-305, 3e-301, 1e-250, 3.7e-5, 0.25, 1.0, 42.0, 9e7,
                                1e25, 1e200, 1e305, 1.5e308)
                 for start in (1e-301, 1e-150, 1.0, 1e3, 1e301)]
        cases += [(lambda lam: lam > 0.0, 0.0, 1.0), (lambda lam: lam > INF, INF, 1.0)]
        for pred, answer, start in cases:
            for tol in (1e-6, 1e-10, 1e-13):
                want = sequential_least_admissible_scale(pred, start, tol)
                assert answer <= want <= answer * (1 + tol)
                assert least_admissible_scale(pred, start, tol) == want

    def test_tolerance_below_float_spacing_is_rejected(self):
        # below 2**-52 two adjacent floats can differ by more than the
        # tolerance, so the bisection would never end
        for tol in (0.0, -1e-3, 1e-17):
            with pytest.raises(ValueError, match="float spacing"):
                least_admissible_scale(lambda lam: lam >= 42.0, 1.0, tol)
        assert least_admissible_scale(lambda lam: lam >= 42.0, 1.0, 2.0 ** -52) == 42.0

    def test_asks_what_the_sequential_search_asks(self):
        for answer, start in ((3.7e-5, 1.0), (42.0, 1.0), (1e200, 1.0), (0.0, 1.0)):
            seq, asked = [], []

            def ok_seq(lam):
                seq.append(lam)
                return lam > answer

            def ok(lam):
                asked.append(lam)
                return lam > answer

            sequential_least_admissible_scale(ok_seq, start, 1e-10)
            least_admissible_scale(ok, start, 1e-10)
            assert asked == seq


class TestBatchedLuxemburg:
    def generators(self):
        return [power_young(2.0), power_log_young(2.0, alpha_zero=0.7, alpha_inf=-0.5),
                power_log_young(1.5, alpha_zero=-1.0, alpha_inf=1.0), exp_young(1.0),
                linfty_young(1.0),
                young_from_derivative(MonotoneFn(np.geomspace(1e-4, 1e4, 257),
                                                 np.geomspace(1e-4, 1e4, 257) ** 1.3)),
                QuasiConvexFn(MonotoneFn(np.geomspace(1e-3, 1e3, 61),
                                         np.geomspace(1e-3, 1e3, 61) ** 1.7))]

    def functions(self, rng, count):
        for _ in range(count):
            n = int(rng.integers(1, 41))
            vals = 10.0 ** rng.uniform(-12.0, 3.0, n)
            tail = None
            if rng.random() < 0.5:
                expo, width = float(rng.uniform(0.1, 0.9)), float(10 ** rng.uniform(-2, 0.5))
                tail = PowerTail(float(vals.max() * width ** expo * rng.uniform(1.0, 3.0)),
                                 expo, width)
            yield SampledFn(list(zip(vals, 10.0 ** rng.uniform(-3.0, 1.0, n))), tail=tail)

    def test_array_modular_is_the_scalar_modular_per_scale(self):
        rng = np.random.default_rng(97)
        scales = np.concatenate((10.0 ** rng.uniform(-20.0, 15.0, 40), [1.0]))
        for A in self.generators():
            for f in self.functions(rng, 6):
                got = modular(f, A, scales)
                want = [scalar_modular(f, A, s) for s in scales.tolist()]
                assert got.shape == scales.shape
                assert np.array_equal(got, want)
                assert not np.isnan(modular(f, A, 1e-300))
                assert modular(f, A, 0.5) == scalar_modular(f, A, 0.5)
                assert isinstance(modular(f, A, 0.5), float)

    def test_luxemburg_is_the_sequential_search(self):
        rng = np.random.default_rng(98)
        for A in self.generators():
            for f in self.functions(rng, 3):
                for tol in (1e-6, 1e-13):
                    assert luxemburg_norm(f, A, tol) == sequential_luxemburg_norm(f, A, tol)

    def test_modular_calls_of_a_norm(self, monkeypatch):
        # the root phase finds the root from the modular's values, which a
        # pure power's secant hits at once, and the bisection answers
        # outside its certified bracket without the modular; the search
        # calls the modular it makes once, which is what is counted
        calls = []
        real = rearrangement._modular_of

        def counted_of(f, A):
            at = real(f, A)

            def counted(scales):
                calls.append(1)
                return at(scales)

            return counted

        monkeypatch.setattr(rearrangement, "_modular_of", counted_of)
        rng = np.random.default_rng(99)
        cases = [(power_young(p), 4, p) for p in (1.3, 2.0, 2.9)] + [(exp_young(1.0), 10, None)]
        for A, budget, p in cases:
            for n in (1, 4, 12, 160):
                vals = rng.uniform(0.01, 10.0, n)
                pieces = list(zip(vals, 10.0 ** rng.uniform(-2.0, 1.0, n)))
                tails = [None]
                if p is not None:
                    expo, width = rng.uniform(0.2, 0.8 / p), 10.0 ** rng.uniform(-3.0, -1.0)
                    tails.append(PowerTail(vals.max() * width ** expo * 1.5, expo, width))
                for tail in tails:
                    f = SampledFn(pieces, tail=tail)
                    calls.clear()
                    lam = luxemburg_norm(f, A)
                    assert 0.0 < lam < INF
                    assert len(calls) <= budget
        # generators that jump to +inf, where these norms sit: the first
        # call takes the scales on either side of the jump and certifies both
        endpoints = [power_young(1.5), power_log_young(2.0, alpha_zero=-1.0, alpha_inf=1.0),
                     exp_young(1.0)]
        for n in (1, 4, 12, 160):
            f = SampledFn(list(zip(rng.uniform(0.01, 10.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n))))
            for A in [linfty_young(1.0)] + [construct_witness_young(f, E) for E in endpoints]:
                calls.clear()
                lam = luxemburg_norm(f, A)
                assert 0.0 < lam < INF
                assert len(calls) == 1

    def test_search_takes_a_tails_scale_free_parts_once(self, monkeypatch):
        # the integral past the last node at t[-1] and F's segments over y
        # do not depend on the scale: a search computes them once, and its
        # modular calls integrate only each scale's first part (one segment
        # a scale) and the scales above the grid, of which there are none here
        past, sizes, calls = [], [], []
        off_grid = rearrangement._integral_off_grid
        segment = rearrangement._power_segment_integral
        real = rearrangement._modular_of

        def counted_of(f, A):
            at = real(f, A)
            return lambda scales: calls.append(scales.size) or at(scales)

        monkeypatch.setattr(rearrangement, "_integral_off_grid",
                            lambda *args, **kwargs: past.append(1) or off_grid(*args, **kwargs))
        monkeypatch.setattr(rearrangement, "_power_segment_integral",
                            lambda vl, *args: sizes.append(np.size(vl)) or segment(vl, *args))
        monkeypatch.setattr(rearrangement, "_modular_of", counted_of)
        f = SampledFn([(2.0, 0.5), (0.7, 1.5)], tail=PowerTail(3.0, 0.3, 0.05))
        young_fn = power_log_young(2.2, alpha_zero=0.3, alpha_inf=0.7)
        for A, F in ((young_fn, young_fn.derivative),
                     (QuasiConvexFn(young_fn.base, validate=False), young_fn.base)):
            past.clear(), sizes.clear(), calls.clear()
            assert 0.0 < luxemburg_norm(f, A) < INF
            assert len(calls) > 1
            assert past == [1]
            assert sizes.count(F.t.size - 1) == 1
            assert max(sizes[1:]) <= max(calls)

    def test_jump_scales_need_a_positive_finite_jump(self):
        # a tail makes sup |f| infinite: no jump scale is taken; a table with
        # no finite value is 0 below its first node and +inf from it on, so
        # its t_inf is that node and its jump scales are sup |f| / t_inf;
        # nothing warns
        tail = PowerTail(3.0, 0.2, 0.1)
        no_finite = QuasiConvexFn(MonotoneFn(np.array([1.0, 2.0]), np.array([INF, INF])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (SampledFn([(1.0, 0.5)], tail=tail), SampledFn([], tail=tail)):
                assert luxemburg_norm(f, linfty_young(1.0)) == INF
            f = SampledFn([(1.0, 0.5)])
            assert no_finite.t_inf == 1.0
            assert luxemburg_norm(f, no_finite) == sequential_luxemburg_norm(f, no_finite)

    def test_luxemburg_where_no_secant_or_no_pure_power(self):
        # the modular of linfty is 0 or +inf, so no secant forms and only
        # the first call's scales are certified; the coarse table's modular
        # is piecewise, no pure power.  Both must give the float of the
        # search that calls the modular for every scale
        t = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])
        coarse = young_from_derivative(MonotoneFn(t, np.array([0.1, 0.2, 1.0, 1.5, 4.0, 5.0, 9.0])))
        cases = [(linfty_young(1.0), SampledFn([(3.0, 0.5), (1.0, 2.0)])),
                 (linfty_young(1.0), SampledFn([(0.25, 1.0)])),
                 (coarse, characteristic(0.5))]
        for A, f in cases:
            for tol in (1e-6, 1e-10, 1e-13):
                assert luxemburg_norm(f, A, tol) == sequential_luxemburg_norm(f, A, tol)

    def test_far_speculative_scales_of_a_thin_tail(self):
        # halving from 1 evaluates scales up to 2**63 at once, where
        # (scale * coef)**(1 / expo) leaves the float range
        A = power_young(2.0)
        for expo in (0.1, 0.05, 0.03):
            f = SampledFn([], tail=PowerTail(0.01, expo, 0.01))
            assert luxemburg_norm(f, A) == sequential_luxemburg_norm(f, A)
        # there the modular itself, c**2 w**(1 - 2 e) / (1 - 2 e) with
        # c = scale * coef, is still a float (it read +inf)
        c = 2.0 ** 63 * 0.01
        assert modular(SampledFn([], tail=PowerTail(0.01, 0.03, 0.01)), A, 2.0 ** 63) == \
            pytest.approx(c ** 2 * 0.01 ** 0.94 / 0.94, rel=1e-12)

    def test_tail_at_small_scales(self):
        # at these scales the tail's integral over u overflows while
        # (scale * coef)**(1 / expo) underflows (it read inf from 1e-63, nan
        # from 1e-100); over y = u / u0 neither does.  The doubling search
        # for a norm near 1e100 overshoots into that range
        A = power_young(2.0)
        f = SampledFn([(1.0, 0.5)], tail=PowerTail(3.0, 0.2, 0.1))
        m = modular(f, A, 1.0)
        for s in (1e-63, 1e-100, 1e-150):
            assert modular(f, A, s) == pytest.approx(m * s ** 2, rel=1e-9)
        g = SampledFn([], tail=PowerTail(3.0, 0.2, 0.1))
        for e in (100.0, 200.0):
            assert luxemburg_norm(g.scale(10.0 ** e), A) == pytest.approx(
                luxemburg_norm(g, A) * 10.0 ** e, rel=1e-9)

    def test_tail_at_large_scales(self):
        # (scale * coef)**(1 / expo) overflows from about 1.4e6 on, where
        # the modular c**1.3 w**(1 - 1.3 e) / (1 - 1.3 e) is still a float
        # (it read +inf); at 1e9, u0 lies past the generator's last node
        A = power_young(1.3)
        f = SampledFn([], tail=PowerTail(1.0, 0.02, 0.01))
        for s in (1e6, 1e7, 1e9):
            exact = s ** 1.3 * 0.01 ** (1.0 - 1.3 * 0.02) / (1.0 - 1.3 * 0.02)
            assert modular(f, A, s) == pytest.approx(exact, rel=1e-12)
        scales = np.array([1e6, 1e7, 1e9, 1e30])
        for A in self.generators():
            got = modular(f, A, scales)
            assert np.array_equal(got, [scalar_modular(f, A, s) for s in scales.tolist()])
            assert (got > 0.0).all()

    def test_tail_at_large_scales_against_a_quadrature(self):
        # the tail against the 40-digit modular on the exact A, by parts
        # over the derivative's segments and its closed form past them:
        # u0 inside the table (1e7) and past it (1e9), for power-log
        # generators and a numeric-only table with the same tail.  Past the
        # derivative's last node, A with a log factor is the integral over a
        # 16-per-decade extension grid, which the pieces read as well: there
        # the reference takes that A(u0)
        tail = PowerTail(1.0, 0.02, 0.01)
        f = SampledFn([], tail=tail)
        t = np.geomspace(1e-4, 1e8, 257)
        for A in (power_log_young(1.3, 0.0, 0.5),
                  power_log_young(2.0, alpha_zero=0.7, alpha_inf=-0.5),
                  young_from_derivative(MonotoneFn(t, t ** 1.3))):
            for s in (1e7, 1e9):
                u0 = s * tail.coef * tail.width ** -tail.expo
                log_factor = A.derivative.inf_desc.alpha != 0.0 and u0 > A.derivative.t[-1]
                want = reference_tail_modular(A, tail, s, a_u0=A(u0) if log_factor else None)
                assert modular(f, A, s) == pytest.approx(float(want), rel=1e-12)
        # exp(1) grows faster than any power of y: the integral diverges
        assert (modular(f, exp_young(1.0), np.array([1e7, 1e9])) == INF).all()

    def test_tail_far_below_the_first_node(self):
        # u0 = 1e-12 sits four decades below the first node, 1e-8, and the
        # tail's weight is u**-51: the segments overflow while the factor
        # (scale * coef)**50 underflows, which gave NaN at scale 1 and an
        # infinite norm.  The values are 40-digit mpmath sums of the step and
        # the closed-form tail integral of t**1.3
        A = power_young(1.3)
        f = SampledFn([(1e-12, 0.001)], tail=PowerTail(9.120108393559097e-13, 0.02, 0.01))
        assert modular(f, A, 1.0) == pytest.approx(2.8301274845365603e-18, rel=1e-13)
        assert luxemburg_norm(f, A) == pytest.approx(3.172409414193040e-14, rel=1e-9)
        assert luxemburg_norm(f, A) == sequential_luxemburg_norm(f, A)
        # a subnormal A(u0), 1 + 1 / 0.35 times scale**1.3 in all
        g = SampledFn([(1.0, 1.0)], tail=PowerTail(1.0, 0.5, 1.0))
        assert modular(g, A, 1.0 / 1.58e245) == pytest.approx(6.72994493966462e-319, rel=1e-4)

    def test_near_critical_tail_norm(self):
        # the tail profile 2 s**-0.39 against A ~ t**2.5 log t: beyond the
        # table A(u) u**(-1 / 0.39 - 1) decays like u**-1.064 log u, so most
        # of the tail's modular lies past the last node.  It once read the
        # value table's extrapolation there, whose log factor is anchored at
        # the last node and sits up to 2% off the integral of the
        # derivative, which left the norm at 25.1067.  The reference
        # modular is the 40-digit one on the exact A, and brackets 1 at the
        # norm
        A = power_log_young(2.5, alpha_zero=0.0, alpha_inf=1.0)
        tail = PowerTail(2.0, 0.39, 0.01)
        f = SampledFn([[1.0, 0.4]], tail=tail)
        lam = luxemburg_norm(f, A)

        def reference_modular(scale):
            return 0.4 * A(scale) + float(reference_tail_modular(A, tail, scale))

        assert lam == pytest.approx(25.16488, rel=1e-5)
        assert reference_modular(1.0 / (lam * (1 + 1e-8))) <= 1.0 <= \
            reference_modular(1.0 / (lam * (1 - 1e-8)))

    def test_tail_against_the_exact_a(self):
        # Young functions by parts on the exact A, a quasi-convex table on
        # its own log-log segments, against the 40-digit reference: pure
        # powers, log factors at either end (below the table, where the
        # chord from F(u0) is not F, and past it), the samples of t**2 and a
        # coarse derivative table, with u0 from below the first node to past
        # the last.  Past the derivative's last node a log factor's A is
        # the extension grid's, which the reference takes (see above)
        t7 = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])
        q = np.geomspace(1e-3, 1e3, 61)
        gens = [power_young(1.3), power_log_young(2.0, 0.0, 1.0),
                power_log_young(2.0, -1.0, 0.5),
                young_from_values([1.0, 2.0, 4.0, 8.0], [1.0, 4.0, 16.0, 64.0]),
                young_from_derivative(MonotoneFn(t7, np.array([0.1, 0.2, 1.0, 1.5, 4.0, 5.0, 9.0]))),
                QuasiConvexFn(MonotoneFn(q, q ** 1.7))]
        scales = [1e-100, 1e-30, 1e-5, 0.5, 2.0, 1e3, 1e9]
        for tail in (PowerTail(1.0, 0.3, 0.5), PowerTail(2.0, 0.02, 0.01)):
            f = SampledFn([], tail=tail)
            for A in gens:
                got = modular(f, A, np.array(scales))
                for s, m in zip(scales, got.tolist()):
                    u0 = s * tail.coef * tail.width ** -tail.expo
                    a = getattr(A, "derivative", None)
                    past = a is not None and a.inf_desc.alpha != 0.0 and u0 > a.t[-1]
                    want = reference_tail_modular(A, tail, s, a_u0=A(u0) if past else None)
                    assert m == pytest.approx(float(want), rel=1e-12), (getattr(A, "recipe", None), tail, s)

    def test_zero_function_at_many_scales(self):
        got = modular(SampledFn([(0.0, 1.0)]), power_young(2.0), np.array([0.5, 2.0]))
        assert got.tolist() == [0.0, 0.0]


def reference_lambda_norm(f, A):
    """lambda_norm with one phi call per step value."""
    if f.is_zero:
        return 0.0
    phi = A.char_profile
    star = rearrange(f)
    total = 0.0
    prev_value = 0.0
    vals = star.values[::-1]
    meas = star.breaks[1:][::-1]
    for v, m in zip(vals, meas):
        total += (v - prev_value) * phi(m)
        prev_value = v
    if star.tail is not None:
        total = loop_lambda_tail(phi, star.tail, total, prev_value)
    return total


def test_lambda_norm_is_the_one_step_at_a_time_sum():
    rng = np.random.default_rng(99)
    gens = TestBatchedLuxemburg().generators()
    for A in gens[:4] + gens[5:6]:
        for f in TestBatchedLuxemburg().functions(rng, 4):
            assert lambda_norm(f, A) == reference_lambda_norm(f, A)


def test_char_profile_is_monotone_at_subnormal_measures():
    # log(1/x) overflows for subnormal x; the profile gave inf at 4.6e-310
    # and 6.6e-154 at 2.3e-308
    got = power_log_young(2.0, 0.0, 0.5).char_profile(np.array([4.6e-310, 2.3e-308, 1e-300]))
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    assert np.all(np.diff(got) >= 0)


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


def test_lambda_norm_of_a_tail_with_subnormal_level_measures():
    # the tail's level measures (coef / lambda)**(1 / expo) reach subnormal
    # values, where phi once gave inf and the norm nan
    A = power_log_young(2.0, alpha_zero=0.0, alpha_inf=0.5)
    tail = PowerTail(1.0, 0.13, 0.0025)
    got = lambda_norm(SampledFn([], tail=tail), A)
    # reference: lambda = coef m**-expo turns the threshold integral into one
    # over the measure m, done in log m
    phi = A.char_profile
    y = np.linspace(math.log(1e-300), math.log(tail.width), 400001)
    g = phi(np.exp(y)) * tail.coef * tail.expo * np.exp(-tail.expo * y)
    want = tail.value_at(tail.width) * phi(tail.width) + np.trapezoid(g, y)
    assert got == pytest.approx(want, rel=1e-4)


def mp_phi_power_integral(phi, width, w):
    """The integral of phi(m) m**w over (0, width) at 50 digits: below the
    first node the closed form of phi's zero descriptor, va (m / a)**p
    l**alpha with l = log m / log a (a < 1) or 1 + log(a / m), as an upper
    incomplete gamma; each segment vl (m / tl)**s of the table in closed
    form; past the last node the extrapolation va (m / a)**p, a power.
    +inf where the head diverges, at p + w + 1 <= 0."""
    p, alpha, a, _, va = phi.power_log_form(True)
    p, alpha, a, va, w = (mp.mpf(x) for x in (p, alpha, a, va, w))
    e = p + w + 1
    if e <= 0:
        return mp.inf
    # y = log(a / m) from log(a / min(width, a)); l = (c + y) / c
    c = -mp.log(a) if a < 1 else mp.mpf(1)
    y0 = mp.log(a / mp.mpf(min(width, phi.t[0])))
    total = va * a ** (w + 1) * c ** -alpha * mp.exp(e * c) \
        * e ** (-alpha - 1) * mp.gammainc(alpha + 1, e * (c + y0))
    nodes = [mp.mpf(x) for x in phi.t]
    vals = [mp.mpf(x) for x in phi.v]
    if width > phi.t[-1]:
        pb, alpha_b, ab, _, vb = phi.power_log_form(False)
        assert alpha_b == 0.0
        nodes.append(mp.mpf(width))
        vals.append(mp.mpf(vb) * (nodes[-1] / mp.mpf(ab)) ** mp.mpf(pb))
    for tl, tr, vl, vr in zip(nodes, nodes[1:], vals, vals[1:]):
        if tl >= width:
            break
        s = mp.log(vr / vl) / mp.log(tr / tl)
        b, es = min(tr, mp.mpf(width)), s + w + 1
        total += vl * tl ** -s * (b ** es - tl ** es) / es
    return total


_TABLE_T = geometric_grid(1e-4, 1e4, 32)


@pytest.mark.parametrize("name, A", [
    ("power", power_young(2.0)),
    ("power-log", power_log_young(2.0, alpha_zero=-1.0, alpha_inf=1.0)),
    ("power-log 0.5 at infinity", power_log_young(2.0, alpha_zero=0.0, alpha_inf=0.5)),
    ("table", young_from_derivative(MonotoneFn(
        _TABLE_T, 0.7 * _TABLE_T ** 0.4 + 2.0 * _TABLE_T ** 1.8))),
])
def test_lambda_norm_of_a_tail_against_mpmath(name, A):
    # the thresholds above the tail's top integrate phi's own table: with
    # m = (coef / lambda)**(1 / expo) the norm is v_cut phi(width) + expo
    # coef times the integral of phi(m) m**(-expo - 1) over (0, width)
    phi = A.char_profile
    widths = [0.0025, 0.3, 40.0, 1e-20] + ([2e6] if phi.t[-1] < 2e6 else [])
    for width in widths:
        for expo in (0.13, 0.4):
            tail = PowerTail(1.5 * width ** expo, expo, width)
            got = lambda_norm(SampledFn([], tail=tail), A)
            with mp.workdps(50):
                want = mp.mpf(tail.value_at(width)) * mp.mpf(float(phi(width))) + mp.mpf(expo) \
                    * mp.mpf(tail.coef) * mp_phi_power_integral(phi, width, -expo - 1.0)
                assert got == want if want == mp.inf else abs(got / want - 1) <= 1e-12, \
                    (name, width, expo, got, float(want))


class TestMarcinkiewiczSearch:
    def generators(self, rng):
        t = np.geomspace(1e-4, 1e4, 257)
        q = rng.uniform(0.2, 3.0, size=2)
        table = young_from_derivative(MonotoneFn(t, t ** q[0] + 0.5 * t ** q[1]))
        return [power_young(float(rng.uniform(1.0, 3.0))), exp_young(1.0),
                power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5), table,
                linfty_young(2.0)]

    def functions(self, rng):
        fns = [random_sampled(rng, n_max=60), characteristic(0.3),
               SampledFn([(2.0, 0.5)], tail=PowerTail(1.0, 0.4, 0.02))]
        f = random_sampled(rng, n_max=20)
        fns.append(SampledFn(f.pieces, tail=PowerTail(
            15.0, float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.01, 0.5)))))
        return fns

    def test_equals_piece_by_piece_loop(self):
        rng = np.random.default_rng(83)
        for _ in range(4):
            fns = self.functions(rng)
            for A in self.generators(rng):
                for f in fns:
                    want = loop_marcinkiewicz(f, A)
                    got = marcinkiewicz_norm(f, A)
                    if got == INF and f.tail:
                        # phi grows slower than the tail's average at 0+:
                        # the loop's window, down to 1e-12 * width, missed it
                        tiny = 1e-300
                        assert A.char_profile(tiny) * maximal(f)(tiny) > 1e6 * want
                        continue
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


    def test_steep_power_tail_is_infinite(self):
        # f** = t**-e / (1 - e) against phi = t**0.5: the search stopped at
        # 1e-12 * width and gave finite values (42.47 for e = 0.6)
        A = power_young(2.0)
        for e in (0.6, 0.8, 0.95):
            assert marcinkiewicz_norm(SampledFn([], tail=PowerTail(1.0, e, 0.5)), A) == INF
        flat = marcinkiewicz_norm(SampledFn([], tail=PowerTail(1.0, 0.5, 0.5)), A)
        assert flat == pytest.approx(2.0, rel=1e-15, abs=0)
        peak = marcinkiewicz_norm(SampledFn([], tail=PowerTail(1.0, 0.3, 0.5)), A)
        assert peak == pytest.approx(0.5 ** 0.2 / 0.7, rel=1e-15, abs=0)
        # with equal exponents the log factor of phi at 0 decides
        B = power_log_young(1.5, alpha_zero=-1.0, alpha_inf=1.5)   # alpha 1 at 0
        C = power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5)   # alpha -1/4 at 0
        assert marcinkiewicz_norm(SampledFn([], tail=PowerTail(1.0, 1 / 1.5, 0.5)), B) == INF
        assert marcinkiewicz_norm(SampledFn([], tail=PowerTail(1.0, 0.5, 0.5)), C) < INF

    def test_bisects_only_off_grid_cells_that_can_beat_the_ends(self, monkeypatch):
        A = power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5)
        phi = A.char_profile
        searched = []

        def spy(dlog, xa, xb):
            searched.extend(zip(np.exp(xa), np.exp(xb)))
            return rising_end(dlog, xa, xb)

        monkeypatch.setattr(rearrangement, "_rising_end", spy)
        marcinkiewicz_norm(random_sampled(np.random.default_rng(5), n_max=60), A)
        assert searched == []
        # below phi's grid (from 4.3e-16) the second and third pieces mix
        # c1 and c2; only the third can rise above the best cell end
        f = SampledFn([(3.0, 1e-20), (2.0, 1e-18), (1.0, 1e-17)])
        marcinkiewicz_norm(f, A)
        avg = maximal(f)
        ends = np.concatenate((phi.t, avg.hi))
        best_end = np.max(phi(ends) * avg(ends))
        mixed = [(lo, hi) for lo, hi, _, c1, c2 in averaged_pieces(avg) if c1 > 0 and c2 > 0]
        assert len(mixed) == 2 and mixed[-1][1] < phi.t[0]
        assert [phi(b) * avg(a) > best_end for a, b in mixed] == [False, True]
        assert np.allclose(searched, mixed[1:], rtol=1e-14, atol=0)

    def test_matches_mpmath_brute_force(self):
        rng = np.random.default_rng(89)
        log_gens = [power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5),
                    power_log_young(1.5, alpha_zero=-1.0, alpha_inf=1.5),
                    exp_young(1.0), exp_young(2.0)]
        # steps beyond both ends of phi's grid, where its log factors act
        far = [SampledFn([(3.0, 1e-20), (2.0, 1e-18), (1.0, 1e-17)]),
               SampledFn([(1.0, 1e15), (0.5, 1e16), (0.4, 1e18)])]
        for _ in range(2):
            fns = self.functions(rng) + far
            for A in self.generators(rng) + log_gens:
                for f in fns:
                    got = marcinkiewicz_norm(f, A)
                    want = mp_marcinkiewicz(f, A)
                    if got == INF:
                        # h still grows far below the float range
                        tiny = mp.mpf("1e-10000")
                        assert f.tail and mp_phi(A.char_profile, tiny) * mp_average(f)(tiny) > 10 * want
                    else:
                        assert got == pytest.approx(float(want), rel=1e-13)


def mp_phi(phi, t):
    """phi(t) in mpmath from phi's table and descriptors: log-log between
    the nodes, and beyond them the descriptor's power-log form anchored at
    the first node (0 below a zero one) and at the last finite node, the
    form MonotoneFn extrapolates with."""
    T, V = phi.t, phi.v
    if T[0] <= t <= T[-1]:
        if T.size == 1:
            return mp.mpf(V[0])
        i = min(int(np.searchsorted(T, float(t), side="right")) - 1, T.size - 2)
        tl, tr, vl, vr = (mp.mpf(x) for x in (T[i], T[i + 1], V[i], V[i + 1]))
        if t == tl or (vl > 0 and vl == vr):
            return vl
        if mp.isinf(vr):
            return mp.inf
        if vl == 0:
            return vr * (t - tl) / (tr - tl)
        return vl * (t / tl) ** (mp.log(vr / vl) / mp.log(tr / tl))
    zero = t < T[0]
    d = phi.zero_desc if zero else phi.inf_desc
    if d.kind == "limit-const":
        return mp.mpf(d.limit)
    if d.kind == "zero-on-interval" or (not zero and np.isinf(V[-1])):
        return mp.mpf(0) if zero else mp.inf
    ta, va = (mp.mpf(x) for x in ((T[0], V[0]) if zero else phi._anchor_inf()))
    if d.kind == "infinite-beyond":
        return va if t <= d.threshold else mp.inf
    if va == 0:
        return mp.mpf(0)
    if d.kind == "power-log":
        p, alpha = d.p, d.alpha
    else:
        p, alpha = (phi._edge_slope_zero() if zero else phi._edge_slope_inf()), 0.0
    if zero:
        ell = mp.log(t) / mp.log(ta) if ta < 1 else 1 + mp.log(ta / t)
    else:
        ell = mp.log(t) / mp.log(ta) if ta > 1 else 1 + mp.log(t / ta)
    return va * (t / ta) ** p * ell ** alpha


def mp_average(f):
    """t -> (1/t) * integral of f* over (0, t) in mpmath, from f's pieces."""
    steps = sorted((p for p in f.pieces if p[0] > 0), reverse=True)
    lo, acc = [mp.mpf(f.tail.width if f.tail else 0)], [mp.mpf(0)]
    if f.tail:
        acc[0] = f.tail.coef * lo[0] ** (1 - mp.mpf(f.tail.expo)) / (1 - mp.mpf(f.tail.expo))
    for v, w in steps:
        lo.append(lo[-1] + w)
        acc.append(acc[-1] + v * mp.mpf(w))

    def average(t):
        if t < lo[0]:
            e = mp.mpf(f.tail.expo)
            return f.tail.coef * t ** -e / (1 - e)
        k = bisect.bisect_right(lo, t) - 1
        return (acc[k] + (steps[k][0] * (t - lo[k]) if k < len(steps) else 0)) / t

    return average


def mp_marcinkiewicz(f, A, n=40001, dps=20):
    """sup of phi * average by brute force: a dense float scan in log t from
    1e-300, then a golden-section search in mpmath around each of the best
    three local maxima of the scan, to 1e-17 in log t."""
    phi, avg, mp_avg = A.char_profile, maximal(f), mp_average(f)
    hi = min(1e300, 100.0 * max(phi.t[-1], avg.support))
    t = np.geomspace(1e-300, hi, n)
    h = phi(t) * avg(t)
    peak = np.flatnonzero((h >= np.append(0.0, h[:-1])) & (h >= np.append(h[1:], 0.0)))
    gr = (mp.sqrt(5) - 1) / 2

    def mp_h(t):
        return mp_phi(phi, t) * mp_avg(t)

    with mp.workdps(dps):
        best = mp.mpf(float(np.max(h)))
        for i in peak[np.argsort(h[peak])[-3:]]:
            la, lb = mp.log(t[max(i - 1, 0)]), mp.log(t[min(i + 1, n - 1)])
            x1, x2 = lb - gr * (lb - la), la + gr * (lb - la)
            g1, g2 = mp_h(mp.exp(x1)), mp_h(mp.exp(x2))
            while lb - la > 1e-17:
                if g1 < g2:
                    la, x1, g1 = x1, x2, g2
                    x2 = la + gr * (lb - la)
                    g2 = mp_h(mp.exp(x2))
                else:
                    lb, x2, g2 = x2, x1, g1
                    x1 = lb - gr * (lb - la)
                    g1 = mp_h(mp.exp(x1))
            best = max(best, g1, g2)
    return best


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


# -- Lorentz-Zygmund functional ------------------------------------------------


def lz_reference(f, p, q, alpha):
    """Reference for lorentz_power_norm(f, p, q, alpha) (see its docstring).

    Finite p and q: the weight's primitive per step through mpmath's
    incomplete gamma.  Infinite p: the constant first piece of f** in closed
    form and mpmath quadrature in log t on the others.  Infinite q: a dense
    maximum in log t on each piece, refined by golden section."""
    with mp.workdps(30):
        return _lz_reference(f, p, q, alpha)


def _lz_reference(f, p, q, alpha):
    star = rearrange(f)
    end = INF if alpha == 0 else 1.0
    cells = list(zip(star.values, star.breaks[:-1], np.minimum(star.breaks[1:], end)))
    cells = [(float(v), float(lo), float(hi)) for v, lo, hi in cells if lo < hi]
    if math.isinf(p):
        if f.tail:
            return INF
        acc, pieces = 0.0, []
        for v, lo, hi in cells:
            pieces.append((lo, hi, v, acc - v * lo))
            acc += v * (hi - lo)
        if star.support < end:
            pieces.append((star.support, end, 0.0, acc))
        if math.isinf(q):
            return max(_dense_max(lambda x: (c1 + c2 * np.exp(-x)) * (1 - x) ** alpha,
                                  lo, hi) for lo, hi, c1, c2 in pieces)
        gam = mp.mpf(alpha) * q
        v0, hi0 = pieces[0][2], pieces[0][1]
        if gam >= -1:
            return INF
        total = mp.mpf(v0) ** q * (1 - mp.log(hi0)) ** (gam + 1) / (-gam - 1)
        for lo, hi, c1, c2 in pieces[1:]:
            total += mp.quad(lambda x: (c1 + c2 * mp.exp(-x)) ** q * (1 - x) ** gam,
                             [mp.log(lo), mp.log(hi)])
        return float(total ** (1 / mp.mpf(q)))
    if math.isinf(q):
        best = 0.0
        if f.tail:
            t = f.tail
            e = 1.0 / p - t.expo
            if e < 0 or (e == 0 and alpha > 0):
                return INF
            best = _dense_max(lambda x: t.coef * np.exp(e * x) * (1 - x) ** alpha,
                              0.0, min(t.width, end))
        return max([best] + [_dense_max(lambda x: v * np.exp(x / p) * (1 - x) ** alpha,
                                        lo, hi) for v, lo, hi in cells])
    gam = mp.mpf(alpha) * q

    def primitive(beta, t):
        # integral of s**(beta - 1) (1 - log s)**gam over (0, t)
        u = 1 - mp.log(t)
        if beta > 0:
            return mp.exp(beta) * beta ** (-gam - 1) * mp.gammainc(gam + 1, beta * u)
        if beta == 0 and gam < -1:
            return u ** (gam + 1) / (-gam - 1)
        return mp.inf

    beta = mp.mpf(q / p)
    total = mp.mpf(0)
    if f.tail:
        t = f.tail
        total += mp.mpf(t.coef) ** q * primitive(mp.mpf(q / p - t.expo * q),
                                                 mp.mpf(min(t.width, end)))
    for v, lo, hi in cells:
        if alpha == 0:
            total += mp.mpf(v) ** q * (mp.mpf(hi) ** beta - mp.mpf(lo) ** beta) / beta
        else:
            total += mp.mpf(v) ** q * (primitive(beta, mp.mpf(hi))
                                       - (primitive(beta, mp.mpf(lo)) if lo > 0 else 0))
    return INF if total == mp.inf else float(total ** (1 / mp.mpf(q)))


def _dense_max(g, lo, hi, n=20001):
    """Maximum of g(log t) over [lo, hi] (from hi * e**-300 when lo = 0): the
    best of n points evenly spaced in log t, refined by golden section."""
    xa = math.log(lo) if lo > 0 else math.log(hi) - 300.0
    x = np.linspace(xa, math.log(hi), n)
    y = g(x)
    k = int(np.argmax(y))
    a, b = x[max(k - 1, 0)], x[min(k + 1, n - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        x1, x2 = b - gr * (b - a), a + gr * (b - a)
        if g(x1) < g(x2):
            a = x1
        else:
            b = x2
    return max(float(y[k]), float(g(0.5 * (a + b))))


def decreasing_steps(rng, n, total, first=None):
    widths = rng.uniform(0.2, 1.0, n)
    widths *= total / widths.sum()
    if first is not None:
        widths[0] = first
    return SampledFn(list(zip(np.sort(rng.uniform(0.5, 20.0, n))[::-1], widths)))


def lz_cases():
    """Functions with 1, 20 and 160 pieces, a first step ending at 1e-10, and
    a support reaching past 1."""
    rng = np.random.default_rng(211)
    return {"1": SampledFn([(3.0, 0.4)]),
            "20": decreasing_steps(rng, 20, 0.9),
            "160": decreasing_steps(rng, 160, 0.9),
            "first 1e-10": decreasing_steps(rng, 6, 0.5, first=1e-10),
            "past 1": decreasing_steps(rng, 6, 3.0)}


def lz_alphas(p, q):
    """alpha = 0, alpha > 1/p and alpha <= -1/q, as far as (p, q) admits."""
    low = -1.0 / q - 0.25 if math.isfinite(q) else -0.5
    if math.isinf(p):
        return [low, -1.0 / q - 1.0 if math.isfinite(q) else -1.0]
    return [0.0, 1.0 / p + 0.4, low]


class TestLorentzZygmund:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 50.0, 100.0, INF])
    def test_matches_mpmath(self, p):
        for q in [1.0, 1.5, 2.0, 3.0, INF]:
            for alpha in lz_alphas(p, q):
                for name, f in lz_cases().items():
                    # the slow references run the 160-piece case once per p
                    if name == "160" and (q != 2.0 or alpha != lz_alphas(p, q)[0]):
                        continue
                    got = lorentz_power_norm(f, p, q, alpha)
                    want = lz_reference(f, p, q, alpha)
                    assert got == pytest.approx(want, rel=1e-12), (q, alpha, name)

    @pytest.mark.parametrize("p", [1.5, 4.0, 100.0])
    def test_power_tails_match_mpmath(self, p):
        # beta - expo q above, at and below 0
        for q in [1.0, 2.0, 3.0, INF]:
            for expo in [0.5 / p, 1.0 / p, 2.0 / p]:
                for alpha in lz_alphas(p, q):
                    for width in [0.05, 2.0]:
                        tail = PowerTail(2.0, expo, width)
                        top = tail.value_at(width)
                        f = SampledFn([(0.9 * top, 0.2), (0.5 * top, 0.3)], tail=tail)
                        got = lorentz_power_norm(f, p, q, alpha)
                        want = lz_reference(f, p, q, alpha)
                        assert got == pytest.approx(want, rel=1e-12), (q, expo, alpha)

    def test_tail_under_infinite_p_is_infinite(self):
        f = SampledFn([(1.0, 0.5)], tail=PowerTail(2.0, 0.1, 0.1))
        assert lorentz_power_norm(f, INF, 2.0, -1.0) == INF
        assert lorentz_power_norm(f, INF, INF, -1.0) == INF
