import json
import math

import numpy as np
import pytest

from orlicalc.alternative import exp_level, power_level, principal_alternative_target
from orlicalc.monotone import INF
from orlicalc.rearrangement import SampledFn, characteristic
from orlicalc.spaces import (
    HALFLINE,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    LORENTZ_ZYGMUND,
    MARCINKIEWICZ,
    ORLICZ,
    UNIT,
    FundamentalFn,
    SpaceDescriptor,
    UnsupportedFamily,
    associate,
    char_norm_constant,
    companions,
    fundamental_function,
    fundamental_orlicz,
    norm,
    same_level,
)
from orlicalc.young import conjugate, exp_young, linfty_young, power_young

from test_rearrangement import random_sampled


def lorentz(p, q, interval=UNIT):
    return SpaceDescriptor(LORENTZ, interval, p=p, q=q)


def lebesgue(p, interval=UNIT):
    return SpaceDescriptor(LEBESGUE, interval, p=p)


def lz(p, q, alpha):
    return SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=p, q=q, alpha=alpha)


class TestFundamentalFunction:
    def test_lorentz_profile(self):
        X = lorentz(3.0, 2.0)
        phi = fundamental_function(X)
        t = np.geomspace(1e-6, 1.0, 40)
        np.testing.assert_allclose(phi(t), t ** (1.0 / 3.0), rtol=1e-10)

    def test_limiting_lorentz_zygmund_profile(self):
        n, m = 3.0, 1.0
        X = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n / m, alpha=-1.0)
        phi = fundamental_function(X)
        t = np.geomspace(1e-6, 0.5, 30)
        # exact at nodes, interpolated (non-power profile) off the grid
        np.testing.assert_allclose(phi(t), (1.0 - np.log(t)) ** (m / n - 1.0),
                                   rtol=1e-4)
        tg = phi.phi.t[phi.phi.t < 1.0]
        np.testing.assert_allclose(phi(tg), (1.0 - np.log(tg)) ** (m / n - 1.0),
                                   rtol=1e-12)

    def test_finite_p_lorentz_zygmund_profile_is_the_norm(self):
        # the norm of the characteristic function of (0, t) at p = q = 2,
        # alpha = 1 is t**(1/2) u sqrt(1 + 2/u + 2/u**2) with u = 1 - log t
        X = lz(2.0, 2.0, 1.0)
        phi = fundamental_function(X).phi
        u = 1.0 - np.log(phi.t)
        np.testing.assert_allclose(
            phi.v, np.sqrt(phi.t) * u * np.sqrt(1.0 + 2.0 / u + 2.0 / u ** 2), rtol=1e-13)
        assert np.all(np.diff(phi.v) > 0)
        assert char_norm_constant(X) == 1.0
        assert char_norm_constant(lz(INF, 2.0, -1.0)) is None

    def test_orlicz_power_profile(self):
        X = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.5))
        phi = fundamental_function(X)
        t = np.geomspace(1e-6, 1.0, 40)
        np.testing.assert_allclose(phi(t), t ** 0.4, rtol=1e-10)

    def test_invalid_family_params(self):
        with pytest.raises(UnsupportedFamily):
            lorentz(0.5, 1.0)
        with pytest.raises(UnsupportedFamily):
            SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=2.0, alpha=0.0)


class TestFundamentalOrlicz:
    def test_power_roundtrip(self):
        p = 2.0
        X = lorentz(p, 1.0)
        A = fundamental_orlicz(fundamental_function(X))
        Y = SpaceDescriptor(ORLICZ, UNIT, generator=A)
        phi = fundamental_function(Y)
        t = np.geomspace(1e-6, 1.0, 50)
        ratio = phi(t) / t ** (1.0 / p)
        assert ratio.max() <= 2.0 + 1e-9 and ratio.min() >= 0.5 - 1e-9

    def test_limiting_profile_gives_exponential_class(self):
        n = 3.0
        X = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n, alpha=-1.0)
        A = fundamental_orlicz(fundamental_function(X))
        # compare against the canonical exponential-class generator on a level
        E = exp_young(n / (n - 1.0))
        Y1 = SpaceDescriptor(ORLICZ, UNIT, generator=A)
        Y2 = SpaceDescriptor(ORLICZ, UNIT, generator=E)
        assert same_level(Y1, Y2)

    def test_random_profile_roundtrip(self):
        rng = np.random.default_rng(111)
        for _ in range(8):
            # build a concave increasing profile: integral of a decreasing step
            t = np.geomspace(1e-8, 1.0, 200)
            slope = np.maximum.accumulate(rng.uniform(0.1, 1.0, size=t.size)[::-1])[::-1]
            v = np.cumsum(np.concatenate(([t[0]], np.diff(t))) * slope)
            from orlicalc.monotone import MonotoneFn, NUMERIC_DESC
            phi = FundamentalFn(MonotoneFn(t, v, value_at_zero=0.0))
            A = fundamental_orlicz(phi)
            chi = A.base.right_inverse().correlative()
            x = np.geomspace(1e-6, 0.9, 60)
            ratio = chi(x) / phi(x)
            assert ratio.max() <= 2.0 + 1e-6 and ratio.min() >= 0.5 - 1e-6


class TestCompanions:
    def test_lorentz_triple(self):
        s, o, w = companions(lorentz(3.0, 2.0))
        assert (s.family, s.p, s.q) == (LORENTZ, 3.0, 1.0)
        assert (o.family, o.p) == (LEBESGUE, 3.0)
        assert (w.family, w.p, w.q) == (LORENTZ, 3.0, INF)

    def test_orlicz_fixed_point(self):
        X = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0))
        _, o, _ = companions(X)
        assert o is X

    def test_limiting_level_collapse(self):
        n, m = 3.0, 1.0
        X = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n / m, alpha=-1.0)
        s, o, w = companions(X)
        assert o.family == ORLICZ and o.generator.recipe["class"] == "exponential"
        assert o.generator.recipe["gamma"] == pytest.approx(n / (n - m))
        assert w.family == MARCINKIEWICZ

    def test_same_level_triple(self):
        for X in [lorentz(2.0, 4.0), lebesgue(3.0),
                  SpaceDescriptor(ORLICZ, UNIT, generator=power_young(1.5))]:
            s, o, w = companions(X)
            assert same_level(s, X) and same_level(o, X) and same_level(w, X)


class TestAssociate:
    def test_lebesgue_dual(self):
        for p, pd in [(1.0, INF), (2.0, 2.0), (4.0, 4.0 / 3.0), (INF, 1.0)]:
            Y = associate(lebesgue(p))
            assert Y.family == LEBESGUE and Y.p == pytest.approx(pd)

    def test_lambda_dual_is_weak_conjugate(self):
        X = SpaceDescriptor(LAMBDA, UNIT, generator=power_young(2.0))
        Y = associate(X)
        assert Y.family == MARCINKIEWICZ
        phi = fundamental_function(Y)
        t = np.geomspace(1e-6, 1.0, 30)
        # the conjugate of t^2 lives on the square-root level, up to an
        # absolute constant inherent in the endpoint duality
        ratio = phi(t) / np.sqrt(t)
        assert ratio.max() <= 4.0 and ratio.min() >= 0.25
        assert ratio.max() / ratio.min() <= 1.0 + 1e-9

    def test_fundamental_product_is_identity(self):
        for X in [lorentz(3.0, 2.0), lorentz(2.0, 2.0), lebesgue(1.5)]:
            Y = associate(X)
            px, py = fundamental_function(X), fundamental_function(Y)
            t = np.geomspace(1e-6, 1.0, 50)
            np.testing.assert_allclose(px(t) * py(t), t, rtol=1e-9)

    def test_double_associate_same_level(self):
        for X in [lorentz(3.0, 2.0),
                  SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0)),
                  SpaceDescriptor(LAMBDA, UNIT, generator=power_young(3.0))]:
            XX = associate(associate(X))
            assert same_level(X, XX)

    def test_unsupported(self):
        X = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=3.0, alpha=-1.0)
        with pytest.raises(UnsupportedFamily):
            associate(X)


class TestNorm:
    def test_characteristic_matches_profile_times_constant(self):
        rng = np.random.default_rng(113)
        spaces = [lebesgue(2.0), lorentz(3.0, 1.5), lorentz(2.0, INF),
                  SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0)),
                  SpaceDescriptor(LAMBDA, UNIT, generator=power_young(2.0)),
                  SpaceDescriptor(MARCINKIEWICZ, UNIT, generator=power_young(2.0))]
        for X in spaces:
            phi = fundamental_function(X)
            c = char_norm_constant(X)
            for _ in range(4):
                s = float(10.0 ** rng.uniform(-5, 0))
                got = norm(X, characteristic(s))
                assert got == pytest.approx(c * phi(s), rel=1e-9)
        # finite-p Lorentz-Zygmund profiles are exact at the table's points
        for p, q, alpha in [(2.0, 2.0, 1.0), (3.0, 1.5, -0.9), (1.5, 1.0, 0.0),
                            (4.0, INF, 0.5), (2.0, 3.0, -0.4)]:
            X = lz(p, q, alpha)
            phi = fundamental_function(X)
            c = char_norm_constant(X)
            for s in rng.choice(phi.phi.t, 6):
                got = norm(X, characteristic(float(s)))
                assert got == pytest.approx(c * phi(float(s)), rel=1e-12)

    def test_zero_function(self):
        assert norm(lorentz(2.0, 1.0), SampledFn([])) == 0.0

    def test_l2_oracle(self):
        rng = np.random.default_rng(115)
        X = lebesgue(2.0)
        for _ in range(6):
            f = random_sampled(rng)
            expect = math.sqrt(sum(v * v * w for v, w in f.pieces))
            assert norm(X, f) == pytest.approx(expect, rel=1e-11)

    def test_lorentz_zygmund_exact_values(self):
        # an adaptive quadrature cut at t = 1e-12 gave 23.45, 8.70, 1.626 and
        # 0.982 here, and 1.0 for every function at q = inf
        half, one = characteristic(0.5), characteristic(1.0)
        assert norm(lz(100.0, 1.0, 0.0), half) == pytest.approx(99.30924954370359,
                                                               rel=1e-13)
        assert norm(lz(10.0, 1.0, 0.0), half) == pytest.approx(9.330329915368074,
                                                              rel=1e-13)
        assert norm(lz(INF, 1.0, -1.5), one) == pytest.approx(2.0, rel=1e-13)
        assert norm(lz(INF, 2.0, -1.0), one) == pytest.approx(1.0, rel=1e-13)
        s = 0.3
        for value in [1.0, 5.0]:
            got = norm(lz(INF, INF, -1.0), characteristic(s, value))
            assert got == pytest.approx(value / (1.0 - math.log(s)), rel=1e-13)
        got = norm(lz(2.0, INF, 1.0), characteristic(s))
        assert got == pytest.approx(math.sqrt(s) * (1.0 - math.log(s)), rel=1e-13)

    def test_lorentz_zygmund_on_the_half_line_is_unsupported(self):
        X = SpaceDescriptor(LORENTZ_ZYGMUND, HALFLINE, p=2.0, q=2.0, alpha=1.0)
        with pytest.raises(UnsupportedFamily):
            norm(X, characteristic(0.5))

    def test_lorentz_zygmund_on_characteristic(self):
        n = 3.0
        X = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n, alpha=-1.0)
        phi = fundamental_function(X)
        for s in [1e-4, 1e-2, 0.3]:
            got = norm(X, characteristic(s))
            assert 0.25 <= got / phi(s) <= 4.0


class TestJson:
    def test_roundtrip(self):
        # table-class generators carry their growth class only in descriptors
        tables = [conjugate(linfty_young(2.0)), conjugate(power_young(3.0)),
                  conjugate(conjugate(exp_young(1.0)))]
        for X in [lorentz(3.0, 2.0), lebesgue(INF),
                  SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=3.0, alpha=-1.0),
                  SpaceDescriptor(ORLICZ, HALFLINE, generator=power_young(2.0))] + [
                      SpaceDescriptor(fam, UNIT, generator=g)
                      for fam in (ORLICZ, LAMBDA, MARCINKIEWICZ) for g in tables]:
            Y = SpaceDescriptor.from_json(json.loads(json.dumps(X.to_json())))
            assert Y.family == X.family and Y.interval == X.interval
            assert same_level(X, Y)
            assert power_level(Y) == power_level(X)
            assert exp_level(Y) == exp_level(X)
            assert (principal_alternative_target(Y).result
                    == principal_alternative_target(X).result)
