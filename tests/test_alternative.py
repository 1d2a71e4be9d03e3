import pytest

from orlicalc.alternative import (
    NO_OPTIMAL,
    OPTIMAL,
    embeds,
    exp_level,
    power_level,
    principal_alternative_domain,
    principal_alternative_target,
    weak_strong_collapse,
)
from orlicalc.monotone import INF
from orlicalc.spaces import (
    HALFLINE,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    LORENTZ_ZYGMUND,
    MARCINKIEWICZ,
    ORLICZ,
    UNIT,
    SpaceDescriptor,
    associate,
    same_level,
)
from orlicalc.young import (
    FAILS,
    HOLDS,
    _table_to_json,
    exp_young,
    linfty_young,
    power_young,
    young_from_json,
)


def lorentz(p, q):
    return SpaceDescriptor(LORENTZ, UNIT, p=p, q=q)


def lebesgue(p):
    return SpaceDescriptor(LEBESGUE, UNIT, p=p)


class TestEmbeds:
    def test_reflexive(self):
        X = lorentz(3.0, 2.0)
        assert embeds(X, X).status == HOLDS

    def test_subcritical_target_pair(self):
        n, p = 3.0, 2.0
        ps = n * p / (n - p)
        assert embeds(lorentz(ps, p), lebesgue(ps)).status == HOLDS

    def test_strong_endpoint_reverse_fails(self):
        n = 3.0
        assert embeds(lebesgue(n), lorentz(n, 1.0)).status == FAILS

    def test_first_index_rule_on_unit(self):
        assert embeds(lebesgue(3.0), lebesgue(2.0)).status == HOLDS
        assert embeds(lebesgue(2.0), lebesgue(3.0)).status == FAILS

    def test_orlicz_pair(self):
        X = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(3.0))
        Y = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0))
        assert embeds(X, Y).status == HOLDS
        assert embeds(Y, X).status == FAILS

    def test_limiting_scale_into_exponential(self):
        n = 3.0
        Y = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n, alpha=-1.0)
        E = SpaceDescriptor(ORLICZ, UNIT, generator=exp_young(n / (n - 1.0)))
        assert embeds(Y, E).status == HOLDS
        assert embeds(E, Y).status == FAILS

    def test_exp_endpoint_collapse(self):
        E = exp_young(1.5)
        weak = SpaceDescriptor(MARCINKIEWICZ, UNIT, generator=E)
        mid = SpaceDescriptor(ORLICZ, UNIT, generator=E)
        assert embeds(weak, mid).status == HOLDS
        assert embeds(mid, weak).status == HOLDS

    def test_power_level_no_collapse(self):
        A = power_young(2.0)
        weak = SpaceDescriptor(MARCINKIEWICZ, UNIT, generator=A)
        mid = SpaceDescriptor(ORLICZ, UNIT, generator=A)
        assert embeds(mid, weak).status == HOLDS
        assert embeds(weak, mid).status == FAILS


class TestPrincipalAlternative:
    def test_subcritical_target(self):
        n, p, m = 3.0, 2.0, 1.0
        ps = n * p / (n - p)
        out = principal_alternative_target(lorentz(ps, p))
        assert out.result == OPTIMAL
        assert out.space.family == LEBESGUE and out.space.p == pytest.approx(ps)

    def test_limiting_target(self):
        n = 3.0
        Y = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=n, alpha=-1.0)
        out = principal_alternative_target(Y)
        assert out.result == OPTIMAL
        assert out.space.family == ORLICZ
        assert out.space.generator.recipe["gamma"] == pytest.approx(n / (n - 1.0))

    def test_orlicz_fixed_point(self):
        Y = SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0))
        out = principal_alternative_target(Y)
        assert out.result == OPTIMAL and out.space is Y

    def test_subcritical_domain(self):
        n, p = 3.0, 2.0
        X = lorentz(p, n * p / (n - p))
        out = principal_alternative_domain(X)
        assert out.result == OPTIMAL
        assert out.space.family == LEBESGUE and out.space.p == pytest.approx(p)

    def test_endpoint_domain_has_no_optimal(self):
        n = 3.0
        out = principal_alternative_domain(lorentz(n, 1.0))
        assert out.result == NO_OPTIMAL

    def test_all_pairs_n_p(self):
        for (n, p) in [(3.0, 2.0), (4.0, 2.0)]:
            ps = n * p / (n - p)
            assert principal_alternative_target(lorentz(ps, p)).result == OPTIMAL
            assert principal_alternative_domain(lorentz(p, ps)).result == OPTIMAL
            assert principal_alternative_domain(lorentz(n, 1.0)).result == NO_OPTIMAL


class TestInvariants:
    def test_dichotomy_and_level(self):
        cases = [lorentz(3.0, 1.0), lorentz(3.0, 2.0), lorentz(2.0, INF),
                 lebesgue(2.5),
                 SpaceDescriptor(ORLICZ, UNIT, generator=power_young(1.5))]
        for Y in cases:
            out = principal_alternative_target(Y)
            assert out.result in (OPTIMAL, NO_OPTIMAL)
            assert same_level(Y, out.space)

    def test_duality_consistency_on_lorentz(self):
        for (p, q) in [(3.0, 1.5), (2.0, 1.0), (1.5, 3.0), (4.0, 4.0)]:
            Y = lorentz(p, q)
            t_out = principal_alternative_target(Y)
            d_out = principal_alternative_domain(associate(Y))
            assert t_out.result == d_out.result

    def test_monotonicity_on_lorentz_triples(self):
        p = 3.0
        for (q1, q2) in [(1.0, 2.0), (2.0, 3.0), (1.5, p)]:
            Y1, Y2 = lorentz(p, q1), lorentz(p, q2)
            assert embeds(Y1, Y2).status == HOLDS
            if principal_alternative_target(Y2).result == OPTIMAL:
                assert principal_alternative_target(Y1).result == OPTIMAL


class TestLevelClassifiers:
    def test_power_level(self):
        assert power_level(lorentz(3.0, 2.0)) == (3.0, 2.0)
        assert power_level(SpaceDescriptor(ORLICZ, UNIT, generator=power_young(2.0))) == (2.0, 2.0)
        assert power_level(SpaceDescriptor(LAMBDA, UNIT, generator=power_young(2.0))) == (2.0, 1.0)

    def test_exp_level(self):
        Y = SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=INF, q=3.0, alpha=-1.0)
        assert exp_level(Y) == pytest.approx(1.5)
        E = SpaceDescriptor(ORLICZ, UNIT, generator=exp_young(1.5))
        assert exp_level(E) == pytest.approx(1.5)

    @pytest.mark.parametrize("gen", [power_young(2.5), exp_young(1.5), linfty_young(2.0)])
    def test_tables_classify_as_their_class(self, gen):
        # growth classes come from the descriptors, which a table loaded
        # from JSON keeps, and never from the class tag
        table = young_from_json({"class": "table", **_table_to_json(gen.base, ""),
                                 **_table_to_json(gen.derivative, "derivative_")})
        assert table.recipe == {"class": "table"}
        assert weak_strong_collapse(table) == weak_strong_collapse(gen)
        for interval in (UNIT, HALFLINE):
            for fam in (ORLICZ, LAMBDA, MARCINKIEWICZ):
                X, Y = (SpaceDescriptor(fam, interval, generator=g) for g in (gen, table))
                assert power_level(Y) == power_level(X)
                assert exp_level(Y) == exp_level(X)
