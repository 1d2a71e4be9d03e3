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
    power_log_young,
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


class TestSharedLevels:
    """Mixed families on one fundamental level, and the rules that reach no
    level at all."""

    def lz(self, p, q, alpha):
        return SpaceDescriptor(LORENTZ_ZYGMUND, UNIT, p=p, q=q, alpha=alpha)

    def test_a_bounded_ratio_on_a_window_is_not_a_shared_level(self):
        # t**(1/2) (1 - log t)**(1/2) against t**(1/4) and t**(1/3) stays
        # within a factor 16 on (1e-6, 1), but the profiles' classes at 0
        # differ: f = t**-0.4 lies in L^{2,2;1/2} and not in L^{4,2} or L^3
        X = self.lz(2.0, 2.0, 0.5)
        for Y in (self.lz(4.0, 2.0, 0.0),
                  SpaceDescriptor(ORLICZ, UNIT, generator=power_young(3.0))):
            assert same_level(X, Y)
            assert embeds(X, Y).status != HOLDS

    def test_lorentz_zygmund_spaces_sit_by_their_second_index(self):
        # L^{2,2;1/2} is L^2 (log L)^1, the Orlicz space of its level; a
        # second index below 2 gives a smaller space, one above a larger one
        for q, domain, target in ((1.0, NO_OPTIMAL, OPTIMAL), (2.0, OPTIMAL, OPTIMAL),
                                  (4.0, OPTIMAL, NO_OPTIMAL)):
            X = self.lz(2.0, q, 0.5)
            assert principal_alternative_domain(X).result == domain, q
            assert principal_alternative_target(X).result == target, q

    def test_same_family_generators(self):
        # t**2 log t dominates t**2 near infinity: on the unit interval the
        # Orlicz space of the first embeds into that of the second
        X, Y = (SpaceDescriptor(ORLICZ, UNIT, generator=g)
                for g in (power_log_young(2.0, 0.0, 1.0), power_young(2.0)))
        v = embeds(X, Y)
        assert v.status == HOLDS and v.reason.startswith("generator domination")
        assert embeds(Y, X).status == FAILS

    def test_lorentz_zygmund_first_index_rule(self):
        # on (0, 1) distinct finite first indices order the spaces whatever
        # the second indices and log factors: L^{4,2}, L^3 and L^{3,2} lie
        # in L^{2,2;1/2} = L^2 (log L)^1, and it lies in none of them
        Y = self.lz(2.0, 2.0, 0.5)
        for X in (self.lz(4.0, 2.0, 0.0), lebesgue(3.0), lorentz(3.0, 2.0),
                  self.lz(2.5, 8.0, -0.5)):
            v, back = embeds(X, Y), embeds(Y, X)
            assert (v.status, back.status) == (HOLDS, FAILS), X.label()
            assert v.reason == back.reason == "first-index rule on finite measure"

    def test_fundamental_refuter(self):
        # no level is shared and no family rule applies: L^1's profile t
        # falls below any multiple of t**(1/8) near 0, so L^1 is not in
        # L^{8,2}
        X = SpaceDescriptor(LAMBDA, UNIT, generator=power_young(1.0))
        v = embeds(X, self.lz(8.0, 2.0, 0.0))
        assert (v.status, v.witness) == (FAILS, 1e-7)
        assert v.reason == "target profile exceeds any multiple of the domain profile"


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
