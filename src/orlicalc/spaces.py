"""Catalog of rearrangement-invariant space descriptors.

Each descriptor names a family (Lebesgue, two-parameter Lorentz,
Lorentz-Zygmund, Orlicz, strong/weak Orlicz endpoints, classical Lorentz
with a step weight) over the unit interval or the half-line.  The catalog
computes fundamental functions (canonical representatives, with the
family's characteristic-norm constant surfaced separately), the unique
Orlicz space on a fundamental level, endpoint companions, associates, and
norm evaluation on sampled functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import (
    INF,
    MonotoneFn,
    default_grid,
    limit_const_desc,
    power_log_desc,
)
from .rearrangement import (
    SampledFn,
    classical_lorentz_norm,
    lambda_norm,
    log_weight_integral,
    lorentz_power_norm,
    luxemburg_norm,
    marcinkiewicz_norm,
)
from .young import (
    QuasiConvexFn,
    YoungFn,
    _num_from_json,
    _num_to_json,
    conjugate,
    exp_young,
    power_young,
    quasi_convex_from_json,
    young_from_json,
    young_to_json,
    youngify,
)

UNIT = "unit"
HALFLINE = "halfline"

LEBESGUE = "lebesgue"
LORENTZ = "lorentz"
LORENTZ_ZYGMUND = "lorentz-zygmund"
ORLICZ = "orlicz"
LAMBDA = "lambda"
MARCINKIEWICZ = "marcinkiewicz"
CLASSICAL_LORENTZ = "classical-lorentz"


class UnsupportedFamily(ValueError):
    """The catalog has no rule for this family/parameter combination."""


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    family: str
    interval: str = UNIT
    p: float = math.nan
    q: float = math.nan
    alpha: float = 0.0
    generator: Optional[QuasiConvexFn] = None
    weight: Optional[SampledFn] = None

    def __post_init__(self):
        if self.interval not in (UNIT, HALFLINE):
            raise UnsupportedFamily(f"unknown interval {self.interval!r}")
        fam = self.family
        if fam == LEBESGUE:
            if not (self.p >= 1.0):
                raise UnsupportedFamily("Lebesgue exponent must be >= 1")
        elif fam == LORENTZ:
            ok = (1.0 < self.p < INF and 1.0 <= self.q <= INF) \
                or (self.p == self.q == 1.0) or (self.p == self.q == INF) \
                or (self.p == 1.0 and self.q == INF)
            if not ok:
                raise UnsupportedFamily(f"Lorentz pair ({self.p}, {self.q}) "
                                        "is not an admissible space")
        elif fam == LORENTZ_ZYGMUND:
            if not math.isfinite(self.alpha):
                raise UnsupportedFamily(f"Lorentz-Zygmund alpha must be finite, "
                                        f"not {self.alpha!r}")
            if self.p == INF:
                if not (self.q >= 1.0 and self.alpha + 1.0 / self.q < 0.0):
                    raise UnsupportedFamily(
                        "Lorentz-Zygmund with infinite first index needs "
                        "alpha + 1/q < 0")
            elif not (1.0 < self.p < INF and self.q >= 1.0):
                raise UnsupportedFamily("Lorentz-Zygmund first index out of range")
        elif fam in (ORLICZ, LAMBDA, MARCINKIEWICZ):
            if self.generator is None:
                raise UnsupportedFamily(f"{fam} descriptor needs a generator")
        elif fam == CLASSICAL_LORENTZ:
            if self.weight is None or not (self.q > 0):
                raise UnsupportedFamily("classical Lorentz needs a weight and q > 0")
        else:
            raise UnsupportedFamily(f"unknown family {fam!r}")

    # -- presentation -----------------------------------------------------

    def label(self):
        if self.family == LEBESGUE:
            return f"L^{_fmt(self.p)}"
        if self.family == LORENTZ:
            return f"L^({_fmt(self.p)},{_fmt(self.q)})"
        if self.family == LORENTZ_ZYGMUND:
            return f"L^({_fmt(self.p)},{_fmt(self.q)};{_fmt(self.alpha)})"
        if self.family == ORLICZ:
            return f"Orlicz[{_gen_label(self.generator)}]"
        if self.family == LAMBDA:
            return f"Lorentz-endpoint[{_gen_label(self.generator)}]"
        if self.family == MARCINKIEWICZ:
            return f"Marcinkiewicz[{_gen_label(self.generator)}]"
        return f"ClassicalLorentz[q={_fmt(self.q)}]"

    def to_json(self):
        out = {"family": self.family, "interval": self.interval, "params": {}}
        P = out["params"]
        if self.family in (LEBESGUE, LORENTZ, LORENTZ_ZYGMUND):
            P["p"] = _num_to_json(self.p)
            if self.family != LEBESGUE:
                P["q"] = _num_to_json(self.q)
            if self.family == LORENTZ_ZYGMUND:
                P["alpha"] = self.alpha
        elif self.family == ORLICZ:
            P["young"] = young_to_json(self.generator)
        elif self.family in (LAMBDA, MARCINKIEWICZ):
            P["generator"] = young_to_json(self.generator)
        else:
            P["weight"] = self.weight.to_json()
            P["q"] = _num_to_json(self.q)
        return out

    @staticmethod
    def from_json(obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("family", ""), str)
                and isinstance(obj.get("params", {}), dict)):
            raise ValueError("a space description is a JSON object with a family "
                             "name and an object of params")
        fam = obj.get("family", "").lower()
        interval = obj.get("interval", UNIT)
        P = obj.get("params", {})
        num = lambda key, dflt=math.nan: _num_from_json(P.get(key, dflt))
        if fam == LEBESGUE:
            return SpaceDescriptor(LEBESGUE, interval, p=num("p"))
        if fam == LORENTZ:
            return SpaceDescriptor(LORENTZ, interval, p=num("p"), q=num("q"))
        if fam == LORENTZ_ZYGMUND:
            return SpaceDescriptor(LORENTZ_ZYGMUND, interval, p=num("p"),
                                   q=num("q"), alpha=float(P.get("alpha", 0.0)))
        if fam == ORLICZ:
            return SpaceDescriptor(ORLICZ, interval,
                                   generator=young_from_json(P["young"]))
        if fam == LAMBDA:
            return SpaceDescriptor(LAMBDA, interval,
                                   generator=quasi_convex_from_json(P["generator"]))
        if fam == MARCINKIEWICZ:
            return SpaceDescriptor(MARCINKIEWICZ, interval,
                                   generator=quasi_convex_from_json(P["generator"]))
        if fam == CLASSICAL_LORENTZ:
            return SpaceDescriptor(CLASSICAL_LORENTZ, interval,
                                   weight=SampledFn.from_json(P["weight"]),
                                   q=num("q"))
        raise UnsupportedFamily(f"unknown family {fam!r}")


def _fmt(x):
    if x != x:
        return "?"
    if math.isinf(x):
        return "inf"
    return f"{x:g}"


def _gen_label(g):
    recipe = getattr(g, "recipe", None) or {}
    cls = recipe.get("class", "table")
    if cls == "power-log":
        return f"t^{recipe['p']:g}" + (
            f" log^{recipe.get('alpha_inf', 0):g}" if recipe.get("alpha_inf") else "")
    if cls == "exponential":
        return f"exp(t^{recipe['gamma']:g})"
    if cls == "linfty":
        return "sup-generator"
    return "table"


@dataclass(frozen=True)
class FundamentalFn:
    """Canonical profile of the norm of characteristic functions by measure."""

    phi: MonotoneFn

    def __post_init__(self):
        t, v = self.phi.t, self.phi.v
        fin = np.isfinite(v) & (v > 0)
        ratio = t[fin] / v[fin]
        if np.any(np.diff(ratio) < -1e-9 * np.maximum(ratio[:-1], 1e-300)):
            raise ValueError("measure/norm ratio must be non-decreasing")
        if self.phi.value_at_zero != 0.0:
            raise ValueError("fundamental function must vanish at zero")

    def __call__(self, x):
        return self.phi(x)


def _unit_grid():
    return default_grid(-8, 0)


def fundamental_function(X: SpaceDescriptor) -> FundamentalFn:
    """Canonical fundamental function of a catalog space; the family's
    characteristic-norm constant is reported by :func:`char_norm_constant`."""
    fam = X.family
    if fam == LEBESGUE or fam == LORENTZ:
        if X.p == INF:
            phi = _flat_profile(X)
        else:
            phi = _power_profile(X, 1.0 / X.p)
        return FundamentalFn(phi)
    if fam == LORENTZ_ZYGMUND:
        if X.interval != UNIT:
            raise UnsupportedFamily("Lorentz-Zygmund profiles are catalogued "
                                    "on the unit interval")
        t = _unit_grid()
        if X.p == INF:
            expo, a = 0.0, X.alpha + 1.0 / X.q
            v = (1.0 - np.log(t)) ** a
        else:
            # the norm of the characteristic function of (0, t); for q = inf
            # the supremum of t**(1/p) (1 - log t)**alpha up to its peak
            expo, a = 1.0 / X.p, X.alpha
            if math.isinf(X.q):
                s = np.minimum(t, math.exp(1.0 - a * X.p) if a > 0 else INF)
                v = s ** expo * (1.0 - np.log(s)) ** a
            else:
                v = log_weight_integral(X.q / X.p, a * X.q, 1.0 - np.log(t)) ** (1.0 / X.q)
        phi = MonotoneFn(t, v, power_log_desc(expo, a), limit_const_desc(float(v[-1])),
                         value_at_zero=0.0)
        return FundamentalFn(phi)
    if fam in (ORLICZ, LAMBDA, MARCINKIEWICZ):
        return FundamentalFn(X.generator.char_profile)
    if fam == CLASSICAL_LORENTZ:
        # the weight's mass up to the end of each step, added in order
        wt = X.weight
        t = wt.breaks[1:]
        v = np.cumsum(wt.values * wt.widths) ** (1.0 / X.q)
        phi = MonotoneFn(t, v, power_log_desc(1.0 / X.q),
                         limit_const_desc(float(v[-1])), value_at_zero=0.0)
        return FundamentalFn(phi)
    raise UnsupportedFamily(fam)


def _power_profile(X, expo):
    if X.interval == UNIT:
        t = _unit_grid()
        v = t ** expo
        return MonotoneFn(t, v, power_log_desc(expo), limit_const_desc(1.0),
                          value_at_zero=0.0)
    t = default_grid()
    return MonotoneFn(t, t ** expo, power_log_desc(expo), power_log_desc(expo),
                      value_at_zero=0.0)


def _flat_profile(X):
    t = _unit_grid() if X.interval == UNIT else default_grid()
    return MonotoneFn(t, np.ones_like(t), limit_const_desc(1.0),
                      limit_const_desc(1.0), value_at_zero=0.0)


def char_norm_constant(X: SpaceDescriptor):
    """Exact ratio between the family's norm of a characteristic function and
    the canonical fundamental function, where a closed form exists."""
    if X.family in (LEBESGUE, ORLICZ, LAMBDA, MARCINKIEWICZ, CLASSICAL_LORENTZ):
        return 1.0
    if X.family == LORENTZ:
        if math.isinf(X.q) or X.p == X.q:
            return 1.0
        return (X.p / X.q) ** (1.0 / X.q)
    if X.p != INF:
        return 1.0  # the Lorentz-Zygmund profile is the norm itself
    return None  # surfaced as "up to equivalence" at the exponential levels


def fundamental_orlicz(phi: FundamentalFn) -> YoungFn:
    """The Young function whose Orlicz space lives on the given fundamental
    level: the reciprocal reflection of the right-continuous inverse of the
    profile, convexified."""
    qc = QuasiConvexFn(phi.phi.right_inverse().correlative())
    return youngify(qc)


def lz_exp_rate(X: SpaceDescriptor) -> float:
    """The rate gamma = q / (q - 1) of the exp(t**gamma) level of the
    Lorentz-Zygmund space L^(inf,q;-1), and its limit 1 (exp L) at q = inf."""
    return 1.0 if math.isinf(X.q) else X.q / (X.q - 1.0)


def companions(X: SpaceDescriptor):
    """The endpoint and Orlicz spaces on the fundamental level of X, as
    (strong endpoint, Orlicz, weak endpoint)."""
    fam = X.family
    itv = X.interval
    if fam == LEBESGUE or fam == LORENTZ:
        p = X.p
        if p == INF:
            sup = SpaceDescriptor(LEBESGUE, itv, p=INF)
            return sup, sup, sup
        if p == 1.0:
            one = SpaceDescriptor(LEBESGUE, itv, p=1.0)
            weak = SpaceDescriptor(MARCINKIEWICZ, itv, generator=power_young(1.0))
            return one, one, weak
        return (SpaceDescriptor(LORENTZ, itv, p=p, q=1.0),
                SpaceDescriptor(LEBESGUE, itv, p=p),
                SpaceDescriptor(LORENTZ, itv, p=p, q=INF))
    if fam == LORENTZ_ZYGMUND and X.p == INF and X.alpha == -1.0:
        gen = exp_young(lz_exp_rate(X))
        return (SpaceDescriptor(LAMBDA, itv, generator=gen),
                SpaceDescriptor(ORLICZ, itv, generator=gen),
                SpaceDescriptor(MARCINKIEWICZ, itv, generator=gen))
    if fam == ORLICZ:
        gen = X.generator
        return (SpaceDescriptor(LAMBDA, itv, generator=gen), X,
                SpaceDescriptor(MARCINKIEWICZ, itv, generator=gen))
    if fam in (LAMBDA, MARCINKIEWICZ):
        gen = X.generator
        young = gen if isinstance(gen, YoungFn) else youngify(gen)
        return (SpaceDescriptor(LAMBDA, itv, generator=gen),
                SpaceDescriptor(ORLICZ, itv, generator=young),
                SpaceDescriptor(MARCINKIEWICZ, itv, generator=gen))
    # numeric route: recover the generator from the fundamental function
    gen = fundamental_orlicz(fundamental_function(X))
    return (SpaceDescriptor(LAMBDA, itv, generator=gen),
            SpaceDescriptor(ORLICZ, itv, generator=gen),
            SpaceDescriptor(MARCINKIEWICZ, itv, generator=gen))


def associate(X: SpaceDescriptor) -> SpaceDescriptor:
    """The associate (Koethe dual) descriptor, for families in the duality
    table; fundamental functions multiply to the identity."""
    fam, itv = X.family, X.interval
    if fam == LEBESGUE:
        return SpaceDescriptor(LEBESGUE, itv, p=_dual_exp(X.p))
    if fam == LORENTZ:
        if X.p == 1.0 and X.q == 1.0:
            return SpaceDescriptor(LEBESGUE, itv, p=INF)
        if X.p == INF:
            return SpaceDescriptor(LEBESGUE, itv, p=1.0)
        if not (1.0 < X.p < INF):
            raise UnsupportedFamily("no associate rule for this Lorentz pair")
        return SpaceDescriptor(LORENTZ, itv, p=_dual_exp(X.p), q=_dual_exp(X.q))
    if fam == ORLICZ:
        return SpaceDescriptor(ORLICZ, itv, generator=_conj(X.generator))
    if fam == LAMBDA:
        return SpaceDescriptor(MARCINKIEWICZ, itv, generator=_conj(X.generator))
    if fam == MARCINKIEWICZ:
        return SpaceDescriptor(LAMBDA, itv, generator=_conj(X.generator))
    raise UnsupportedFamily(f"{fam} is outside the duality table")


def _conj(gen):
    young = gen if isinstance(gen, YoungFn) else youngify(gen)
    return conjugate(young)


def _dual_exp(p):
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def norm(X: SpaceDescriptor, f: SampledFn):
    """Evaluate the family's functional on a sampled function; exact on steps
    for every family."""
    fam = X.family
    if fam == LEBESGUE:
        if X.p == INF:
            return f.sup_value()
        return lorentz_power_norm(f, X.p, X.p)
    if fam == LORENTZ:
        return lorentz_power_norm(f, X.p, X.q)
    if fam == LORENTZ_ZYGMUND:
        if X.interval != UNIT:
            raise UnsupportedFamily("Lorentz-Zygmund norms are catalogued "
                                    "on the unit interval")
        return lorentz_power_norm(f, X.p, X.q, X.alpha)
    if fam == ORLICZ:
        return luxemburg_norm(f, X.generator)
    if fam == LAMBDA:
        return lambda_norm(f, X.generator)
    if fam == MARCINKIEWICZ:
        return marcinkiewicz_norm(f, X.generator)
    if fam == CLASSICAL_LORENTZ:
        return classical_lorentz_norm(f, X.weight, X.q)
    raise UnsupportedFamily(fam)


def same_level(X: SpaceDescriptor, Y: SpaceDescriptor, window=(1e-6, 1.0),
               cap=16.0):
    """Whether two catalog spaces share a fundamental level: the ratio of
    their fundamental functions stays within [1/cap, cap] on the window."""
    phi_x = fundamental_function(X)
    phi_y = fundamental_function(Y)
    lo, hi = window
    if X.interval == HALFLINE and Y.interval == HALFLINE:
        hi = max(hi, 1e6)
    t = np.geomspace(lo, hi, 257)
    vx, vy = phi_x(t), phi_y(t)
    pos = (vx > 0) & (vy > 0) & np.isfinite(vx) & np.isfinite(vy)
    if not pos.any():
        return False
    r = vx[pos] / vy[pos]
    return float(np.max(r)) <= cap and float(np.min(r)) >= 1.0 / cap
