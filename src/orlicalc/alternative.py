"""Embedding decisions between catalog spaces and the optimal-Orlicz dichotomy.

The dichotomy: on every fundamental level there is exactly one Orlicz
space; a space embeds into it (resp. contains it) precisely when the level
admits a smallest (resp. largest) Orlicz space, and that space is the
level's own Orlicz representative.  The engine decides the embedding with
exact family rules where they exist and reports an honest third state
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import GLOBAL, INF, NEAR_INFINITY, EXPONENTIAL, INFINITE_BEYOND, POWER_LOG
from .spaces import (
    HALFLINE,
    LAMBDA,
    LEBESGUE,
    LORENTZ,
    LORENTZ_ZYGMUND,
    MARCINKIEWICZ,
    ORLICZ,
    UNIT,
    SpaceDescriptor,
    companions,
    fundamental_function,
    same_level,
)
from .young import (
    FAILS,
    HOLDS,
    UNDECIDED,
    Verdict,
    YoungFn,
    _same_exponent,
    dominates,
    fails,
    holds,
    undecided,
    youngify,
)

OPTIMAL = "optimal"
NO_OPTIMAL = "no-optimal"
UNDECIDED_OUTCOME = "undecided"
_RESULTS = {HOLDS: OPTIMAL, FAILS: NO_OPTIMAL, UNDECIDED: UNDECIDED_OUTCOME}

TARGET = "target"
DOMAIN = "domain"


@dataclass(frozen=True)
class AlternativeOutcome:
    """Result of the optimal-Orlicz decision for one side of an embedding:
    the optimal space exists exactly when its evidence holds."""

    side: str
    space: Optional[SpaceDescriptor]
    evidence: Verdict
    rule: str
    extra: Optional[dict] = None

    @property
    def result(self):
        return _RESULTS[self.evidence.status]


# -- level classification ---------------------------------------------------


def _generator_power(X):
    """Exponent p when the generator is a pure power for the relevant regime."""
    gen = X.generator
    d_inf = gen.base.inf_desc
    if d_inf.kind == POWER_LOG and d_inf.alpha == 0.0:
        p = d_inf.p
        if X.interval == UNIT:
            return float(p)
        d0 = gen.base.zero_desc
        if d0.kind == POWER_LOG and d0.alpha == 0.0 and d0.p == p:
            return float(p)
    if d_inf.kind == INFINITE_BEYOND or gen.t_inf < INF:
        return INF
    return None


def power_level(X: SpaceDescriptor):
    """(p, secondary index) when X sits on the level of t**(1/p), else None.

    The secondary index orders the spaces on a fixed power level: 1 for the
    strong endpoint, p for the Orlicz space, inf for the weak endpoint.
    """
    if X.family == LEBESGUE:
        return (X.p, X.p)
    if X.family == LORENTZ:
        return (X.p, X.q)
    if X.family in (ORLICZ, LAMBDA, MARCINKIEWICZ):
        p = _generator_power(X)
        if p is None:
            return None
        if X.family == ORLICZ:
            return (p, p)
        return (p, 1.0) if X.family == LAMBDA else (p, INF)
    return None


def _first_index(X: SpaceDescriptor):
    """The first index p of a Lorentz-Zygmund space or of a power level,
    else None.  Only the first-index rule of :func:`embeds` reads an LZ
    space's p: its second index does not order an LZ level once alpha != 0."""
    if X.family == LORENTZ_ZYGMUND:
        return X.p
    level = power_level(X)
    return None if level is None else level[0]


def exp_level(X: SpaceDescriptor):
    """Rate gamma when X sits on the level of exp(t**gamma), else None."""
    if X.family == LORENTZ_ZYGMUND and X.p == INF and X.alpha == -1.0:
        return X.q / (X.q - 1.0)
    if X.family in (ORLICZ, LAMBDA, MARCINKIEWICZ):
        d = X.generator.base.inf_desc
        if d.kind == EXPONENTIAL:
            return float(d.gamma)
    return None


def _strength(X: SpaceDescriptor, collapse: bool):
    """Position within one fundamental level: strong endpoint < middle < weak.

    With a weak/Orlicz collapse the Orlicz space moves to the top.
    """
    if X.family == LAMBDA:
        return 0
    if X.family == LORENTZ_ZYGMUND:
        # on a power level q against p, as for Lorentz spaces: q = 1 is the
        # strong endpoint, q = p the Orlicz space, q = inf the weak one
        if math.isinf(X.p) or X.q == X.p:
            return 1
        return (X.q - 1.0) / (X.p - 1.0) if X.q < X.p else 3.0 - 2.0 * X.p / X.q
    if X.family == ORLICZ:
        return 3 if collapse else 1
    if X.family == MARCINKIEWICZ:
        return 3
    return None


def weak_strong_collapse(X_orlicz_gen) -> bool:
    """Whether the weak Orlicz space collapses onto the Orlicz space on this
    level; true for exponential-rate and sup-norm-type generators."""
    d = X_orlicz_gen.base.inf_desc
    return d.kind == EXPONENTIAL or X_orlicz_gen.t_inf < INF


# -- the embedding decision ---------------------------------------------------


def embeds(X: SpaceDescriptor, Y: SpaceDescriptor) -> Verdict:
    """Decide X -> Y (continuous inclusion) between catalog spaces."""
    if X.interval != Y.interval:
        raise ValueError("spaces must live over the same interval")
    unit = X.interval == UNIT

    if X is Y or _same_descriptor(X, Y):
        return holds(1.0, reason="identical descriptor")

    # exact rule on power levels (second-index comparison)
    px, py = power_level(X), power_level(Y)
    if px is not None and py is not None:
        (p1, q1), (p2, q2) = px, py
        if p1 == p2:
            if q1 <= q2:
                return holds(1.0, reason="second-index rule")
            return fails(reason="second-index rule")
        if unit:
            if p1 > p2 or p1 == INF:
                return holds(1.0, reason="first-index rule on finite measure")
            return fails(reason="first-index rule on finite measure")
        return fails(reason="distinct powers never nest on the half-line")

    # exponential-scale levels
    gx, gy = exp_level(X), exp_level(Y)
    if gx is not None and gy is not None:
        if not math.isclose(gx, gy, rel_tol=1e-9):
            if not unit:
                return fails(reason="distinct exponential rates on the half-line")
            # finite measure: the faster rate gives the smaller space
            if gx > gy:
                return holds(1.0, reason="exponential-rate order on finite measure")
            return fails(reason="exponential-rate order on finite measure")
        if X.family == Y.family == LORENTZ_ZYGMUND:
            if X.q <= Y.q:
                return holds(1.0, reason="second-index rule")
            return fails(reason="second-index rule")
        collapse = True  # exponential rate implies the weak/Orlicz collapse
        sx, sy = _strength(X, collapse), _strength(Y, collapse)
        if sx is not None and sy is not None:
            if sx <= sy:
                return holds(1.0, reason="endpoint order on a collapsed level")
            return fails(reason="endpoint order on a collapsed level")

    # same-family comparisons through the generators
    regime = NEAR_INFINITY if unit else GLOBAL
    if X.family == Y.family and X.family in (ORLICZ, LAMBDA, MARCINKIEWICZ):
        v = dominates(_as_young(X.generator), _as_young(Y.generator), regime)
        return Verdict(v.status, v.witness, "generator domination: " + v.reason)

    # mixed families on one fundamental level: endpoint ordering
    if (_family_comparable(X) and _family_comparable(Y) and same_level(X, Y)
            and _same_profile_class(X, Y)):
        o = _middle_orlicz_generator(X, Y)
        collapse = weak_strong_collapse(o) if o is not None else False
        sx, sy = _strength(X, collapse), _strength(Y, collapse)
        if sx is not None and sy is not None:
            if sx <= sy:
                return holds(1.0, reason="endpoint order on a shared level")
            if sx == 3 and sy == 1:
                return undecided("weak/Orlicz collapse not established")
            return fails(reason="endpoint order on a shared level")

    # necessary comparison of fundamental functions as a refuter
    ref = _fundamental_refuter(X, Y)
    if ref is not None:
        return ref

    # distinct finite first indices of a Lorentz-Zygmund space on finite
    # measure: for p1 > p2 the factor t**(1/p2 - 1/p1) log(e/t)**beta lies
    # in every L^r(dt/t) on (0, 1), whatever the second indices and logs
    if unit and LORENTZ_ZYGMUND in (X.family, Y.family):
        p1, p2 = _first_index(X), _first_index(Y)
        if p1 is not None and p2 is not None and max(p1, p2) < INF \
                and not _same_exponent(p1, p2):
            if p1 > p2:
                return holds(reason="first-index rule on finite measure")
            return fails(reason="first-index rule on finite measure")

    return undecided("no exact rule for this family pair")


def _same_descriptor(X, Y):
    if X.family != Y.family or X.interval != Y.interval:
        return False
    if X.family in (LEBESGUE, LORENTZ, LORENTZ_ZYGMUND):
        return (X.p, X.q, X.alpha) == (Y.p, Y.q, Y.alpha)
    return X.generator is Y.generator and X.weight is Y.weight


def _family_comparable(X):
    return X.family in (ORLICZ, LAMBDA, MARCINKIEWICZ, LORENTZ_ZYGMUND)


def _same_profile_class(X, Y):
    """Whether the fundamental profiles of X and Y carry one descriptor at
    0, and at +inf on the half-line: a bounded ratio on a window of the
    grid does not tell t**(1/2) log(1/t)**(1/2) from t**(1/4)."""
    fx, fy = fundamental_function(X).phi, fundamental_function(Y).phi
    ends = [(fx.zero_desc, fy.zero_desc), (fx.inf_desc, fy.inf_desc)]
    ends = ends[:2 if X.interval == HALFLINE else 1]
    return all(a.kind == b.kind and all(_same_exponent(getattr(a, key), getattr(b, key))
                                        for key in ("p", "alpha", "gamma")) for a, b in ends)


def _middle_orlicz_generator(X, Y):
    for Z in (X, Y):
        if Z.family == ORLICZ:
            return Z.generator
    for Z in (X, Y):
        if Z.family in (LAMBDA, MARCINKIEWICZ):
            return _as_young(Z.generator)
    return None


def _as_young(gen):
    return gen if isinstance(gen, YoungFn) else youngify(gen)


def _fundamental_refuter(X, Y):
    """X -> Y forces the target profile below the domain profile; refute when
    the ratio grows without bound toward the relevant end."""
    phi_x = fundamental_function(X)
    phi_y = fundamental_function(Y)
    hi = 1.0 if X.interval == UNIT else 1e6
    t = np.geomspace(1e-7, hi, 200)
    vx, vy = phi_x(t), phi_y(t)
    pos = (vx > 0) & (vy > 0) & np.isfinite(vx) & np.isfinite(vy)
    if not pos.any():
        return None
    r = vy[pos] / vx[pos]
    if r[0] > 1e3 * max(r[-1], np.median(r)):
        return fails(witness=float(t[pos][0]),
                     reason="target profile exceeds any multiple of the domain profile")
    if X.interval == HALFLINE and r[-1] > 1e3 * max(r[0], np.median(r)):
        return fails(witness=float(t[pos][-1]),
                     reason="target profile exceeds any multiple of the domain profile")
    return None


# -- the dichotomy ------------------------------------------------------------


def principal_alternative_target(Y: SpaceDescriptor) -> AlternativeOutcome:
    """Smallest Orlicz space containing Y: exists iff Y embeds into the
    Orlicz space on its own fundamental level, and then equals it."""
    L = companions(Y)[1]
    return AlternativeOutcome(TARGET, L, embeds(Y, L), rule="level-inclusion")


def principal_alternative_domain(X: SpaceDescriptor) -> AlternativeOutcome:
    """Largest Orlicz space inside X: exists iff the Orlicz space on X's
    fundamental level embeds into X, and then equals it."""
    L = companions(X)[1]
    return AlternativeOutcome(DOMAIN, L, embeds(L, X), rule="level-inclusion")
