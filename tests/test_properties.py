"""Property-based checks for the inverse calculus and norm axioms."""

import numpy as np
from hypothesis import given, settings, strategies as st

from orlicalc.monotone import INF, MonotoneFn, geometric_grid
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    _char_profile,
    least_admissible_scale,
    luxemburg_norm,
    marcinkiewicz_norm,
    modular,
    rearrange,
)
from orlicalc.spaces import LORENTZ, LORENTZ_ZYGMUND, SpaceDescriptor, norm
from orlicalc.young import (
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
)

from helpers import loop_marcinkiewicz, sequential_luxemburg_norm


@st.composite
def monotone_tables(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    exps = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n, unique=True))
    t = np.unique(10.0 ** np.asarray(exps))
    # tables are geometric grids: keep abscissae separated well above ulp
    # scale, since a reciprocal round trip moves points by one ulp and a
    # segment of relative width w amplifies that by 1/w
    keep = np.concatenate(([True], np.diff(t) > 1e-6 * t[:-1]))
    t = t[keep]
    m = t.size
    if m < 2:
        t = np.array([t[0], t[0] * 2.0]) if m else np.array([1.0, 2.0])
        m = 2
    incs = draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m))
    v = 0.5 + np.cumsum(np.asarray(incs[:m]))
    return MonotoneFn(t, v)


@st.composite
def sampled_fns(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vals = draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n))
    widths = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    return SampledFn(list(zip(vals, widths)))


@settings(max_examples=60, deadline=None)
@given(monotone_tables())
def test_inverse_compositions_bracket_the_identity(fn):
    right = fn.right_inverse()
    left = fn.left_inverse()
    t = fn.t
    assert np.all(t <= right(fn(t)) * (1 + 1e-9))
    assert np.all(left(fn(t)) <= t * (1 + 1e-9))


@settings(max_examples=60, deadline=None)
@given(monotone_tables())
def test_reflection_is_involutive(fn):
    back = fn.correlative().correlative()
    # reciprocal round trips move abscissae by at most one ulp, which inside
    # a steep segment is visible at the 1e-11 scale
    np.testing.assert_allclose(back(fn.t), fn.v, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(sampled_fns(), st.floats(0.1, 10.0))
def test_norm_homogeneity(f, c):
    A = power_young(2.5)
    n1 = luxemburg_norm(f, A)
    n2 = luxemburg_norm(f.scale(c), A)
    assert abs(n2 - c * n1) <= 1e-9 * max(n2, 1e-12)


@settings(max_examples=40, deadline=None)
@given(sampled_fns())
def test_rearrangement_preserves_mass(f):
    star = rearrange(f)
    assert np.isclose(float(np.sum(star.values * star.widths)),
                      sum(v * w for v, w in f.pieces), rtol=1e-12)


@st.composite
def unit_steps_with_tails(draw):
    """Step functions supported in (0, 1], half of them led by a power tail."""
    n = draw(st.integers(min_value=1, max_value=8))
    vals = draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n))
    widths = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    total = draw(st.floats(0.05, 1.0))
    tail = None
    if draw(st.booleans()):
        width = draw(st.floats(1e-4, 0.5))
        expo = draw(st.floats(0.02, 1.5))
        # the tail profile sits above every step value
        tail = PowerTail(max(vals) * width ** expo * draw(st.floats(1.0, 3.0)), expo, width)
        total -= min(width, 0.5 * total)
    pieces = list(zip(vals, widths * total / widths.sum()))
    return SampledFn(pieces, tail=tail)


@settings(max_examples=80, deadline=None)
@given(unit_steps_with_tails(), st.floats(1.05, 20.0),
       st.one_of(st.floats(1.0, 10.0), st.just(INF)))
def test_lorentz_zygmund_without_log_is_lorentz(f, p, q):
    lz = SpaceDescriptor(LORENTZ_ZYGMUND, p=p, q=q, alpha=0.0)
    lorentz = SpaceDescriptor(LORENTZ, p=p, q=q)
    assert norm(lz, f) == norm(lorentz, f)


_TABLE_T = geometric_grid(1e-4, 1e4, 32)
GENERATORS = {
    "power 1.3": power_young(1.3),
    "power 3": power_young(3.0),
    "power-log 2, -1, 1": power_log_young(2.0, alpha_zero=-1.0, alpha_inf=1.0),
    "power-log 1.5, 0.5, -0.5": power_log_young(1.5, alpha_zero=0.5, alpha_inf=-0.5),
    "exp 1": exp_young(1.0),
    "linfty": linfty_young(1.0),
    "table": young_from_derivative(MonotoneFn(
        _TABLE_T, 0.7 * _TABLE_T ** 0.4 + 2.0 * _TABLE_T ** 1.8)),
}


@st.composite
def luxemburg_cases(draw):
    """Step functions of 1 to 40 pieces over many decades of values, half
    of them led by a power tail, under every generator class."""
    n = draw(st.integers(min_value=1, max_value=40))
    vals = 10.0 ** np.asarray(draw(st.lists(st.floats(-12.0, 4.0), min_size=n, max_size=n)))
    widths = 10.0 ** np.asarray(draw(st.lists(st.floats(-3.0, 1.0), min_size=n, max_size=n)))
    tail = None
    if draw(st.booleans()):
        expo = draw(st.floats(0.02, 0.9))
        width = draw(st.floats(0.01, 3.0))
        tail = PowerTail(float(vals.max()) * width ** expo * draw(st.floats(1.0, 3.0)),
                         expo, width)
    f = SampledFn(list(zip(vals.tolist(), widths.tolist())), tail=tail)
    return f, GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))]


@settings(max_examples=60, deadline=None)
@given(luxemburg_cases(), st.sampled_from([1e-6, 1e-10, 1e-13]),
       st.integers(min_value=1, max_value=6))
def test_batched_luxemburg_is_the_sequential_search(case, tol, depth):
    f, A = case
    want = sequential_luxemburg_norm(f, A, tol)
    assert luxemburg_norm(f, A, tol) == want
    start = max(f.sup_value(), 1.0)
    start = 1.0 if start == INF else start
    assert least_admissible_scale(lambda lam: modular(f, A, 1.0 / lam) <= 1.0,
                                  start, tol, depth) == want


LOG_GENERATORS = {
    "power-log 2, 0.5, -0.5": power_log_young(2.0, alpha_zero=0.5, alpha_inf=-0.5),
    "power-log 1.5, -1, 1.5": power_log_young(1.5, alpha_zero=-1.0, alpha_inf=1.5),
    "power-log 2, -1, 1": GENERATORS["power-log 2, -1, 1"],
    "exp 1": GENERATORS["exp 1"],
    "exp 2": exp_young(2.0),
    "power 3": GENERATORS["power 3"],
}


@st.composite
def marcinkiewicz_cases(draw):
    """1 to 160 steps with widths over 38 decades, so that cells fall off
    phi's grid at both ends where its log factors act; some are led by a
    power tail flatter than phi at 0, so that the norm stays finite."""
    A = LOG_GENERATORS[draw(st.sampled_from(sorted(LOG_GENERATORS)))]
    n = draw(st.integers(min_value=1, max_value=160))
    vals = 10.0 ** np.asarray(draw(st.lists(st.floats(-6.0, 3.0), min_size=n, max_size=n)))
    widths = 10.0 ** np.asarray(draw(st.lists(st.floats(-20.0, 18.0), min_size=n, max_size=n)))
    head = _char_profile(A).zero_desc.p
    tail = None
    if head > 0 and draw(st.booleans()):
        expo = head * draw(st.floats(0.05, 0.95))
        width = 10.0 ** draw(st.floats(-3.0, 0.0))
        tail = PowerTail(float(vals.max()) * width ** expo * draw(st.floats(1.0, 3.0)),
                         expo, width)
    return SampledFn(list(zip(vals.tolist(), widths.tolist())), tail=tail), A


@settings(max_examples=40, deadline=None)
@given(marcinkiewicz_cases())
def test_marcinkiewicz_never_below_the_golden_section_search(case):
    f, A = case
    want = loop_marcinkiewicz(f, A)
    assert marcinkiewicz_norm(f, A) >= want * (1.0 - 1e-12)
