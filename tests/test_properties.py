"""Property-based checks for the inverse calculus and norm axioms."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from orlicalc.monotone import (
    INF,
    NUMERIC_DESC,
    MonotoneFn,
    exp_reciprocal_desc,
    exponential_desc,
    geometric_grid,
    infinite_beyond_desc,
    limit_const_desc,
    power_log_desc,
    zero_on_interval_desc,
)
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    _char_profile,
    least_admissible_scale,
    luxemburg_norm,
    marcinkiewicz_norm,
    maximal,
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

from helpers import (
    averaged_pieces,
    loop_marcinkiewicz,
    loop_maximal,
    loop_rearrange,
    reference_eval,
    sequential_luxemburg_norm,
)


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


def _descriptor(draw, t, zero_side):
    """Any descriptor kind, with thresholds placed off the grid."""
    kind = draw(st.integers(0, 8))
    edge = t[0] if zero_side else t[-1]
    return [power_log_desc(2.0), power_log_desc(0.5, -1.0), power_log_desc(0.0, 1.5),
            exponential_desc(0.5), exp_reciprocal_desc(1.0),
            zero_on_interval_desc(edge / 3.0), infinite_beyond_desc(edge * 3.0),
            limit_const_desc(draw(st.sampled_from([0.0, 0.25, INF]))),
            NUMERIC_DESC][kind]


@st.composite
def evaluation_tables(draw):
    """Tables of 1 to 12 nodes, some ulp-paired: zero heads (ramps), flat
    zero runs, plateaus, a terminal +inf block, values over up to 600
    decades (slopes that overflow), and any descriptor at either end."""
    n = draw(st.integers(min_value=1, max_value=12))
    exps = draw(st.lists(st.floats(-300.0, 300.0) if draw(st.booleans())
                         else st.floats(-6.0, 6.0), min_size=n, max_size=n, unique=True))
    t = np.unique(10.0 ** np.asarray(exps))
    if t.size > 1 and draw(st.booleans()):
        i = draw(st.integers(0, t.size - 2))
        t[i + 1] = np.nextafter(t[i], INF)
    n = t.size
    span = draw(st.sampled_from([3.0, 300.0]))
    v = 10.0 ** np.sort(np.asarray(draw(st.lists(st.floats(-span, span),
                                                 min_size=n, max_size=n))))
    plateau = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    for i in np.flatnonzero(plateau[1:]) + 1:
        v[i] = v[i - 1]
    zeros = draw(st.integers(0, n))
    infs = draw(st.integers(0, n - zeros))
    v[:zeros] = 0.0
    v[n - infs:] = INF
    return MonotoneFn(t, v, _descriptor(draw, t, True), _descriptor(draw, t, False))


def _evaluation_points(fn):
    """Nodes, one ulp either side of each, midpoints, 0, +inf, subnormals
    and points beyond both ends."""
    t = fn.t
    pts = np.concatenate((t, np.nextafter(t, 0.0), np.nextafter(t, INF),
                          np.sqrt(t[:-1] * t[1:]),
                          [0.0, INF, 5e-324, 1e-310, 2.2e-308, 1e-200, 1e300],
                          t[0] * np.array([1e-9, 0.5]), t[-1] * np.array([2.0, 1e9])))
    return pts[np.isfinite(pts) | (pts == INF)]


@settings(max_examples=300, deadline=None)
@given(evaluation_tables())
def test_segment_table_evaluation_is_the_mask_per_case_evaluation(fn):
    # values spanning 600 decades overflow in the tails and on ramps, in
    # both evaluations alike
    with np.errstate(all="ignore"):
        x = _evaluation_points(fn)
        want = reference_eval(fn, x)
        got = fn(x)
        m = x.size // 2
        grid = fn(x[:2 * m].reshape(2, m))
        ones = [[fn(arg) for arg in (xi, np.float64(xi), np.asarray(xi))]
                for xi in x.tolist()]
    assert got.shape == x.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert grid.shape == (2, m)
    assert np.array_equal(grid.ravel(), want[:2 * m], equal_nan=True)
    for one, wi in zip(ones, want.tolist()):
        assert all(type(o) is float for o in one)
        assert np.array_equal(one, [wi] * 3, equal_nan=True)


@st.composite
def tied_steps(draw):
    """0 to 40 pieces drawn from a few values (zero among them), so that
    ties merge, half of them led by a power tail, integrable or not."""
    n = draw(st.integers(min_value=0, max_value=40))
    levels = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=6)) + [0.0]
    vals = [draw(st.sampled_from(levels)) for _ in range(n)]
    widths = draw(st.lists(st.floats(1e-6, 10.0), min_size=n, max_size=n))
    tail = None
    if draw(st.booleans()):
        width = draw(st.floats(1e-4, 2.0))
        expo = draw(st.floats(0.05, 1.5))
        tail = PowerTail(max(vals + [1e-3]) * width ** expo * draw(st.floats(1.0, 3.0)),
                         expo, width)
    return SampledFn(list(zip(vals, widths)), tail=tail)


@settings(max_examples=150, deadline=None)
@given(tied_steps())
def test_array_rearrange_and_maximal_are_the_loops(f):
    values, widths = loop_rearrange(f)
    star = rearrange(f)
    assert star.values.tolist() == values and star.widths.tolist() == widths
    pieces, total = loop_maximal(f)
    avg = maximal(f)
    assert averaged_pieces(avg) == pieces
    assert avg.total == total or (math.isnan(avg.total) and math.isnan(total))
