"""Property-based checks for the inverse calculus and norm axioms."""

import json
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orlicalc.monotone import (
    EXP_RECIPROCAL,
    EXPONENTIAL,
    INF,
    INFINITE_BEYOND,
    LIMIT_CONST,
    NUMERIC_DESC,
    NUMERIC_ONLY,
    POWER_LOG,
    ZERO_ON_INTERVAL,
    MonotoneFn,
    _power_segment_integral,
    exp_reciprocal_desc,
    exponential_desc,
    geometric_grid,
    infinite_beyond_desc,
    limit_const_desc,
    power_log_desc,
    zero_on_interval_desc,
)
from orlicalc.diagonality import (
    _weight_halving_constant,
    classical_lorentz_Nlambda,
    construct_witness_young,
    ol_inequality_gap,
)
from orlicalc.rearrangement import (
    PowerTail,
    SampledFn,
    _log_gamma_mass,
    classical_lorentz_norm,
    distribution,
    lambda_norm,
    least_admissible_scale,
    luxemburg_norm,
    marcinkiewicz_norm,
    maximal,
    modular,
    pairing,
    rearrange,
)
from orlicalc.spaces import (
    CLASSICAL_LORENTZ,
    LORENTZ,
    LORENTZ_ZYGMUND,
    SpaceDescriptor,
    fundamental_function,
    norm,
)
from orlicalc.young import (
    _table_from_json,
    _table_to_json,
    exp_young,
    linfty_young,
    power_log_young,
    power_young,
    young_from_derivative,
    young_from_json,
    young_from_values,
    young_to_json,
)

from helpers import (
    averaged_pieces,
    loop_classical_lorentz_fundamental,
    loop_classical_lorentz_Nlambda,
    loop_classical_lorentz_norm,
    loop_distribution,
    loop_lambda_norm,
    loop_marcinkiewicz,
    loop_maximal,
    loop_ol_inequality_gap,
    loop_pairing,
    loop_rearrange,
    loop_weight_halving_constant,
    loop_witness_derivative,
    reference_eval,
    reference_exact_value,
    reference_power_segment_integral,
    reference_table_to_json,
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
    # A is t**2 up to t_inf = 9.3e3 and +inf past it: the modular at the
    # jump is at least 8.6e7 times the top piece's width, above 1, so the
    # root lies in the finite part
    "table with a jump": young_from_derivative(MonotoneFn(
        np.append(_TABLE_T[:-1], _TABLE_T[-2] * (1.0 + 2.0 ** -40)),
        np.append(2.0 * _TABLE_T[:-1], INF))),
    # the witness's derivative is +inf past the top value of its function
    "witness": construct_witness_young(
        SampledFn([(3.0, 0.2), (1.0, 0.5), (0.2, 0.3)]), power_young(2.0)),
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
@given(luxemburg_cases(), st.sampled_from([1e-6, 1e-10, 1e-13]))
def test_batched_luxemburg_is_the_sequential_search(case, tol):
    f, A = case
    want = sequential_luxemburg_norm(f, A, tol)
    assert luxemburg_norm(f, A, tol) == want
    start = max(f.sup_value(), 1.0)
    start = 1.0 if start == INF else start
    assert least_admissible_scale(lambda lam: modular(f, A, 1.0 / lam) <= 1.0,
                                  start, tol) == want


@settings(max_examples=60, deadline=None)
@given(luxemburg_cases())
def test_modular_does_not_rise_with_the_norm_scale(case):
    # the Luxemburg search answers for the scales outside a certified
    # bracket without the modular, on the strength of this monotonicity
    f, A = case
    with np.errstate(over="ignore"):  # a sum past the float range is +inf
        m = modular(f, A, 1.0 / np.geomspace(1e-300, 1e300, 241))
    assert not np.isnan(m).any()
    m = m[m >= np.finfo(float).tiny]
    assert np.all(m[1:] <= m[:-1] * (1.0 + 1e-13))


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
    head = A.char_profile.zero_desc.p
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
def evaluation_tables(draw, numeric_ends=False):
    """Tables of 1 to 12 nodes, some ulp-paired: zero heads (ramps), flat
    zero runs, plateaus, a terminal +inf block, values over up to 600
    decades (slopes that overflow), and any descriptor at either end
    (numeric-only at both with ``numeric_ends``)."""
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
    if numeric_ends:
        return MonotoneFn(t, v, NUMERIC_DESC, NUMERIC_DESC)
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


def _unscaled_ramp_points(fn, x):
    """The points of x inside a ramp segment (0 at its left node, finite and
    positive at its right) off that node where the product vr (x - tl) is
    not a normal float: it overflows, or underflows and loses digits; those
    where it overflows; and the divided form vr ((x - tl) / (tr - tl)) at
    every point."""
    t, v = fn.t, fn.v
    if t.size < 2:
        return np.zeros(x.shape, dtype=bool), np.zeros(x.shape, dtype=bool), x
    idx = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
    tl, tr, vl, vr = t[idx], t[idx + 1], v[idx], v[idx + 1]
    ramp = (x > tl) & (x < tr) & (vl == 0.0) & np.isfinite(vr) & (vr > 0.0)
    rise = vr * (x - tl)
    normal = (rise >= np.finfo(float).tiny) & (rise < INF)
    return ramp & ~normal, ramp & np.isinf(rise), vr * ((x - tl) / (tr - tl))


@settings(max_examples=300, deadline=None)
@given(evaluation_tables())
@example(MonotoneFn([1.0, 1e10], [0.0, 1e300]))
@example(MonotoneFn([1e-60, 1e-50, 1.0], [0.0, 1e-263, 1e-263]))
def test_segment_table_evaluation_is_the_mask_per_case_evaluation(fn):
    # values spanning 600 decades overflow in the tails, in both evaluations
    # alike; on a ramp the reference rounds vr (x - tl) past the normal
    # floats where that product overflows or underflows, and the evaluation
    # divides first there, so its value is at most vr and keeps its digits
    with np.errstate(all="ignore"):
        x = _evaluation_points(fn)
        want = reference_eval(fn, x)
        off, over, divided = _unscaled_ramp_points(fn, x)
        assert np.isinf(want[over]).all()
        want[off] = divided[off]
        got = fn(x)
        m = x.size // 2
        grid = fn(x[:2 * m].reshape(2, m))
        ones = [[fn(arg) for arg in (xi, np.float64(xi), np.asarray(xi))]
                for xi in x.tolist()]
    assert got.shape == x.shape
    assert np.isfinite(got[off]).all()
    assert np.array_equal(got, want, equal_nan=True)
    assert grid.shape == (2, m)
    assert np.array_equal(grid.ravel(), want[:2 * m], equal_nan=True)
    for one, wi in zip(ones, want.tolist()):
        assert all(type(o) is float for o in one)
        assert np.array_equal(one, [wi] * 3, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(evaluation_tables(numeric_ends=True))
@example(MonotoneFn([1.0, 2.0], [0.0, 1.0]))
@example(MonotoneFn([1.0, np.nextafter(1.0, 2.0), 2.0], [1.0, 1.0, 4.0]))
def test_numeric_only_ends_are_the_powers_of_the_edge_segments(fn):
    # a numeric-only end extrapolates the power of its edge segment, so the
    # end values are that tail's limits (0 and +inf for a rising power, the
    # tail's constant for a flat one), F stays between them (up to the
    # rounding of a segment over a few hundred decades), and the table
    # holds the power as its descriptor
    s0, s1 = fn._edge_slope_zero(), fn._edge_slope_inf()
    with np.errstate(all="ignore"):
        x = _evaluation_points(fn)
        fx = fn(x)
        low = fn(0.5 * fn.t[0])
        high = fn(2.0 * fn.t[-1])
    assert np.all(fn.value_at_zero * (1.0 - 1e-12) <= fx)
    assert np.all(fx <= fn.value_at_inf * (1.0 + 1e-12))
    assert fn.value_at_zero == (0.0 if s0 > 0 else low)
    assert fn.value_at_inf == (INF if s1 > 0 else high)
    assert (fn.zero_desc, fn.inf_desc) == (power_log_desc(s0), power_log_desc(s1))


# values that put a segment in each class: zero, subnormal, the ends of
# the float range, +inf, NaN and negative
_SEGMENT_SPECIALS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                     1.0, 1e300, 1.7e308, INF, np.nan, -1.0]
_WEIGHT_EXPS = [0.0, 1.0, 2.5, -0.5, -1.0, -2.0, -3.5, -4.33]


@st.composite
def segments(draw):
    """Segments (vl, vr, tl, tr) and a weight exponent: rising power
    segments over up to 600 decades, some ends replaced by the values of
    :data:`_SEGMENT_SPECIALS`, some made degenerate (tr <= tl), and some
    whose e = s + w + 1 is 0 or within 1e-12 of it."""
    n = draw(st.integers(1, 24))
    floats = lambda lo, hi: np.asarray(draw(st.lists(st.floats(lo, hi), min_size=n,
                                                     max_size=n)))
    w = draw(st.sampled_from(_WEIGHT_EXPS))
    tl = 10.0 ** floats(-300.0, 300.0)
    tr = tl * 10.0 ** floats(-1.0, 8.0)
    vl = 10.0 ** floats(-300.0, 300.0)
    vr = vl * 10.0 ** floats(-1.0, 8.0)
    # e = 0 exactly (s = -w - 1 on a flat segment at w = -1), and e within
    # 1e-12 of 0 (s = 1 at w = -2, up to the rounding of the ratios)
    flat = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if w == -1.0:
        vr[flat] = vl[flat]
    if w == -2.0:
        vr[flat] = vl[flat] * (tr[flat] / tl[flat])
    for arr in (vl, vr, tl, tr):
        k = draw(st.lists(st.integers(0, n - 1), max_size=n))
        arr[k] = draw(st.lists(st.sampled_from(_SEGMENT_SPECIALS),
                               min_size=len(k), max_size=len(k)))
    return vl, vr, tl, tr, w


@settings(max_examples=400, deadline=None)
@given(segments())
@example((np.array([0.0, 0.0, 1.0, 2.0, 1.0]), np.array([0.0, 3.0, INF, 2.0, 1e-300]),
          np.array([1.0, 1.0, 1.0, 2.0, 1e-300]), np.array([2.0, 2.0, 3.0, 2.0, 1e300]),
          -0.5))
@example((np.array([1e-310, 1.0, np.nan]), np.array([1.0, 1.0, 2.0]),
          np.array([1.0, 1.0, 1.0]), np.array([2.0, np.nan, 2.0]), -1.0))
@example((np.array([0.0, 0.0, -1.0]), np.array([0.0, 5.0, 2.0]),
          np.array([1.0, 1e-3, 1.0]), np.array([4.0, 2.0, 2.0]), 0.0))
def test_segment_integral_is_the_per_class_kernel(case):
    # one pass of the power formula where every segment is plain, the
    # other classes patched in: the same bits, NaN included, as the kernel
    # that masks every class on every call, on arrays, on scalars, and
    # where one argument broadcasts against the others
    vl, vr, tl, tr, w = case
    with np.errstate(all="ignore"):
        want = reference_power_segment_integral(vl, vr, tl, tr, w)
        got = _power_segment_integral(vl, vr, tl, tr, w)
        ones = [(_power_segment_integral(*args, w), reference_power_segment_integral(*args, w))
                for args in zip(vl.tolist(), vr.tolist(), tl.tolist(), tr.tolist())]
        spread = [_power_segment_integral(*(args[:i] + (args[i][:1],) + args[i + 1:]), w)
                  for args in [(vl, vr, tl, tr)] for i in range(4)]
        spread_want = [reference_power_segment_integral(
            *np.broadcast_arrays(*(args[:i] + (args[i][0],) + args[i + 1:])), w)
            for args in [(vl, vr, tl, tr)] for i in range(4)]
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    for one, one_want in ones:
        assert one.shape == one_want.shape == ()
        assert np.array_equal(one, one_want, equal_nan=True)
    for g, wnt in zip(spread, spread_want):
        assert np.array_equal(g, wnt, equal_nan=True)


@st.composite
def young_points(draw):
    """A generator of every class and points of x on, between and next to
    the nodes of its derivative's grid; with ``off``, also 0, -1, +inf,
    NaN, subnormals and points below and above the grid."""
    A = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))]
    t = A.derivative.t
    k = np.asarray(draw(st.lists(st.integers(0, t.size - 1), min_size=1, max_size=40)))
    frac = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=k.size,
                                    max_size=k.size)))
    right = t[np.minimum(k + 1, t.size - 1)]
    x = np.concatenate((t[k], np.nextafter(t[k], 0.0), np.nextafter(t[k], INF),
                        t[k] * (right / t[k]) ** frac))
    if draw(st.booleans()):
        x = np.concatenate((x, [0.0, -1.0, INF, np.nan, 5e-324, 1e-310, 1e300,
                                0.5 * t[0], t[0] * 1e-9, 2.0 * t[-1], t[-1] * 1e9]))
    else:
        x = x[(x >= t[0]) & (x <= t[-1])]
    return A, x[draw(st.permutations(range(x.size)))]


@settings(max_examples=300, deadline=None)
@given(young_points())
def test_young_value_is_the_per_class_kernel(case):
    # one pass over the grid where every point lies on it, and the points
    # off it patched in where they occur: the same bits as the kernel that
    # masks every class of point on every call, in a batch and alone
    A, x = case
    with np.errstate(all="ignore"):
        want = reference_exact_value(A, x)
        got = A(x)
        ones = [A(xi) for xi in x.tolist()]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(ones, want, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(evaluation_tables(), st.sampled_from([None, 0.0, 0.5, INF]),
       st.sampled_from([None, 0.0, 0.5, INF]), st.sampled_from(["", "derivative_"]))
def test_table_wire_format_is_the_per_row_format(fn, at_zero, at_inf, prefix):
    # every descriptor kind, single nodes, plateaus, a jump to +inf and the
    # boundary values; the array pass writes the same bytes as one
    # conversion per number, and the reader loads the same table back
    fn = MonotoneFn(fn.t, fn.v, fn.zero_desc, fn.inf_desc,
                    value_at_zero=at_zero, value_at_inf=at_inf)
    text = json.dumps(_table_to_json(fn, prefix))
    assert text == json.dumps(reference_table_to_json(fn, prefix))
    back = _table_from_json(json.loads(text), prefix)
    assert (repr(back.t.tolist()), repr(back.v.tolist()), back.zero_desc, back.inf_desc,
            repr(back.value_at_zero), repr(back.value_at_inf)) == \
        (repr(fn.t.tolist()), repr(fn.v.tolist()), fn.zero_desc, fn.inf_desc,
         repr(fn.value_at_zero), repr(fn.value_at_inf))


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


@st.composite
def step_functions(draw, max_pieces=400, tails=True):
    """1 to 400 pieces whose values repeat a few levels (zero among them)
    or not, over 1 or 16 decades (over one, no term of a sum drowns the
    others), with widths over 1, 4 or 30 decades around 1 (so that a tail of
    width up to 1 is not lost in the sums), laid out as drawn, ascending or
    descending; with no tail or a power tail."""
    n = draw(st.integers(min_value=1, max_value=max_pieces))
    k = draw(st.sampled_from([1, 2, 5, n]))
    half = draw(st.sampled_from([0.5, 8.0]))
    levels = 10.0 ** np.asarray(draw(st.lists(st.floats(-half, half), min_size=k, max_size=k)))
    idx = np.asarray(draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)))
    vals = np.where(idx < 0, 0.0, levels[idx])
    half = draw(st.sampled_from([0.5, 2.0, 15.0]))
    widths = 10.0 ** np.asarray(draw(st.lists(st.floats(-half, half), min_size=n, max_size=n)))
    order = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if order != "drawn":
        vals = np.sort(vals) if order == "ascending" else -np.sort(-vals)
    tail = None
    if tails and draw(st.booleans()):
        expo = draw(st.floats(0.05, 1.5))
        width = 10.0 ** draw(st.floats(-3.0, 0.0))
        tail = PowerTail(max(float(vals.max()), 1e-3) * width ** expo
                         * draw(st.floats(1.0, 3.0)), expo, width)
    return SampledFn(np.column_stack((vals, widths)), tail=tail)


def _same(got, want, rel=0.0):
    """Equal floats, both NaN, or (with rel) within rel of each other."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= rel * abs(want)


@settings(max_examples=60, deadline=None)
@given(step_functions(), st.sampled_from(sorted(GENERATORS)))
def test_array_distribution_and_lambda_norm_are_the_loops(f, name):
    star = rearrange(f)
    lam = np.concatenate(([0.0, 1e-300, 1e300], star.values, np.nextafter(star.values, 0.0),
                          0.5 * star.values))
    if f.tail:
        edge = f.tail.value_at(f.tail.width)
        lam = np.concatenate((lam, edge * np.array([0.5, 1.0, 2.0, 1e8])))
    with np.errstate(all="ignore"):
        want_d = loop_distribution(f)(lam)
        got_d = distribution(f)(lam)
        assert np.array_equal(got_d, want_d)
        assert all(type(distribution(f)(x)) is float for x in lam[:4].tolist())
        assert _same(lambda_norm(f, GENERATORS[name]), loop_lambda_norm(f, GENERATORS[name]))


@settings(max_examples=60, deadline=None)
@given(step_functions(), step_functions(tails=False), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
# a halving constant needs a first weight value of at most 1e-300: c t stays
# in the first step for t in it; the second weight has a zero step
@example(SampledFn([(1.0, 1.0)]), SampledFn([(1e-301, 1.0), (4.0, 1.0), (16.0, 2.0)]), 1.0)
@example(SampledFn([(1.0, 1.0)]), SampledFn([(1e-301, 1.0), (0.0, 1.0), (4.0, 1.0)]), 1.0)
def test_array_classical_lorentz_and_pairing_are_the_loops(f, w, q):
    # a scalar ** became an array power: equal within one rounding per term
    with np.errstate(all="ignore"):
        assert _same(classical_lorentz_norm(f, w, q), loop_classical_lorentz_norm(f, w, q), 1e-15)
    if f.tail is None:
        assert pairing(f, w) == loop_pairing(f, w)
    assert _weight_halving_constant(w) == loop_weight_halving_constant(w)
    t, v = loop_classical_lorentz_fundamental(w, q)
    try:
        phi = fundamental_function(SpaceDescriptor(CLASSICAL_LORENTZ, q=q, weight=w)).phi
    except ValueError:  # a profile that MonotoneFn or FundamentalFn rejects
        return
    assert np.array_equal(phi.t, t) and np.array_equal(phi.v, v)


NLAMBDA_GENERATORS = ["power 1.3", "power 3", "power-log 2, -1, 1", "exp 1", "table"]


@settings(max_examples=40, deadline=None)
@given(step_functions(tails=False), st.sampled_from(NLAMBDA_GENERATORS),
       st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.sampled_from([0.25, 1.0, 4.0]))
def test_array_classical_lorentz_Nlambda_is_the_segment_walk(w, name, q, lam):
    # the weight must be non-increasing
    w = SampledFn(np.column_stack((-np.sort(-w.values), w.widths)))
    A = GENERATORS[name]
    with np.errstate(all="ignore"):
        got = classical_lorentz_Nlambda(A, w, q, lam)
        try:
            want = loop_classical_lorentz_Nlambda(A, w, q, lam)
        except (OverflowError, ZeroDivisionError):
            return  # the scalar walk raises where the inner map leaves the float range
    # logs and powers became array ufuncs, which differ from the scalar
    # functions in the last bit; C = lam va ta**-sigma scales a change of
    # sigma by |sigma log ta| (up to about 100 on edges 30 decades past the
    # table), and a threshold crossing (y / C)**(1 / expo) moves by 1 / expo
    # times a change of C, so the certificates agree to a few 1e-15
    assert _same(got, want, 1e-14)


GAP_GENERATORS = ["power 1.3", "power 3", "exp 1", "linfty", "table", "witness"]


@settings(max_examples=40, deadline=None)
@given(step_functions(), step_functions(max_pieces=40, tails=False),
       st.sampled_from(GAP_GENERATORS), st.sampled_from(GAP_GENERATORS),
       st.floats(-3.0, 3.0))
# a zero weight step between two others, and a first step that diverges at 0
@example(SampledFn([(1.0, 0.5)]), SampledFn([(2.0, 0.5), (0.0, 1.0), (1.0, 0.5)]),
         "power 3", "power 3", 0.0)
@example(SampledFn([(1.0, 0.5)]), SampledFn([(2.0, 0.5), (1.0, 0.5)]),
         "power 1.3", "power 1.3", -1.0)
def test_array_gap_and_witness_are_the_loops(f, v, a_name, g_name, log_lam):
    # the right side's rows against one reference call per weight step
    A, G, lam = GENERATORS[a_name], GENERATORS[g_name], 10.0 ** log_lam
    got = ol_inequality_gap(A, G, v, f, lam)
    assert got == loop_ol_inequality_gap(A, G, v, f, lam)
    assert all(type(side) is float for side in got)
    if a_name not in ("power 1.3", "power 3", "exp 1") or f.tail or f.is_zero \
            or not math.isfinite(lambda_norm(f, A)):
        return  # the witness takes nonzero step functions of the space of a finite E
    deriv = construct_witness_young(f, A).derivative
    t, vals = loop_witness_derivative(f, A)
    assert np.array_equal(deriv.t, t) and np.array_equal(deriv.v, vals)


@st.composite
def gamma_windows(draw):
    """(s, a, b) for the incomplete-gamma kernel: s in (-5, 200); for s > 0
    a window [a, inf), a window from 0, a window across a = s, or one
    beside s with b / a - 1 from 1e-8 to 10, with a up to e**6 times s or
    down to e**-6 times it, where scipy's regularized difference can
    underflow; for s <= 0 a tail [a, inf);
    now and then one entry NaN.  0 < |s| < 1e-6 is left to the examples:
    there the lower gammas grow like 1 / s, and the mpmath reference needs
    -log10(s) more digits, which costs seconds per draw near 1e-300."""
    s = draw(st.one_of(st.floats(-5.0, -1e-6, exclude_min=True), st.just(0.0),
                       st.floats(1e-6, 200.0, exclude_max=True)))
    if s <= 0:
        a, b = 10.0 ** draw(st.floats(-3.0, 3.0)), INF
    else:
        a = s * math.exp(draw(st.floats(-6.0, 6.0)))
        kind = draw(st.sampled_from(["tail", "from zero", "across", "beside"]))
        if kind == "tail":
            b = INF
        elif kind == "from zero":
            a, b = 0.0, a
        elif kind == "across":
            a, b = min(a, s), max(a, s) * math.exp(draw(st.floats(1e-8, 1.5)))
        else:
            b = a * (1.0 + 10.0 ** draw(st.floats(-8.0, 1.0)))
    out = [s, a, b]
    nan = draw(st.sampled_from([None] * 9 + [0, 1, 2]))
    if nan is not None:
        out[nan] = math.nan
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(gamma_windows())
@example((0.0, 1e-3, INF))
@example((1e-12, 1e-13, 1e-13 * (1.0 + 1e-8)))
@example((1e-30, 0.0, 2.0))
@example((-1e-30, 3.0, INF))
@example((1.0, 0.0, 1e-300))
@example((199.9, 199.9, 199.9 * (1.0 + 1e-8)))
@example((-4.999, 1e3, INF))
@example((195.07570908, 0.0, 1.865117871258583))
@example((101.0, 2.0 * (1.0 - math.log(1e-300)), INF))
def test_log_gamma_mass_matches_mpmath(window):
    s, a, b = window
    got = _log_gamma_mass(s, a, b)
    assert got.shape == () and got.dtype == float
    if any(math.isnan(x) for x in window):
        assert math.isnan(got)
        return
    # the larger of the two incomplete gammas whose difference is the mass,
    # taken on the side where the kernel takes it; mpmath's three-argument
    # gammainc(s, a, b) loses digits on narrow windows (seen 2e-5 at 50
    # digits), one-sided calls do not.  The lower ones grow like 1 / s as
    # s -> 0, so tiny s cancels about -log10(s) more digits
    with mp.workdps(50 + max(0, round(-math.log10(abs(s)))) if s else 50):
        if a < s and b < INF:
            big = mp.gammainc(s, 0, b)
            mass = big - mp.gammainc(s, 0, a)
        else:
            big = mp.gammainc(s, a)
            mass = big - (mp.gammainc(s, b) if b < INF else 0)
        want, cancel = float(mp.log(mass)), float(big / mass)
    # 1e-13 relative (absolute below |log| = 1, where it is the relative
    # error of the mass), times the cancellation of the difference: scipy's
    # regularized values are good to a few 1e-14, and a window of relative
    # width w cancels all but about w of them.  Where that leaves no digit
    # the difference may round to 0, a log of -inf
    tol = 1e-13 * max(1.0, abs(want)) * cancel
    assert abs(float(got) - want) <= tol or (tol >= 1.0 and got == -INF)


@st.composite
def convex_samples(draw, margin=True):
    """(t, v, zero_desc, inf_desc): 2 to 64 samples of a convex function
    through the origin, on abscissae 10**(0.002 .. 1) apart, under every
    descriptor kind that a Young function can have at each end, with a
    terminal +inf block now and then.  With ``margin`` the slopes rise by
    at least 1e-6 at every sample, the head's included, so the samples are
    convex as floats; without it slopes may repeat, and a head may meet
    the first chord, which leaves it to rounding whether they fall."""
    n = draw(st.integers(2, 64))
    t0 = 10.0 ** draw(st.floats(-6.0, 2.0))
    steps = np.array(draw(st.lists(st.floats(0.002, 1.0), min_size=n - 1, max_size=n - 1)))
    t = t0 * np.concatenate(([1.0], np.cumprod(10.0 ** steps)))
    low = 1e-6 if margin else 0.0
    rises = draw(st.lists(st.just(low) | st.floats(low, 3.0), min_size=n - 2, max_size=n - 2))
    s0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    slopes = s0 * np.cumprod(np.concatenate(([1.0], 1.0 + np.array(rises))))
    # the head's derivative at t0, v0 / (its integral at anchor 1), stays
    # below the first chord s0 by the factor frac
    frac = draw(st.floats(0.01, 1.0 - low))
    zero = draw(st.sampled_from([NUMERIC_ONLY, POWER_LOG, EXP_RECIPROCAL, ZERO_ON_INTERVAL,
                                 LIMIT_CONST]))
    if zero == POWER_LOG:
        p = draw(st.floats(1.0, 4.0))
        d0, v0 = power_log_desc(p), frac * s0 * t0 / p
    elif zero == EXP_RECIPROCAL:
        g = draw(st.floats(0.2, 2.0))
        u0 = t0 ** -g
        d0 = exp_reciprocal_desc(g)
        with mp.workdps(30):
            v0 = frac * s0 * float(mp.e ** u0 / g * mp.gammainc(-1.0 / g, u0))
    elif zero == ZERO_ON_INTERVAL:
        d0, v0 = zero_on_interval_desc(t0 * draw(st.floats(0.1, 1.0))), 0.0
    else:
        # a numeric head is the power of the edge slope; below 1 it is linear
        d0 = NUMERIC_DESC if zero == NUMERIC_ONLY else limit_const_desc(0.0)
        v0 = frac * s0 * t0
    v = v0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(t))))
    inf = draw(st.sampled_from([NUMERIC_ONLY, POWER_LOG, EXPONENTIAL, INFINITE_BEYOND,
                                LIMIT_CONST]))
    d1 = {NUMERIC_ONLY: NUMERIC_DESC,
          POWER_LOG: power_log_desc(draw(st.floats(1.0, 4.0)), draw(st.floats(-1.0, 1.0))),
          EXPONENTIAL: exponential_desc(draw(st.floats(0.5, 2.0))),
          INFINITE_BEYOND: infinite_beyond_desc(2.0 * t[-1]),
          LIMIT_CONST: limit_const_desc(float(v[-1]))}[inf]
    n_inf = draw(st.integers(0, min(3, n - 2)))
    if n_inf:
        v[-n_inf:] = INF
    return t, v, d0, d1


def _check_sampled_young(t, v, d0, d1, tol):
    """Build from the samples and check the tables; ``tol(scale)`` bounds
    how far each sample may come back off, given the larger of its value
    and t a(t), the scale at which the integral up to it rounds."""
    A = young_from_values(t, v, d0, d1)
    a, base = A.derivative, A.base
    assert np.array_equal(base.t, a.t)
    assert np.all(a.v[1:] >= a.v[:-1])
    # every sample is a node of both tables
    at = np.searchsorted(base.t, t)
    assert np.array_equal(base.t[at], t)
    assert np.array_equal(np.isinf(base.v[at]), np.isinf(v))
    fin = np.isfinite(v)
    bound = tol(np.maximum(v, t * a(t)))[fin]
    for got in (base.v[at], A(t)):
        assert np.all(np.abs(got[fin] - v[fin]) <= bound)
    obj = json.loads(json.dumps(young_to_json(A)))
    B = young_from_json(obj)
    assert json.loads(json.dumps(young_to_json(B))) == obj
    for x, y in ((A.base, B.base), (A.derivative, B.derivative)):
        assert np.array_equal(x.t, y.t) and np.array_equal(x.v, y.v)
        assert (x.zero_desc, x.inf_desc, x.value_at_zero, x.value_at_inf) \
            == (y.zero_desc, y.inf_desc, y.value_at_zero, y.value_at_inf)
    return A


@settings(max_examples=150, deadline=None)
@given(convex_samples(), st.integers(1, 62), st.booleans())
def test_sampled_young_function_gives_its_samples_back(case, j, bump):
    t, v, d0, d1 = case
    # 4 ulp for the head and each step up to a sample: a step's integral
    # is its anchor term times exp(log r) - 1, which rounds by about
    # 1 + log r ulp of t a(t) (3.3 at the widest ratio r = 10 drawn here),
    # and the running sum rounds once per step
    _check_sampled_young(t, v, d0, d1, lambda scale: 4.0 * np.arange(1, t.size + 1)
                         * np.spacing(scale))
    # a sample moved above the chord of its neighbours is not convex there
    k = int(np.flatnonzero(np.isfinite(v))[-1])
    if bump and 1 <= j < k and v[j + 1] > v[j - 1]:
        lam = (t[j] - t[j - 1]) / (t[j + 1] - t[j - 1])
        chord = v[j - 1] + lam * (v[j + 1] - v[j - 1])
        v = v.copy()
        v[j] = chord + 0.5 * (v[j + 1] - chord)
        with pytest.raises(ValueError, match=re.escape(f"falls at t={t[j]:.6g}")):
            young_from_values(t, v, d0, d1)


@settings(max_examples=100, deadline=None)
@given(convex_samples(margin=False))
def test_sampled_young_function_levels_rounding(case):
    # samples convex up to rounding: a fall within the rounding of a chord,
    # or within 1e-9 of a slope (as where a head's integral rounds), is
    # levelled by raising the slopes after it, which moves the samples after
    # it by as much, relative to the scale
    t, v, d0, d1 = case
    _check_sampled_young(t, v, d0, d1, lambda scale: 1e-9 * scale)
