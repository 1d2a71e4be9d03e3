"""Reference values computed without orlicalc: closed forms for the power
generator A(t) = t**p, a root-finder for the exponential generator
A(t) = e**t - 1 - t, and the closed-form conjugates.

A sampled function is given here the way the benchmark builds it: a list of
(value, width) steps and an optional power tail (coef, expo, width) whose
decreasing profile coef * s**-expo occupies (0, width) and sits above every
step.  Its decreasing rearrangement is the tail followed by the steps sorted
by value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize


def decreasing_steps(steps, tail=None):
    """Breakpoints b_0 < b_1 < ... and the step values of f* after the tail.

    Returns (b0, values, breaks) where b0 is the tail width (0 without a
    tail), values are non-increasing and breaks[i] is the right end of the
    i-th step.
    """
    b0 = tail[2] if tail else 0.0
    pos = sorted(((v, w) for v, w in steps if v > 0), key=lambda vw: -vw[0])
    values = np.array([v for v, _ in pos], dtype=float)
    breaks = b0 + np.cumsum([w for _, w in pos]) if pos else np.array([])
    return b0, values, np.asarray(breaks, dtype=float)


def power_luxemburg(steps, p, tail=None):
    """(sum v**p w + tail modular)**(1/p): the modular of t**p scales as
    lam**-p, so the norm is its p-th root."""
    m = sum(v ** p * w for v, w in steps)
    if tail:
        c, e, w = tail
        if e * p >= 1.0:
            return math.inf
        m += c ** p * w ** (1.0 - e * p) / (1.0 - e * p)
    return m ** (1.0 / p)


def power_lambda(steps, p, tail=None):
    """integral of f* d(phi) with phi(t) = t**(1/p): sum over the steps of
    v_i (b_i**s - b_{i-1}**s), plus c s w**(s-e) / (s-e) for the tail."""
    s = 1.0 / p
    b0, values, breaks = decreasing_steps(steps, tail)
    lefts = np.concatenate(([b0], breaks[:-1]))
    total = float(np.sum(values * (breaks ** s - lefts ** s)))
    if tail:
        c, e, w = tail
        if e >= s:
            return math.inf
        total += c * s * w ** (s - e) / (s - e)
    return total


def power_marcinkiewicz(steps, p, tail=None):
    """sup over t of t**s f**(t), s = 1/p.

    On a step (lo, hi) the averaged rearrangement is c1 + c2/t with c1 the
    step value and c2 the mass below lo minus c1 lo, so t**s (c1 + c2/t) has
    its only critical point at t* = c2 (1 - s) / (c1 s).  The candidates are
    the cell ends and the interior critical points; beyond the support the
    profile is mass * t**(s-1), decreasing, and on the tail it is
    c t**(s-e) / (1-e), increasing up to the tail width.
    """
    s = 1.0 / p
    b0, values, breaks = decreasing_steps(steps, tail)
    mass = 0.0
    best = 0.0
    if tail:
        c, e, w = tail
        if e >= s:
            return math.inf
        mass = c * w ** (1.0 - e) / (1.0 - e)
        best = w ** s * mass / w
    lo = b0
    for c1, hi in zip(values, breaks):
        c2 = mass - c1 * lo
        cands = [hi] + ([lo] if lo > 0 else [])
        if c1 > 0 and c2 > 0:
            t_star = c2 * (1.0 - s) / (c1 * s)
            if lo < t_star < hi:
                cands.append(t_star)
        for t in cands:
            best = max(best, t ** s * (c1 + c2 / t))
        mass += c1 * (hi - lo)
        lo = hi
    return best


def exp1_modular(steps, lam):
    """sum w (e**(v/lam) - 1 - v/lam) for A(t) = e**t - 1 - t."""
    return sum(w * (math.expm1(v / lam) - v / lam) for v, w in steps)


def exp1_luxemburg(steps):
    """The scale at which the exp(1) modular equals 1, by brentq in log lam."""
    vmax = max(v for v, _ in steps)
    # at lam = vmax / 700 the largest step alone exceeds 1 for any width
    # above 1e-300, and e**700 is still finite
    lo, hi = math.log(vmax / 700.0), math.log(vmax) + 60.0
    root = optimize.brentq(lambda x: exp1_modular(steps, math.exp(x)) - 1.0,
                           lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return math.exp(root)


def lp_norm(steps, p):
    return sum(v ** p * w for v, w in steps) ** (1.0 / p)


def conj_power(p, s):
    """Conjugate of t**p: (p-1) p**(-p') s**p' with p' = p / (p-1)."""
    pd = p / (p - 1.0)
    return (p - 1.0) * p ** (-pd) * s ** pd


def conj_exp1(s):
    """Conjugate of e**t - 1 - t: (1+s) log(1+s) - s."""
    return (1.0 + s) * math.log1p(s) - s
