"""Tests of the benchmark's reference computations, against brute force.

    python3 perfbench/selftest.py

They need numpy and scipy only, not orlicalc, and run no workload.
"""

from __future__ import annotations

import math
import os
import sys
import unittest

import numpy as np
from scipy import integrate, optimize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def random_case(rng, n, with_tail, p):
    steps = [(float(v), float(w)) for v, w in
             zip(rng.uniform(0.01, 10.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n))]
    tail = None
    if with_tail:
        expo = rng.uniform(0.1, 0.8 / p)
        width = 10.0 ** rng.uniform(-3.0, -1.0)
        coef = max(v for v, _ in steps) * width ** expo * rng.uniform(1.0, 2.0)
        tail = (coef, expo, width)
    return steps, tail


def mass_below(steps, tail, t):
    """integral of f* over (0, t), from the closed-form pieces."""
    b0, values, breaks = ref.decreasing_steps(steps, tail)
    total = 0.0
    if tail:
        c, e, w = tail
        total += c * min(t, w) ** (1.0 - e) / (1.0 - e)
    lo = b0
    for v, hi in zip(values, breaks):
        if t <= lo:
            break
        total += v * (min(t, hi) - lo)
        lo = hi
    return total


class PowerClosedForms(unittest.TestCase):
    def test_marcinkiewicz_against_dense_scan(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            p = float(rng.uniform(1.2, 3.0))
            steps, tail = random_case(rng, int(rng.integers(1, 12)), k % 2 == 1, p)
            s = 1.0 / p
            ts = np.geomspace(1e-6, 1e3, 20001)
            scan = max(t ** s * mass_below(steps, tail, t) / t for t in ts)
            got = ref.power_marcinkiewicz(steps, p, tail)
            # the sup sits at a breakpoint, which the scan only brackets
            self.assertGreaterEqual(got, scan * (1 - 1e-12))
            self.assertLessEqual(got, scan * (1 + 2e-3))

    def test_luxemburg_against_quadrature(self):
        rng = np.random.default_rng(4)
        for k in range(20):
            p = float(rng.uniform(1.2, 3.0))
            steps, tail = random_case(rng, int(rng.integers(1, 8)), k % 2 == 1, p)
            lam = ref.power_luxemburg(steps, p, tail)
            m = sum((v / lam) ** p * w for v, w in steps)
            if tail:
                c, e, w = tail
                part, _ = integrate.quad(lambda s: (c / lam) ** p, 0.0, w,
                                         weight="alg", wvar=(-e * p, 0.0))
                m += part
            self.assertAlmostEqual(m, 1.0, delta=1e-9)

    def test_lambda_against_layer_cake(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            p = float(rng.uniform(1.2, 3.0))
            steps, tail = random_case(rng, int(rng.integers(1, 8)), k % 2 == 1, p)
            b0, values, breaks = ref.decreasing_steps(steps, tail)
            s = 1.0 / p
            # integral over levels y of phi(measure {f* > y}), phi = t**s
            cuts = sorted(set(values.tolist()) | {0.0})
            total = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                meas = b0 + sum(w for v, w in steps if v >= hi)
                total += (hi - lo) * meas ** s
            if tail:
                c, e, w = tail
                top = cuts[-1]
                edge = c * w ** -e
                total += (edge - top) * w ** s
                part, _ = integrate.quad(lambda y: (c / y) ** (s / e), edge, np.inf)
                total += part
            self.assertAlmostEqual(ref.power_lambda(steps, p, tail) / total, 1.0,
                                   delta=1e-7)


class Exponential(unittest.TestCase):
    def test_brentq_root_against_quad(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            steps, _ = random_case(rng, int(rng.integers(1, 10)), False, 2.0)
            lam = ref.exp1_luxemburg(steps)
            # lay the steps out on (0, L) and integrate A(f/lam) over x
            edges = np.concatenate(([0.0], np.cumsum([w for _, w in steps])))
            total = 0.0
            for (v, _), a, b in zip(steps, edges[:-1], edges[1:]):
                part, _ = integrate.quad(
                    lambda x, v=v: math.exp(v / lam) - 1.0 - v / lam, a, b)
                total += part
            self.assertAlmostEqual(total, 1.0, delta=1e-10)


class Conjugates(unittest.TestCase):
    def sup(self, A, s, t_star):
        """sup over t of s t - A(t), searched around the maximizer t_star."""
        res = optimize.minimize_scalar(lambda t: A(t) - s * t,
                                       bounds=(0.0, 4.0 * t_star + 1.0),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        return -res.fun

    def test_power(self):
        for p in (1.3, 2.0, 3.7):
            for s in (0.05, 1.0, 7.0):
                t_star = (s / p) ** (1.0 / (p - 1.0))
                self.assertAlmostEqual(ref.conj_power(p, s) / self.sup(
                    lambda t: t ** p, s, t_star), 1.0, delta=1e-7)

    def test_exponential(self):
        for s in (0.05, 1.0, 7.0, 60.0):
            self.assertAlmostEqual(ref.conj_exp1(s) / self.sup(
                lambda t: math.expm1(t) - t, s, math.log1p(s)), 1.0, delta=1e-7)


if __name__ == "__main__":
    unittest.main()
