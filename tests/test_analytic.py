"""Analytic estimate tests: frozen spot values, cross-checks, invariants.

Spot values were derived once by hand or by independent quadrature and are
asserted to full printed precision; the cross-check tests re-derive them
through a second code path at runtime.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from pstar.analytic import (
    DUSART_MIN_K,
    EPSILON_MIN_X,
    ETA,
    dusart_excess_lower,
    epsilon,
    li,
    phi_lower_bound,
    pi_via_theta_identity,
    wallis_bounds,
    wallis_sweep,
)
from pstar.errors import DomainError


class TestEpsilon:
    def test_left_edge_value(self):
        assert epsilon(149.0) == pytest.approx(0.14127851977397676, rel=1e-12)

    def test_turning_point_value(self):
        # at x = e^eta the exponent is exactly -1
        x = math.exp(ETA)
        want = math.sqrt(8.0 * ETA / (17.0 * math.pi * ETA)) / math.e
        assert epsilon(x) == pytest.approx(want, rel=1e-14)

    def test_rejects_below_domain(self):
        with pytest.raises(DomainError):
            epsilon(148.9)

    def test_vector_input(self):
        xs = np.array([149.0, 1e3, 1e6])
        vals = epsilon(xs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(0.14127851977397676, rel=1e-12)

    def test_strictly_decreasing_past_turning_point(self):
        xs = np.geomspace(650.0, 1e18, 4_000)
        vals = epsilon(xs)
        assert np.all(np.diff(vals) < 0)


def li_quadrature(x: float, epsrel: float = 1e-12) -> float:
    """li by adaptive quadrature of e^u/u over u = log t; the series' oracle."""
    if x < 2.0:
        raise DomainError("li is defined here for x >= 2")
    val, _ = quad(lambda u: math.exp(u) / u, math.log(2.0), math.log(x),
                  epsabs=0.0, epsrel=epsrel, limit=200)
    return val


def _li_mpmath(x) -> mpmath.mpf:
    """li(x) - li(2) in mpmath, at the exact binary value of x."""
    return mpmath.li(_exact(x)) - mpmath.li(2)


def _exact(v) -> mpmath.mpf:
    # enough digits to carry every bit of a float64 or an 80-bit longdouble
    return mpmath.mpf(np.format_float_scientific(v, unique=False, precision=30))


class TestLi:
    def test_li_at_two_is_zero(self):
        assert li(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_li_at_ten(self):
        assert li(10.0) == pytest.approx(5.1204357246698065, rel=1e-12)

    def test_li_matches_quadrature(self):
        for x in (3.0, 10.0, 1e4, 1e8):
            assert li(x) == pytest.approx(li_quadrature(x), rel=1e-10)

    def test_li_additivity(self):
        # li(b) - li(a) is the integral of 1/log t over [a, b]
        seg, _ = quad(lambda t: 1.0 / math.log(t), 100.0, 1000.0,
                      epsabs=0.0, epsrel=1e-12)
        assert li(1000.0) - li(100.0) == pytest.approx(seg, rel=1e-10)

    def test_li_rejects_below_two(self):
        with pytest.raises(DomainError):
            li(1.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                li(np.array([10.0, bad]))
        with pytest.raises(DomainError):
            li_quadrature(1.999)

    def test_li_vector(self):
        vals = li(np.array([2.0, 10.0, 100.0]))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(vals) > 0)

    def test_li_matches_mpmath_float64(self):
        with mpmath.workdps(40):
            xs = np.append(np.geomspace(2.5, 1e18, 400), [1e30, 1e100, 1e300])
            vals = li(xs)
            assert vals.dtype == np.float64
            worst = max(abs(mpmath.mpf(float(v)) / _li_mpmath(x) - 1)
                        for v, x in zip(vals, xs))
            assert worst <= 1e-13
            near_two = np.linspace(2.0, 2.5, 51)[1:]
            worst_abs = max(abs(mpmath.mpf(float(v)) - _li_mpmath(x))
                            for v, x in zip(li(near_two), near_two))
            assert worst_abs <= 2e-15

    def test_li_longdouble_keeps_dtype_and_precision(self):
        assert isinstance(li(np.longdouble(1000)), np.longdouble)
        with mpmath.workdps(40):
            xs = np.geomspace(np.longdouble(2.5), np.longdouble(1e18), 400)
            vals = li(xs)
            assert vals.dtype == np.longdouble
            worst = max(abs(_exact(v) / _li_mpmath(x) - 1)
                        for v, x in zip(vals, xs))
            assert worst <= 1e-16


class TestDusartExcess:
    def test_positive_at_proven_floor(self):
        assert dusart_excess_lower(DUSART_MIN_K) > 0

    def test_magnitude_at_1e12(self):
        # the bound behaves like log2 * k / log^2 k; the ratio was frozen once
        v = dusart_excess_lower(1e12)
        assert v == pytest.approx(991196585.6008072, rel=1e-12)
        ratio = v / (1e12 / math.log(1e12) ** 2)
        assert 0.5 < ratio < 1.0

    def test_checked_floor_enforced(self):
        with pytest.raises(DomainError):
            dusart_excess_lower(DUSART_MIN_K - 1)

    def test_unchecked_evaluates_outside_range(self):
        v = dusart_excess_lower(100, checked=False)
        assert math.isfinite(v)

    def test_rejects_tiny_k_even_unchecked(self):
        with pytest.raises(DomainError):
            dusart_excess_lower(2, checked=False)


class TestWallis:
    def test_s1_by_hand(self):
        lower, product, upper = wallis_bounds(1)
        assert product == 1.5
        assert lower == pytest.approx(math.sqrt(6.0 / math.pi), rel=1e-14)
        assert upper == pytest.approx(3.0 / math.sqrt(math.pi), rel=1e-14)
        assert lower < product < upper

    def test_s2_by_hand(self):
        lower, product, upper = wallis_bounds(2)
        assert product == pytest.approx(1.875, rel=1e-15)
        assert lower == pytest.approx(math.sqrt(10.0 / math.pi), rel=1e-14)
        assert upper == pytest.approx(5.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
        assert lower < product < upper

    def test_sweep_matches_scalar(self):
        lowers, products, uppers = wallis_sweep(50)
        for s in (1, 7, 50):
            lo, pr, up = wallis_bounds(s)
            assert lowers[s - 1] == pytest.approx(lo, rel=1e-13)
            assert products[s - 1] == pytest.approx(pr, rel=1e-13)
            assert uppers[s - 1] == pytest.approx(up, rel=1e-13)

    def test_sandwich_holds_to_1e4(self):
        lowers, products, uppers = wallis_sweep(10_000)
        assert np.all(lowers < products)
        assert np.all(products < uppers)

    def test_rejects_s_zero(self):
        with pytest.raises(DomainError):
            wallis_bounds(0)


class TestPhiLowerBound:
    def test_small_values(self):
        assert phi_lower_bound(3) == pytest.approx(0.11170664408087048, rel=1e-12)
        assert phi_lower_bound(30) < 8  # phi(30) = 8
        assert phi_lower_bound(1e6) < 400_000

    def test_rejects_below_three(self):
        with pytest.raises(DomainError):
            phi_lower_bound(2)


def _theta_identity_midpoint(cache, x, step):
    """pi(x) from the theta identity, its integral by the midpoint rule.

    Approximate by construction (theta is a step function); the oracle for
    the exact breakpoint sum.
    """
    edges = np.append(np.arange(2.0, x, step), x)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    integral = sum(cache.theta(t) / (t * math.log(t) ** 2) * w
                   for t, w in zip(mids, widths))
    return cache.theta(x) / math.log(x) + integral


class TestPiViaThetaIdentity:
    def test_small_exact(self, cache_main):
        assert pi_via_theta_identity(cache_main, 10.0) == pytest.approx(4.0, abs=1e-9)
        assert pi_via_theta_identity(cache_main, 2.5) == pytest.approx(1.0, abs=1e-9)

    def test_larger_values(self, cache_main):
        assert pi_via_theta_identity(cache_main, 1e5) == pytest.approx(
            cache_main.pi(1e5), abs=1e-6)

    def test_quadrature_mode_approximates(self, cache_main):
        exact = pi_via_theta_identity(cache_main, 1e3)
        approx = _theta_identity_midpoint(cache_main, 1e3, step=0.25)
        assert approx == pytest.approx(exact, abs=0.5)

    def test_rejects_below_two(self, cache_main):
        with pytest.raises(DomainError):
            pi_via_theta_identity(cache_main, 1.0)
