"""Norm-semigroup tests: Gaussian splitting, lattice counts, li identities."""

import math

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from pstar import blocks
from pstar.analytic import li
from pstar.errors import DomainError
from pstar.semigroup import (
    GaussianSemigroup,
    NaturalSemigroup,
    growth_trend,
    half_norm_counts,
    li_block_difference,
    li_difference,
    prime_norm_count,
)


# -- Gaussian instance -------------------------------------------------------

def test_gaussian_prime_norms_small(cache_small):
    g = GaussianSemigroup(cache_small)
    # ramified 2, split 5 (twice), inert 3 contributing norm 9
    assert g.prime_norms_up_to(10).tolist() == [2, 5, 5, 9]
    assert g.prime_norms_up_to(3).tolist() == [2]
    assert prime_norm_count(g, 10) == 4


def test_gaussian_norms_against_splitting_law(cache_main):
    g = GaussianSemigroup(cache_main)
    x = 500
    norms = g.prime_norms_up_to(x).tolist()
    want = [2]
    for p in sympy.primerange(3, x + 1):
        if p % 4 == 1:
            want += [p, p]
    for p in sympy.primerange(3, math.isqrt(x) + 1):
        if p % 4 == 3:
            want.append(p * p)
    assert norms == sorted(want)


def test_gaussian_norm_count_at_1e6(cache_main):
    g = GaussianSemigroup(cache_main)
    assert prime_norm_count(g, 1e6) == 78_438


def test_gaussian_element_count_small(cache_small):
    g = GaussianSemigroup(cache_small)
    # norms <= 5 up to units: 1, 1+i, 2, 2+i, 1+2i
    assert g.count_elements(5) == 5
    assert g.count_elements(1) == 1
    assert g.count_elements(0.5) == 0


def test_gaussian_element_density_tends_to_quarter_pi(cache_main):
    g = GaussianSemigroup(cache_main)
    dens = g.count_elements(1e6) / 1e6
    assert dens == pytest.approx(math.pi / 4.0, abs=2e-5)


def test_gaussian_element_count_brute_force(cache_small):
    g = GaussianSemigroup(cache_small)
    for x in (2, 10, 37, 100):
        lattice = sum(1 for a in range(-x, x + 1) for b in range(-x, x + 1)
                      if 0 < a * a + b * b <= x)
        assert g.count_elements(x) == lattice // 4, x


# -- natural instance delegates to the sieve ---------------------------------

def test_natural_delegation(cache_small):
    nat = NaturalSemigroup(cache_small)
    assert nat.prime_norms_up_to(50).tolist() == \
        cache_small.primes_in(2, 50).tolist()
    assert prime_norm_count(nat, 1_000) == cache_small.pi(1_000)
    assert nat.count_elements(17.9) == 17
    assert nat.delta == 1.0


def test_half_norm_counts_match_blocks(cache_small):
    nat = NaturalSemigroup(cache_small)
    for k, a, b in ((10, 1, 100), (7, 3, 300), (5, 1, 25)):
        assert half_norm_counts(nat, k, a, b) == \
            blocks.half_counts_direct(cache_small, k, a, b)


def test_half_norm_counts_gaussian(cache_small):
    # Gaussian norms <= 10 are 2, 5, 5, 9; mod 10 -> first half {2,5,5}, {9}
    g = GaussianSemigroup(cache_small)
    assert half_norm_counts(g, 10, 1, 10) == (3, 1)


# -- li difference identities -------------------------------------------------

def _li_difference_integrand(tau: float, delta: float) -> float:
    two = 2.0 ** (1.0 - delta)
    return (two - 1.0 + delta * math.log(2.0) / math.log(tau)) / math.log(
        2.0 ** -delta * tau
    )


def li_difference_integral(big_k: float, delta: float, epsrel: float = 1e-10):
    """Integral representation of :func:`li_difference`, the series' oracle.

    Evaluates the substitution identity

        2 li((K/2)^d) - li(K^d)
            = integral from 2^(1+d) to K^d of
              (2^(1-d) - 1 + d log2 / log tau) / log(2^(-d) tau) dtau
            - li(2^(1+d))

    The lower limit sits above the integrand's pole at 2^d, so the
    quadrature is routine.
    """
    lo = 2.0 ** (1.0 + delta)
    hi = big_k ** delta
    if hi <= lo:
        raise DomainError(f"K^delta must exceed {lo}, got {hi}")
    value, err = quad(
        _li_difference_integrand, lo, hi, args=(delta,), epsabs=0.0,
        epsrel=epsrel, limit=200,
    )
    return value - li(lo)


def test_li_difference_matches_integral_form():
    for big_k, delta in ((1e5, 1.0), (1e5, 2.0), (1e8, 1.5), (2e3, 1.0)):
        direct = li_difference(big_k, delta)
        via_integral = li_difference_integral(big_k, delta)
        assert direct == pytest.approx(via_integral, rel=1e-9), (big_k, delta)


def test_li_difference_domain():
    # (K/2)^delta must clear li's own domain
    with pytest.raises(DomainError):
        li_difference(3.0, 1.0)


def test_li_block_difference_signs():
    for k in (300, 1_009, 5_000):
        for j in range(1, 21):
            assert li_block_difference(k, j, 1.0) > 0, (k, j)
            assert li_block_difference(k, j, 2.0) < 0, (k, j)


def test_li_block_difference_rejects_block_zero():
    with pytest.raises(DomainError):
        li_block_difference(1_000, 0, 1.0)


def test_growth_trend_is_cumulative(cache_small):
    nat = NaturalSemigroup(cache_small)
    rows = growth_trend(nat, 10, [500, 50, 100])
    assert [r["beta"] for r in rows] == [50.0, 100.0, 500.0]
    totals = [r["first"] + r["second"] for r in rows]
    assert totals == sorted(totals)
    assert all(r["excess"] == r["first"] - r["second"] for r in rows)
