"""Prime sources indexed by norm: rational primes and Gaussian prime ideals.

The half-block counting machinery only ever consumes a nondecreasing
multiset of prime norms, so other unique-factorization settings plug in by
supplying that multiset.  Two instances are provided:

* :class:`NaturalSemigroup`: the positive integers; prime norms are the
  primes themselves, delegated to the prime cache.
* :class:`GaussianSemigroup`: ideals of Z[i]; prime-ideal norms follow the
  splitting of rational primes: norm 2 once (ramified), norm p twice when
  p = 1 mod 4 (split), norm p^2 once when p = 3 mod 4 (inert).

Element counting differs between the two by a lattice constant: the number
of Z[i]-ideals with norm <= x grows like (pi/4) x, not x, which is why the
qualitative explorations here report trends instead of asserting the
idealized unit-constant growth.

The logarithmic-integral helpers at the bottom evaluate the quantity that
drives the half-block excess at infinite precision level: the
half-versus-whole excess 2 li((K/2)^delta) - li(K^delta) and the second
difference of li across a block.  Both call ``analytic.li``, a pure numpy
series.  The tests hold the cross-check, an integral representation of the
excess evaluated by adaptive quadrature.  The printed form of that
integral in the source material starts at 2, where the integrand is
non-integrable for exponent 1; the identity used there starts at
2^(1+delta) and subtracts li(2^(1+delta)), which is what the substitution
actually yields.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .analytic import li
from .errors import DomainError
from .primes import PrimeCache

__all__ = [
    "NormSemigroup",
    "NaturalSemigroup",
    "GaussianSemigroup",
    "prime_norm_count",
    "half_norm_counts",
    "li_difference",
    "li_block_difference",
    "growth_trend",
]


@runtime_checkable
class NormSemigroup(Protocol):
    """What the counting layer needs from a factorization setting."""

    name: str
    delta: float

    def prime_norms_up_to(self, x: float) -> np.ndarray: ...

    def count_elements(self, x: float) -> int: ...


class NaturalSemigroup:
    """The positive integers under multiplication."""

    name = "nat"
    delta = 1.0

    def __init__(self, cache: PrimeCache):
        self.cache = cache

    def prime_norms_up_to(self, x: float) -> np.ndarray:
        return self.cache.primes_in(2, x)

    def count_elements(self, x: float) -> int:
        return max(0, math.floor(x))


class GaussianSemigroup:
    """Ideals of the Gaussian integers, represented by norms only."""

    name = "gaussian"
    delta = 1.0

    def __init__(self, cache: PrimeCache):
        self.cache = cache

    def prime_norms_up_to(self, x: float) -> np.ndarray:
        """Prime-ideal norms <= x, nondecreasing, with multiplicity."""
        if x < 2:
            return np.empty(0, dtype=np.int64)
        odd = self.cache.primes_in(3, x)
        split = odd[odd % 4 == 1]
        small = self.cache.primes_in(3, math.isqrt(math.floor(x)))
        inert_sq = (small[small % 4 == 3]) ** 2
        norms = np.concatenate(
            [np.array([2], dtype=np.int64), np.repeat(split, 2), inert_sq]
        )
        norms.sort()
        return norms

    def count_elements(self, x: float) -> int:
        """Ideals with norm <= x: nonzero lattice points in the disk, per unit.

        Counts integer pairs (a, b) with 0 < a^2 + b^2 <= x and divides by
        the 4 units.  Exact integer square roots throughout.
        """
        big_x = math.floor(x)
        if big_x < 1:
            return 0
        top = math.isqrt(big_x)
        a = np.arange(1, top + 1, dtype=np.int64)
        rem = big_x - a * a
        s = np.sqrt(rem.astype(np.float64)).astype(np.int64)
        s = np.where((s + 1) * (s + 1) <= rem, s + 1, s)
        s = np.where(s * s > rem, s - 1, s)
        lattice = (2 * top + 1) + 2 * int((2 * s + 1).sum()) - 1
        if lattice % 4:
            raise AssertionError("lattice count must be divisible by 4")
        return lattice // 4


def prime_norm_count(instance: NormSemigroup, x: float) -> int:
    """Number of prime norms <= x, with multiplicity."""
    return int(instance.prime_norms_up_to(x).size)


def half_norm_counts(
    instance: NormSemigroup, k_norm: int, alpha: float, beta: float
) -> tuple[int, int]:
    """Prime norms in [alpha, beta] split by residue half mod k_norm.

    Returns (first_half, second_half) where a norm n belongs to the first
    half when 2 * (n mod k_norm) <= k_norm.  For the natural instance this
    agrees exactly with the direct prime-residue counter.
    """
    if k_norm < 2:
        raise DomainError(f"modulus must be >= 2, got {k_norm}")
    if alpha > beta:
        raise DomainError(f"need alpha <= beta, got ({alpha}, {beta})")
    norms = instance.prime_norms_up_to(beta)
    norms = norms[norms >= alpha]
    in_first = 2 * (norms % k_norm) <= k_norm
    a1 = int(np.count_nonzero(in_first))
    return a1, int(norms.size) - a1


def li_difference(big_k: float, delta: float):
    """2 li((K/2)^delta) - li(K^delta), the half-versus-whole li excess."""
    half = (0.5 * big_k) ** delta
    if half < 2:
        raise DomainError(f"(K/2)^delta must be >= 2, got {half}")
    return 2 * li(half) - li(big_k ** delta)


def li_block_difference(k: float, j: int, delta: float):
    """Second difference of li across block j at norm exponent delta.

    2 li(midpoint^delta) - li(left^delta) - li(right^delta) for the block
    [j*k, (j+1)*k].  Positive for delta = 1 (li of x is concave), negative
    for delta = 2 (li of x^2 is convex) once the left edge clears e.
    """
    if j < 1:
        raise DomainError(f"block index must be >= 1, got {j}")
    x_lo = float(j) * k
    if x_lo ** delta < 2:
        raise DomainError(f"left edge norm power {x_lo ** delta} below 2")
    x_mid = (j + 0.5) * k
    x_hi = (j + 1.0) * k
    return 2 * li(x_mid ** delta) - li(x_lo ** delta) - li(x_hi ** delta)


def growth_trend(
    instance: NormSemigroup, k_norm: int, betas
) -> list[dict]:
    """Excess of first-half over second-half norms on [1, beta], per beta.

    A descriptive report, nothing is asserted: rows are sorted by beta and
    carry the running excess so callers can eyeball the growth.
    """
    rows = []
    for beta in sorted(betas):
        a1, a2 = half_norm_counts(instance, k_norm, 1, beta)
        rows.append(
            {"beta": float(beta), "first": a1, "second": a2, "excess": a1 - a2}
        )
    return rows
