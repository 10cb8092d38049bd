"""P*-integer classification by direct sieving.

A modulus k is a P*(alpha, beta, gamma, iota)-integer when the primes
in [alpha, beta] put at least gamma members into every invertible
residue class mod k and their total count is exactly
gamma*phi(k) + iota.  Surplus primes may sit in any class; the total is
the only constraint on them.  The classical P-integer notion (the first
phi(k) primes not dividing k form a complete reduced residue system) is
the special case alpha=2, beta=p_{phi+omega}, gamma=1, iota=omega(k).

The classical and block forms read one window, the first phi(k) + omega(k)
primes (``first_primes``, bounded by ``nth_prime``), and look for the first
repeated residue in it.  phi and omega come from ``arithmetic_profile``.

Conventions: the modulus must be >= 2 (mod-1 classes are degenerate),
and iota = 0 is accepted even though the definition reads iota > 0,
since degenerate instances are useful in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .blocks import half_counts_direct
from .errors import DomainError, SieveBudgetError
from .primes import PrimeCache, arithmetic_profile, simple_sieve


# Draws per window in each round of the census filter; a round passes on
# only the moduli it could not refute.
_CENSUS_WIDTHS = (4, 16, 96)
_CENSUS_CHUNK = 1 << 14  # moduli per filter block, bounding its arrays


@dataclass(frozen=True)
class PStarParams:
    k: int
    alpha: int
    beta: int
    gamma: int = 1
    iota: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"modulus must be >= 2, got k={self.k}")
        if not (1 <= self.alpha <= self.beta):
            raise DomainError(
                f"need 1 <= alpha <= beta, got [{self.alpha}, {self.beta}]")
        if self.gamma < 1:
            raise DomainError(f"gamma must be >= 1, got {self.gamma}")
        if self.iota < 0:
            raise DomainError(f"iota must be >= 0, got {self.iota}")


@dataclass(frozen=True)
class ResidueTally:
    k: int
    counts: np.ndarray
    total: int
    invertible_min: int


@dataclass(frozen=True)
class PStarVerdict:
    is_pstar: bool
    tally: ResidueTally
    deficit_classes: tuple[int, ...]
    total_mismatch: int


class BalanceCheck(NamedTuple):
    holds: bool
    a1: int
    a2: int


class ClassicalCheck(NamedTuple):
    is_p_integer: bool
    witness: dict[int, int]


def invertible_residues(k: int) -> np.ndarray:
    """Residues 0 <= r < k prime to k, ascending: the multiples of each prime
    divisor of k are struck out."""
    if k < 2:
        raise DomainError(f"modulus must be >= 2, got k={k}")
    coprime = np.ones(k, dtype=bool)
    for q in arithmetic_profile(k).prime_divisors:
        coprime[::q] = False
    return np.flatnonzero(coprime)


def residue_tally(cache: PrimeCache, k: int, alpha: int, beta: int) -> ResidueTally:
    """Per-class prime counts over [alpha, beta]: counts[r] = #{p = r mod k}."""
    return _tally(cache, invertible_residues(k), k, alpha, beta)


def _tally(cache: PrimeCache, inv: np.ndarray, k: int, alpha: int,
           beta: int) -> ResidueTally:
    """:func:`residue_tally` given the invertible residues ``inv`` of k."""
    if not (1 <= alpha <= beta):
        raise DomainError(f"need 1 <= alpha <= beta, got [{alpha}, {beta}]")
    primes = cache.primes_in(alpha, beta)
    counts = np.bincount(primes % k, minlength=k).astype(np.int64)
    return ResidueTally(k, counts, int(counts.sum()), int(counts[inv].min()))


def is_pstar(cache: PrimeCache, params: PStarParams) -> PStarVerdict:
    inv = invertible_residues(params.k)  # phi(k) of them
    tally = _tally(cache, inv, params.k, params.alpha, params.beta)
    deficits = tuple(inv[tally.counts[inv] < params.gamma].tolist())
    mismatch = tally.total - (params.gamma * inv.size + params.iota)
    return PStarVerdict(not deficits and mismatch == 0, tally, deficits, mismatch)


def first_primes(cache: PrimeCache, n: int) -> np.ndarray:
    """The first n primes, or all the cache holds if that is fewer."""
    return cache.primes_in(2, cache.nth_prime(min(n, cache.prime_count())))


def _first_repeat(residues: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one; the length if none."""
    order = np.argsort(residues, kind="stable")
    repeats = order[1:][np.diff(residues[order]) == 0]
    return int(repeats.min()) if repeats.size else residues.size


def is_classical_p_integer(cache: PrimeCache, k: int) -> ClassicalCheck:
    """First phi(k) primes not dividing k hit each reduced class exactly once.

    The witness maps residue -> prime, in prime order, for the classes
    placed before the first repeat (complete exactly when the verdict is
    positive).  A repeat among the primes the cache holds decides the
    verdict even when phi(k) of them are not available.
    """
    if k < 2:
        raise DomainError(f"modulus must be >= 2, got k={k}")
    prof = cache.profile(k)
    # A prime divisor q of k has pi(q) < q <= phi(k) + 1, so a complete
    # window holds every divisor and exactly phi(k) coprime primes.
    ps = first_primes(cache, prof.phi + prof.omega)
    ps = ps[k % ps != 0]
    r = ps % k
    i = _first_repeat(r)
    if i == r.size < prof.phi:
        raise SieveBudgetError(
            f"modulus k={k} needs primes beyond the ceiling {cache.limit}")
    return ClassicalCheck(i == prof.phi, dict(zip(r[:i].tolist(), ps[:i].tolist())))


def is_block_p_integer(cache: PrimeCache, k: int) -> bool:
    """Block form: among the first phi(k)+omega(k) primes, every invertible
    class occurs exactly once and the rest are divisors of k in distinct
    non-invertible classes.

    Unlike the classical form, this assumes all prime divisors of k show
    up inside the block; compare_classical_forms reports any split.
    """
    prof = cache.profile(k)
    n = prof.phi + prof.omega
    ps = first_primes(cache, n)
    # Divisors of k land in non-invertible classes and the other primes in
    # invertible ones, so one repeat test covers both kinds of class.
    if _first_repeat(ps % k) < ps.size:
        return False
    if ps.size < n:
        raise SieveBudgetError(
            f"modulus k={k} needs primes beyond the ceiling {cache.limit}")
    return int(np.count_nonzero(k % ps)) == prof.phi


def compare_classical_forms(cache: PrimeCache, k: int) -> tuple[bool, bool]:
    """(classical, block) verdicts side by side; callers report disagreement."""
    return is_classical_p_integer(cache, k).is_p_integer, is_block_p_integer(cache, k)


def balance_condition(cache: PrimeCache, k: int, alpha: int, beta: int,
                      iota: int) -> BalanceCheck:
    """Necessary condition: the lower-half residue count a1 (residues r with
    2r <= k) and upper-half count a2 differ by at most iota."""
    a1, a2 = half_counts_direct(cache, k, alpha, beta)
    return BalanceCheck(abs(a1 - a2) <= iota, a1, a2)


def classical_params(cache: PrimeCache, k: int) -> PStarParams:
    """Embed the classical form: alpha=2, beta=p_{phi+omega}, gamma=1, iota=omega."""
    prof = cache.profile(k)
    beta = cache.nth_prime(prof.phi + prof.omega)
    return PStarParams(k, 2, beta, 1, prof.omega)


def search(cache: PrimeCache, k_values: Iterable[int],
           rule: Callable[[int], PStarParams]) -> list[tuple[int, PStarVerdict]]:
    """Classify every k in ascending order under rule(k); budget errors carry k."""
    out = []
    for k in sorted(set(int(k) for k in k_values)):
        try:
            out.append((k, is_pstar(cache, rule(k))))
        except SieveBudgetError as exc:
            raise SieveBudgetError(f"search stopped at k={k}: {exc}") from exc
    return out


def totient_table(n: int) -> np.ndarray:
    """phi(0..n) by the sieve of multiplicative corrections.

    Each prime p replaces phi[m] by phi[m] - phi[m] // p on its multiples m;
    the division is exact whatever order the primes come in.  Primes up to
    sqrt(n) update a slice each.  The larger ones are grouped by n // p and
    each group is one fancy-indexed update over p * (1..n // p): such a p
    has fewer than p multiples up to n, so two primes of a group share none.
    """
    phi = np.arange(n + 1, dtype=np.int64)
    primes = simple_sieve(n)
    split = np.searchsorted(primes, math.isqrt(n), side="right")
    for p in primes[:split].tolist():
        phi[p::p] -= phi[p::p] // p
    large = primes[split:]
    runs = np.flatnonzero(np.diff(n // large)) + 1
    for group in np.split(large, runs):
        if group.size:
            idx = group[:, None] * np.arange(1, n // int(group[0]) + 1)
            phi[idx] -= phi[idx] // group[:, None]
    return phi


def _windows_refute(primes: np.ndarray, prime_flags: np.ndarray, ks: np.ndarray,
                    starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """Per row: do the first ``width`` draws of primes[starts[:, j]:ends[:, j]],
    j = 0, 1, hold a residue mod k that is a small prime or that repeats?"""
    idx = (starts[:, :, None] + np.arange(width)).reshape(ks.size, 2 * width)
    valid = idx < np.repeat(ends, width, axis=1)
    r = primes[np.minimum(idx, primes.size - 1)] % ks[:, None]
    small = np.any(prime_flags[r] & valid, axis=1)
    # Clipped slots get distinct negative fillers, so only residues can repeat.
    r = np.where(valid, r, -1 - np.arange(2 * width))
    r.sort(axis=1)
    return small | np.any(r[:, 1:] == r[:, :-1], axis=1)


def _census_survivors(cache: PrimeCache, k_max: int) -> np.ndarray:
    """The moduli 2 <= k <= k_max that the census filter cannot refute."""
    if k_max < 2:
        return np.empty(0, dtype=np.int64)
    phi_tab = totient_table(k_max)
    # p_n < n (log n + log log n) for n >= 6 covers the worst case phi(k)+omega(k)
    n_need = k_max + 16
    bound = int(n_need * (math.log(n_need) + math.log(math.log(n_need)))) + 10
    primes = cache.primes_in(2, min(bound, cache.limit))
    if len(primes) < n_need:
        raise SieveBudgetError(
            f"census to {k_max} wants ~{n_need} primes, ceiling {cache.limit} is too low")
    prime_flags = np.zeros(k_max + 1, dtype=bool)
    prime_flags[primes[primes <= k_max]] = True
    survivors = []
    for k0 in range(2, k_max + 1, _CENSUS_CHUNK):
        ks = np.arange(k0, min(k0 + _CENSUS_CHUNK, k_max + 1))
        phi = phi_tab[ks]
        # primes starts at 2, so pi(x) is the index of the first prime above x
        above_k = cache.pi_many(ks)
        above_2k = cache.pi_many(2 * ks)
        starts = np.stack([above_k, above_2k], axis=1)
        ends = np.stack([np.minimum(above_2k, phi), phi], axis=1)
        for width in _CENSUS_WIDTHS:
            keep = ~_windows_refute(primes, prime_flags, ks, starts, ends, width)
            ks, starts, ends = ks[keep], starts[keep], ends[keep]
        survivors.append(ks)
    return np.concatenate(survivors)


def classical_census(cache: PrimeCache, k_max: int) -> list[int]:
    """All classical P-integers with 2 <= k <= k_max, by exhaustive scan.

    A filter over all moduli at once refutes almost every k; the few
    survivors (17 up to 10^6) are settled by the exact walk
    ``is_classical_p_integer``.  Primes below k are their own residues, so
    they never collide and the first possible repeat involves a prime
    above k.  Each k gets two windows of primes: those just above k and
    those just above 2k, the first stopping where the second starts so
    that no prime is drawn twice.  Both are clipped to index < phi(k).  A
    residue p mod k in a window refutes k when it is a small prime or when
    it repeats another residue of the windows.

    The filter only refutes, on two facts.  A prime of window index
    i < phi(k) is at most the (i+1)-th prime not dividing k, so it is one
    of the first phi(k) of them, and two of them in one class refute k.
    And p mod k shares no factor with k, so a prime residue q < k is
    itself a prime not dividing k, smaller than p and in the same class.

    The filter runs in rounds of 4, 16 and 96 draws per window; each round
    sees only the moduli the one before could not refute.  A repeat in a
    narrower window is a repeat in the 96-wide one, so the rounds leave
    exactly the moduli the 96-wide windows cannot refute.  Moduli go
    through in blocks of ``_CENSUS_CHUNK`` to bound the arrays.
    """
    return [k for k in _census_survivors(cache, k_max).tolist()
            if is_classical_p_integer(cache, k).is_p_integer]
