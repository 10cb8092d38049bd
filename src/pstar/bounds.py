"""Explicit lower bounds for half-block prime excesses.

The sieve side (:mod:`pstar.blocks`) counts, per length-k block, how many
more primes land in the first half than in the second.  This module bounds
those excesses from below with closed-form expressions built from the
Chebyshev error envelope :func:`pstar.analytic.epsilon`, chains the per-block
bounds into an interval-wide bound, and locates the threshold above which
the chained bound certifies a positive excess outright.

Everything here is an inequality with an explicit error budget, so each
evaluator has a sieve-backed counterpart in the test suite: the bound must
sit below the exact count wherever both are computable.

Naming scheme (sieve quantity -> bound):

* ``half_block_excess``        -> :func:`block_excess_lower` minus
  :func:`tail_correction` (the per-block lower bound and the price of
  converting a weighted count into a plain one).
* boundary terms M1 - M2       -> :func:`boundary_lower_bound`.
* summed inner blocks          -> :func:`block_sum_lower_bound` against
  :func:`block_sum_direct`.
* the whole interval           -> :func:`final_inequality`, minimized over
  the admissible number of blocks, reported term by term.

The per-block evaluators take j as an int or as an int array of indices
>= 1 (block 0 is scalar-only), so each chained sum is one array evaluation
and a sequential ``np.cumsum``: the same additions in the same order as a
loop over j.

The block count b is never known exactly in advance, so the final
inequality is evaluated at every admissible b and the minimum is reported:
the certified statement is "positive for all admissible b", which is the
minimum being positive.

Precision: totals are float64; any verdict within 1e-9 relative of a tie is
re-evaluated in 80-bit extended precision before the boolean is decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .analytic import DUSART_MIN_K, EPSILON_MIN_X, dusart_excess_lower, epsilon
from .errors import (
    DomainError,
    EmptyRangeError,
    ThresholdNotFoundError,
    UnsupportedCaseError,
)
from .precision import strictly_less
from .primes import PrimeCache
from . import blocks

__all__ = [
    "BoundConfig",
    "MarginReport",
    "REFERENCE_CONFIG",
    "block_excess_lower",
    "tail_correction",
    "block_excess_main",
    "block_excess_error",
    "pi_gap_margin",
    "start_correction",
    "boundary_lower_bound",
    "index_sum",
    "block_sum_lower_bound",
    "block_sum_direct",
    "concavity_sum_check",
    "final_inequality",
    "final_inequality_from_primitives",
    "effective_threshold",
    "pi_second_difference",
    "beta_floor",
]


def _f(x):
    """Chebyshev-scale density x / log x, dtype preserving."""
    return x / np.log(x)


# ---------------------------------------------------------------------------
# per-block bounds


def _block_index(j, xp):
    """Block index j >= 1, an int or an int array, cast to xp."""
    if np.any(np.asarray(j) < 1):
        raise DomainError(f"block index must be >= 1 here (block 0 is the "
                          f"scalar origin bound), got {np.min(j)}")
    return xp(j) if np.ndim(j) == 0 else np.asarray(j).astype(xp)


def _block_points(k, j, xp=float):
    jx, kx = _block_index(j, xp), xp(k)
    return jx * kx, (jx + xp(0.5)) * kx, (jx + xp(1)) * kx


def block_excess_main(k, j, xp=float):
    """Concavity gain of the density x/log x across block j.

    2 f(midpoint) - f(left) - f(right); positive because x/log x is concave
    at these scales.  Requires the left edge j*k >= 3.
    """
    x_lo, x_mid, x_hi = _block_points(k, j, xp)
    if np.any(x_lo < 3):
        raise DomainError(f"block left edge {np.min(x_lo)} below 3")
    return 2 * _f(x_mid) - _f(x_lo) - _f(x_hi)


def block_excess_error(k, j, xp=float):
    """Error budget of the per-block bound: envelope-weighted densities."""
    x_lo, x_mid, x_hi = _block_points(k, j, xp)
    if np.any(x_lo < EPSILON_MIN_X):
        raise DomainError(
            f"block left edge {np.min(x_lo)} below envelope domain {EPSILON_MIN_X}"
        )
    return (
        2 * epsilon(x_mid) * _f(x_mid)
        + epsilon(x_lo) * _f(x_lo)
        + epsilon(x_hi) * _f(x_hi)
    )


def block_excess_lower(k, j, checked: bool = True, xp=float):
    """Lower bound for the half-block prime excess of block j.

    For j >= 1 this is the concavity gain minus the error budget (left edge
    must sit in the envelope domain).  Block 0 has no left mass to exploit,
    so it delegates to the unconditional origin-block bound
    :func:`pstar.analytic.dusart_excess_lower`, valid for
    k >= 2 953 652 287 (pass ``checked=False`` to evaluate the same formula
    below that floor, for exploration only).
    """
    if np.ndim(j) == 0 and j == 0:
        return dusart_excess_lower(k, checked=checked)
    return block_excess_main(k, j, xp) - block_excess_error(k, j, xp)


def tail_correction(k, j, xp=float):
    """Price of the weighted-to-plain count conversion for block j.

    k * eps(midpoint) / log^2(midpoint); exactly zero for block 0, whose
    bound is already stated for plain counts.
    """
    if np.ndim(j) == 0 and j == 0:
        return xp(0.0)
    _, x_mid, _ = _block_points(k, j, xp)
    if np.any(x_mid < EPSILON_MIN_X):
        raise DomainError(
            f"block midpoint {np.min(x_mid)} below envelope domain {EPSILON_MIN_X}"
        )
    return xp(k) * epsilon(x_mid) / np.log(x_mid) ** 2


def pi_gap_margin(x_lo, x_hi, xp=float):
    """Relative margin in the prime-count gap bound.

    pi(x_hi) - pi(x_lo) < (x_hi / log x_lo) * (1 + margin) with

        margin = (1 - x_lo/x_hi)(1 + eps(x_lo)) / log^2 x_lo
                 - x_lo/x_hi + 2 eps(x_lo).

    Degenerates to -1 + 2 eps(x_lo) when the endpoints coincide.
    """
    x_lo, x_hi = xp(x_lo), xp(x_hi)
    if not (EPSILON_MIN_X <= x_lo <= x_hi):
        raise DomainError(
            f"need {EPSILON_MIN_X} <= x_lo <= x_hi, got ({x_lo}, {x_hi})"
        )
    ratio = x_lo / x_hi
    e = epsilon(x_lo)
    return (1 - ratio) * (1 + e) / np.log(x_lo) ** 2 - ratio + 2 * e


def start_correction(lam: int, k: int, alpha: int, cache: PrimeCache | None = None):
    """Magnitude of the correction for the partial block holding alpha.

    Returned positive; callers subtract it.  With lam = 0 it is the exact
    count pi(alpha - 1) (a cache is required); with lam >= 1 it is the
    analytic gap bound (alpha / log(lam k)) * (1 + margin(lam k, alpha)).
    """
    if lam < 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    if lam == 0:
        if cache is None:
            raise DomainError("lam = 0 start correction needs a prime cache")
        return float(cache.pi(alpha - 1))
    x_lam = lam * k
    if alpha < x_lam:
        raise DomainError(f"alpha={alpha} below block start {x_lam}")
    return alpha / math.log(x_lam) * (1 + pi_gap_margin(x_lam, alpha))


def boundary_lower_bound(
    cache: PrimeCache,
    k: int,
    alpha: int,
    beta: int,
    checked: bool = True,
):
    """Analytic lower bound for the boundary term M1 - M2.

    Only the endpoint cases with alpha in a first half are bounded: the
    bound is block_excess_lower(lam) - tail_correction(lam) minus the start
    correction, plus (in case ii, beta in a second half) the same pair for
    the final block.  Cases iii/iv raise :class:`UnsupportedCaseError`.
    """
    decomp = blocks.classify_case(k, alpha, beta)
    if decomp.case_label not in ("i", "ii"):
        raise UnsupportedCaseError(
            f"no boundary bound in case ({decomp.case_label})"
        )
    lam, big_lam = decomp.lam, decomp.big_lam
    total = (
        block_excess_lower(k, lam, checked=checked)
        - tail_correction(k, lam)
        - start_correction(lam, k, alpha, cache)
    )
    if decomp.case_label == "ii":
        total += block_excess_lower(k, big_lam, checked=checked)
        total -= tail_correction(k, big_lam)
    return total


# ---------------------------------------------------------------------------
# chained sums


def index_sum(a: int, b: int) -> int:
    """Sum of the integers from a to b inclusive."""
    if not (0 <= a <= b):
        raise DomainError(f"need 0 <= a <= b, got ({a}, {b})")
    return (b - a + 1) * (a + b) // 2


def block_sum_direct(k, a: int, b: int, xp=float):
    """Directly summed per-block lower bounds, normalized by k."""
    if not (1 <= a <= b):
        raise DomainError(f"need 1 <= a <= b, got ({a}, {b})")
    js = np.arange(a, b + 1, dtype=np.int64)
    per_block = block_excess_lower(k, js, xp=xp) - tail_correction(k, js, xp=xp)
    return np.cumsum(per_block)[-1] / xp(k)

def block_sum_lower_bound(k, a: int, b: int, xp=float):
    """Closed-form lower bound for the normalized block sum over [a, b].

    log((4b+6)/(9a)) / (8 log^2((b+1)k))  -  5 eps(ak)/log(ak) * sum(a+1..b+1).

    Must sit below :func:`block_sum_direct` wherever both are defined
    (left block edge a*k inside the envelope domain).
    """
    if not (1 <= a <= b):
        raise DomainError(f"need 1 <= a <= b, got ({a}, {b})")
    x_a = xp(a) * xp(k)
    if x_a < EPSILON_MIN_X:
        raise DomainError(f"left edge {x_a} below envelope domain")
    x_top = (xp(b) + xp(1)) * xp(k)
    main = np.log((4 * xp(b) + 6) / (9 * xp(a))) / (8 * np.log(x_top) ** 2)
    err = 5 * epsilon(x_a) / np.log(x_a) * xp(index_sum(a + 1, b + 1))
    return main - err


def concavity_sum_check(k, a: int, b: int):
    """Check that the summed concavity gains beat their closed-form floor.

    Returns (lhs, rhs, holds) for
        (8/k) * sum_{j=a}^{b} concavity_gain(j)  >  log((4b+6)/(9a)) / log^2((b+1)k).
    Valid for k >= 55.  Near-ties are re-decided in extended precision.
    """
    if k < 55:
        raise DomainError(f"concavity sum check needs k >= 55, got {k}")
    if not (1 <= a <= b):
        raise DomainError(f"need 1 <= a <= b, got ({a}, {b})")

    js = np.arange(a, b + 1, dtype=np.int64)

    def evaluate(xp):
        lhs = np.cumsum(block_excess_main(k, js, xp=xp))[-1] * (8 / xp(k))
        rhs = np.log((4 * xp(b) + 6) / (9 * xp(a))) / np.log((xp(b) + 1) * xp(k)) ** 2
        # ordered (rhs, lhs) so that "holds" is literally strictly_less(*pair)
        return rhs, lhs

    rhs, lhs = evaluate(float)
    holds = strictly_less(
        float(rhs), float(lhs), extended=lambda: evaluate(np.longdouble)
    )
    return float(lhs), float(rhs), holds


# ---------------------------------------------------------------------------
# final inequality and threshold


@dataclass(frozen=True)
class BoundConfig:
    """Constant budget for the final inequality.

    ``lam`` is the index of the block containing the interval start (0 means
    the interval starts below k).  The d/c pairs budget the three
    deviations: start offset within its block (d1, c1), surplus prime count
    beyond exact coverage (d2, c2), and the admissible number of blocks
    (d3, c3), which caps b at floor(c3 * log(k)^d3) - 2.  The inequality
    must hold for every admissible b, so the certifiable value is the
    minimum over them.
    """

    lam: int
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 2.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")
        for name in ("d1", "d2", "d3", "c1", "c2", "c3"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    def b_cap(self, k) -> int:
        return math.floor(self.c3 * math.log(k) ** self.d3) - 2

    def admissible_b(self, k) -> range:
        """Admissible block counts [lam+1, b_cap(k)]; raises when empty."""
        cap = self.b_cap(k)
        if cap < self.lam + 1:
            raise EmptyRangeError(
                f"no admissible block count at k={k}: cap {cap} < {self.lam + 1}"
            )
        return range(self.lam + 1, cap + 1)

    def b_floor_k(self) -> int:
        """Smallest k with a nonempty admissible b range.

        b_cap is nondecreasing in k, so bisect.  The search is capped at
        1e40; past that the returned value only signals "out of range" to
        the threshold scan.
        """
        target = self.lam + 1
        if self.b_cap(2) >= target:
            return 2
        lo, hi = 2, 4
        while self.b_cap(hi) < target:
            hi *= 4
            if hi > 10**40:
                return hi
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.b_cap(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi


REFERENCE_CONFIG = BoundConfig(lam=0)


@dataclass(frozen=True)
class MarginReport:
    """Term-by-term evaluation of the final inequality at one k.

    ``total`` is exactly the sum of ``terms`` values; ``positive`` is the
    certified verdict (extended precision near ties); ``b`` is the block
    count at which the minimum over the admissible range is attained.
    """

    k: float
    case_label: str
    terms: dict[str, float]
    total: float
    positive: bool
    b: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "case": self.case_label,
            "terms": dict(self.terms),
            "total": self.total,
            "positive": self.positive,
            "b": self.b,
        }


def _half_block_log(k, bs, lam_or_one, xp):
    """log((4b+6)/(9*max(lam,1))) / (8 log^2((b+1)k)) vectorized over b."""
    bs = bs.astype(xp) if hasattr(bs, "astype") else xp(bs)
    return np.log((4 * bs + 6) / (9 * xp(lam_or_one))) / (
        8 * np.log((bs + 1) * xp(k)) ** 2
    )


def _positivity(total_f64: float, re_eval) -> bool:
    """total > 0, re-deciding in extended precision near a tie."""
    return strictly_less(
        0.0, total_f64, extended=lambda: (np.longdouble(0.0), re_eval())
    )


def final_inequality(
    k,
    cfg: BoundConfig,
    origin_normalized: bool = False,
    checked: bool = True,
) -> MarginReport:
    """Evaluate the chained excess bound at k, minimized over block counts.

    For an interval starting in block lam >= 1 the bound is per-k
    normalized:

        log((4b+6)/(9 lam)) / (8 log^2((b+1)k))
        - (5/4) eps(k) c3^2 log(k)^{2 d3 - 1}
        - c1 eps(k) - c2 / k^{d2}

    For lam = 0 the origin-block excess enters un-normalized by default:

        origin_excess(k) + log((4b+6)/9) / (8 log^2((b+1)k))
        - 5 eps(k) c3^2 log(k)^{2 d3 - 1} - c1 k^{-d1} - c2 k^{-d2}

    ``origin_normalized=True`` divides the origin excess by k instead, to
    match the scale of the other terms; the default follows the form whose
    positivity threshold is actually reachable (the normalized variant stays
    negative past 1e18 because the envelope penalty dwarfs origin_excess/k).
    ``checked=False`` evaluates the lam = 0 form below the origin bound's
    validity floor, for exploration only.
    """
    if k < EPSILON_MIN_X:
        raise DomainError(f"final inequality needs k >= {EPSILON_MIN_X}, got {k}")
    b_range = cfg.admissible_b(k)  # raises EmptyRangeError when empty

    def evaluate(xp):
        kx = xp(k)
        lk = np.log(kx)
        e_k = epsilon(kx)
        bs = np.arange(b_range.start, b_range.stop, dtype=np.int64)
        if cfg.lam >= 1:
            main = _half_block_log(k, bs, cfg.lam, xp)
            terms = {
                "block_error_budget": (
                    -xp(1.25) * e_k * xp(cfg.c3) ** 2 * lk ** xp(2 * cfg.d3 - 1)
                ),
                "start_budget": -xp(cfg.c1) * e_k,
                "surplus_budget": -xp(cfg.c2) / kx ** xp(cfg.d2),
            }
            label = "offset"
        else:
            e0 = dusart_excess_lower(kx, checked=checked)
            if origin_normalized:
                e0 = e0 / kx
            main = _half_block_log(k, bs, 1, xp)
            terms = {
                "origin_excess": e0,
                "block_error_budget": (
                    -5 * e_k * xp(cfg.c3) ** 2 * lk ** xp(2 * cfg.d3 - 1)
                ),
                "start_budget": -xp(cfg.c1) * kx ** xp(-cfg.d1),
                "surplus_budget": -xp(cfg.c2) * kx ** xp(-cfg.d2),
            }
            label = "origin"
        i_min = int(np.argmin(main))
        terms["half_block_log"] = main[i_min]
        return label, terms, int(bs[i_min])

    label, terms_xp, b_min = evaluate(float)
    terms = {name: float(value) for name, value in terms_xp.items()}
    total = math.fsum(terms.values())
    positive = _positivity(
        total,
        lambda: sum(evaluate(np.longdouble)[1].values(), np.longdouble(0.0)),
    )
    return MarginReport(float(k), label, terms, total, positive, b_min)


def final_inequality_from_primitives(k, cfg: BoundConfig) -> MarginReport:
    """Same verdict assembled from the per-block primitives (lam >= 1 only).

    Sums block_excess_lower - tail_correction over blocks lam..b directly
    (normalized by k), subtracts the start correction at the degenerate
    offset alpha = lam*k and the maximal surplus c2 * k^{-d2}, minimizing
    over the same admissible b range.  Exists to cross-check the closed-form
    route: the two positivity verdicts are compared on a grid in the test
    suite and disagreements are surfaced, not reconciled.
    """
    if cfg.lam < 1:
        raise DomainError("primitive route is defined for lam >= 1 only")
    x_lam = cfg.lam * k
    if x_lam < EPSILON_MIN_X:
        raise DomainError(f"block start {x_lam} below envelope domain")
    b_range = cfg.admissible_b(k)
    # running[i] below sums blocks lam..lam+i: the chain for b = lam + i
    js = np.arange(cfg.lam, b_range.stop, dtype=np.int64)

    def evaluate(xp):
        kx = xp(k)
        start = xp(cfg.lam) * (1 + pi_gap_margin(x_lam, x_lam, xp)) / np.log(
            xp(x_lam)
        )
        surplus = xp(cfg.c2) * kx ** xp(-cfg.d2)
        running = np.cumsum(
            block_excess_lower(k, js, xp=xp) - tail_correction(k, js, xp=xp)
        )
        totals = running[1:] / kx - start - surplus
        i_min = int(np.argmin(totals))
        terms = {
            "block_sum": totals[i_min] + start + surplus,
            "start_correction": -start,
            "surplus_budget": -surplus,
        }
        return terms, totals[i_min], b_range.start + i_min

    terms_xp, total_xp, b_min = evaluate(float)
    terms = {name: float(value) for name, value in terms_xp.items()}
    total = math.fsum(terms.values())
    positive = _positivity(total, lambda: evaluate(np.longdouble)[1])
    return MarginReport(float(k), "offset-primitives", terms, total, positive, b_min)


def effective_threshold(
    cfg: BoundConfig,
    k_max: float = 1e18,
    grid_ratio: float = 1.25,
    tail_samples: int = 100,
    origin_normalized: bool = False,
) -> tuple[int, dict]:
    """Smallest grid k from which the final inequality stays positive.

    Scans a geometric grid (default ratio 1.25) from the domain floor to
    k_max; the threshold is the first grid point that is positive with every
    later grid point positive too, re-checked at ``tail_samples`` further
    log-uniform points.  This certifies by sampling, not by interval
    arithmetic: the certificate records every evaluation for audit.

    Raises :class:`ThresholdNotFoundError` when no grid point qualifies
    (including when the admissible-b floor already exceeds k_max).
    """
    if grid_ratio <= 1:
        raise DomainError(f"grid ratio must exceed 1, got {grid_ratio}")
    floor = max(EPSILON_MIN_X, cfg.b_floor_k())
    if cfg.lam == 0:
        floor = max(floor, DUSART_MIN_K)
    floor = int(math.ceil(floor))
    if floor > k_max:
        raise ThresholdNotFoundError(
            f"domain floor {floor} already exceeds k_max {k_max:g}"
        )

    grid_ks: list[int] = []
    k = floor
    while k <= k_max:
        grid_ks.append(k)
        k = math.ceil(k * grid_ratio)

    reports = [
        final_inequality(kk, cfg, origin_normalized=origin_normalized)
        for kk in grid_ks
    ]
    grid_rows = [
        {"k": kk, "total": rep.total, "positive": rep.positive}
        for kk, rep in zip(grid_ks, reports)
    ]
    certificate = {
        "config": asdict(cfg),
        "normalized_origin": origin_normalized,
        "domain_floor": floor,
        "grid_ratio": grid_ratio,
        "k_max": float(k_max),
        "grid": grid_rows,
    }

    positives = [rep.positive for rep in reports]
    suffix_ok = np.logical_and.accumulate(positives[::-1])[::-1]
    for i, kk in enumerate(grid_ks):
        if not suffix_ok[i]:
            continue
        tail = np.geomspace(kk, k_max, tail_samples + 1)[1:]
        tail_rows = []
        ok = True
        for kt in tail:
            rep = final_inequality(
                float(kt), cfg, origin_normalized=origin_normalized
            )
            tail_rows.append(
                {"k": float(kt), "total": rep.total, "positive": rep.positive}
            )
            ok = ok and rep.positive
        if ok:
            certificate["first_positive"] = kk
            certificate["tail_samples"] = tail_rows
            return kk, certificate
    raise ThresholdNotFoundError(
        f"final inequality not positive at any grid point up to {k_max:g}"
    )


# ---------------------------------------------------------------------------
# sieve-side spot checks


def pi_second_difference(cache: PrimeCache, k: int, lam: int, delta: int):
    """Symmetric second difference of pi around the block start lam*k.

    Returns (E, ratio) with E = pi(x+d) - 2 pi(x) + pi(x-d) at x = lam*k and
    ratio = |E| / (x * eps(x)), the normalized size the surrounding analysis
    budgets for.
    """
    x = lam * k
    if x < EPSILON_MIN_X:
        raise DomainError(f"block start {x} below envelope domain")
    if delta < 0 or delta > x:
        raise DomainError(f"need 0 <= delta <= {x}, got {delta}")
    lo, mid, hi = cache.pi_many([x - delta, x, x + delta])
    e = int(hi - 2 * mid + lo)
    return e, abs(e) / (x * float(epsilon(float(x))))


def beta_floor(cache: PrimeCache, k: int):
    """Minimal interval top for full residue coverage with one prime each.

    phi(k) * log(phi(k)): the phi(k)-th prime is at least this large, and
    coverage needs at least phi(k) coprime primes.
    """
    if k < 3:
        raise DomainError(f"beta floor needs k >= 3, got {k}")
    phi = cache.profile(k).phi
    return phi * math.log(phi)
