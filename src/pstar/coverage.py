"""Monte-Carlo calibration of the residue-coverage heuristic.

Treat each prime as landing in a uniformly random invertible residue class
mod k.  After n = round(C * phi(k) * log k) draws, what is the chance some
class is still empty?  The first-order prediction is phi(k) * k^(-C): each
class is empty with probability (1 - 1/phi)^n ~ k^(-C) and a union bound
sums over classes.  This module measures that failure probability by
simulation, computes it exactly by inclusion-exclusion when phi is small,
and exposes the interval-length estimate the heuristic implies.

A synthetic trial is not simulated draw by draw.  It fails exactly when the
number of draws needed to cover all phi classes exceeds n, and that
covering time is a sum of independent geometric variables: once i classes
are hit, the next new class takes a geometric number of draws with success
probability (phi - i) / phi, i = 0..phi-1 (the coupon collector; Erdos and
Renyi 1961).  So one row of phi geometric variates per trial has exactly
the distribution of the uniform-draw experiment; the only rounding is in
the float success probabilities and the inversion inside
``Generator.geometric``.

Trials run in chunks of max(1, CHUNK_ELEMS // phi) rows, and chunk c is
seeded as (seed, c), so results depend only on (k, C, trials, seed), not on
execution order; the generator and sampler are recorded in every result
(``GENERATOR_ID``) for reproducibility.

The "real-primes" mode replays the same coverage question against the
actual first n primes coprime to k instead of synthetic draws, read as one
window of the first n + omega(k) primes (``classify.first_primes``).  Primes are
not independent uniform draws, so no agreement with the prediction is
asserted anywhere; the mode exists to expose the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import first_primes
from .errors import DomainError, SieveBudgetError
from .primes import PrimeCache, arithmetic_profile

__all__ = [
    "SimConfig",
    "SimResult",
    "draw_count",
    "predicted_failure",
    "exact_failure_probability",
    "beta_estimate",
    "simulate_coverage",
]

GENERATOR_ID = "numpy-PCG64/coupon-collector"

# Geometric variates per chunk of synthetic trials (int64, so about 1 MB).
CHUNK_ELEMS = 1 << 17

MODES = ("synthetic", "real-primes")


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup; immutable so a result can cite it verbatim."""

    k: int
    coverage_exponent: float
    trials: int
    seed: int
    mode: str = "synthetic"

    def __post_init__(self):
        if self.k < 3:
            raise DomainError(f"modulus must be >= 3, got {self.k}")
        if self.coverage_exponent <= 0:
            raise DomainError("coverage exponent must be positive")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    phi: int
    draws: int
    empirical: float
    stderr: float
    predicted: float

    def to_json(self) -> dict:
        cfg = self.config
        return {
            "k": cfg.k,
            "C": cfg.coverage_exponent,
            "f": self.draws,
            "trials": cfg.trials,
            "empirical": self.empirical,
            "stderr": self.stderr,
            "predicted": self.predicted,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "generator": GENERATOR_ID,
        }


def draw_count(k: int, coverage_exponent: float) -> int:
    """Number of draws the heuristic allots: round(C * phi(k) * log k)."""
    if k < 3:
        raise DomainError(f"modulus must be >= 3, got {k}")
    return round(coverage_exponent * arithmetic_profile(k).phi * math.log(k))


def predicted_failure(k: int, coverage_exponent: float) -> float:
    """First-order predicted failure probability min(1, phi(k) * k^-C)."""
    if k < 3:
        raise DomainError(f"modulus must be >= 3, got {k}")
    if coverage_exponent <= 0:
        raise DomainError("coverage exponent must be positive")
    return min(1.0, arithmetic_profile(k).phi * k ** -coverage_exponent)


def exact_failure_probability(phi: int, draws: int) -> float:
    """Exact P(some class empty) after uniform draws, by inclusion-exclusion.

    Sum over j >= 1 of (-1)^(j+1) C(phi, j) (1 - j/phi)^draws, carried out
    in integer arithmetic so the alternating sum cancels exactly; the only
    rounding is the final division.  Cost grows with phi * draws digits, so
    this is meant for the small phi (<= a few hundred) the tests exercise.
    """
    if phi < 1 or draws < 0:
        raise DomainError(f"need phi >= 1 and draws >= 0, got ({phi}, {draws})")
    acc = 0
    for j in range(1, phi + 1):
        term = math.comb(phi, j) * (phi - j) ** draws
        acc += -term if j % 2 == 0 else term
    return min(1.0, max(0.0, acc / phi**draws))


def beta_estimate(k: int) -> float:
    """Interval length the heuristic needs: phi log k * log(phi log k)."""
    if k < 3:
        raise DomainError(f"modulus must be >= 3, got {k}")
    budget = arithmetic_profile(k).phi * math.log(k)
    return budget * math.log(budget)


def simulate_coverage(
    cfg: SimConfig, cache: PrimeCache | None = None
) -> SimResult:
    """Measured probability that some invertible class stays empty.

    Synthetic mode samples the covering time of uniform draws (see the
    module docstring) and compares it with `draws`; real-primes mode reduces
    the first `draws` primes coprime to k (needs a cache large enough to
    supply them).  Returns the failure fraction with its binomial standard
    error and the first-order prediction.
    """
    phi = arithmetic_profile(cfg.k).phi
    draws = draw_count(cfg.k, cfg.coverage_exponent)
    predicted = predicted_failure(cfg.k, cfg.coverage_exponent)

    if cfg.mode == "real-primes":
        empirical = 1.0 if _real_primes_fail(cfg.k, draws, cache) else 0.0
        return SimResult(cfg, phi, draws, empirical, 0.0, predicted)
    if draws == 0:
        # phi >= 2 for k >= 3, so with no draws every trial leaves a class empty
        return SimResult(cfg, phi, draws, 1.0, 0.0, predicted)

    p = (phi - np.arange(phi)) / phi  # success rate of the (i+1)-th new class
    rows = max(1, CHUNK_ELEMS // phi)
    failures = 0
    for chunk, start in enumerate(range(0, cfg.trials, rows)):
        rng = np.random.default_rng((cfg.seed, chunk))
        cover = rng.geometric(p, size=(min(rows, cfg.trials - start), phi)).sum(axis=1)
        failures += int(np.count_nonzero(cover > draws))
    empirical = failures / cfg.trials
    stderr = math.sqrt(empirical * (1.0 - empirical) / cfg.trials)
    return SimResult(cfg, phi, draws, empirical, stderr, predicted)


def _real_primes_fail(k: int, draws: int, cache: PrimeCache | None) -> bool:
    if cache is None:
        raise DomainError("real-primes mode needs a prime cache")
    prof = arithmetic_profile(k)
    ps = first_primes(cache, draws + prof.omega)
    ps = ps[k % ps != 0][:draws]
    if ps.size < draws:
        raise SieveBudgetError(
            f"modulus k={k} needs primes beyond the ceiling {cache.limit}")
    return np.unique(ps % k).size < prof.phi
