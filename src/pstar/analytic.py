"""Explicit analytic estimates used by the block-counting bounds.

Every formula here is an effective (fully explicit, non-asymptotic)
estimate:

* ``epsilon(x)``: envelope for the Chebyshev theta deviation,
  |theta(x) - x| < x * epsilon(x) for x >= 149, with
  epsilon(x) = sqrt(8 L / (17 pi eta)) * exp(-sqrt(L / eta)),
  L = log x and eta = 6.455.  The envelope increases up to
  x = e^eta ~ 636 and decreases strictly afterwards.

* ``dusart_excess_lower(k)``: lower bound for 2 pi(k/2) - pi(k) valid
  for k >= 2,953,652,287, built from Dusart-style two-sided pi bounds:
  k/log(k/2) * (1 + 1/log(k/2) + 2/log^2(k/2))
  - k/log k * (1 + 1/log k + 2.334/log^2 k).

* ``wallis_bounds(S)``: the Wallis product sandwich
  sqrt((2/pi)(2S+1)) <= prod_{s<=S} (2s+1)/(2s) <= (2S+1)/sqrt(S pi).

* ``phi_lower_bound(k)``: k / (1.7811 loglog k + 2.51/loglog k) <= phi(k)
  for k >= 3.

* ``li(x)``: offset logarithmic integral int_2^x dt/log t, summed from
  the exponential-integral series: li(x) = S(log x) - S(log 2) with
  S(u) = log u + sum_{n>=1} u^n / (n n!).  Euler's gamma cancels between
  the two terms and every term of the sum is positive, so nothing
  cancels; about u + 10 sqrt(u) + 30 terms reach full precision up to
  x = 1e300.  The tests cross-check it against adaptive quadrature and
  mpmath.

* ``pi_via_theta_identity``: pi(x) = theta(x)/log x
  + int_2^x theta(t)/(t log^2 t) dt.  theta is a step function, so the
  integral is a finite sum of closed-form pieces
  (int dt/(t log^2 t) = -1/log t); the evaluation is exact up to
  rounding, no quadrature error.

All evaluators accept floats or numpy arrays and preserve the input
dtype, so passing np.longdouble re-runs a formula in 80-bit precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

ETA = 6.455
EPSILON_MIN_X = 149.0
DUSART_MIN_K = 2_953_652_287


def epsilon(x):
    """Envelope epsilon(x) with |theta(x) - x| < x epsilon(x), x >= EPSILON_MIN_X."""
    arr = np.asarray(x)
    if np.any(arr < EPSILON_MIN_X):
        raise DomainError(f"epsilon needs x >= {EPSILON_MIN_X}")
    L = np.log(arr)
    val = np.sqrt(8.0 * L / (17.0 * np.pi * ETA)) * np.exp(-np.sqrt(L / ETA))
    return val[()] if val.ndim == 0 else val


def _ei_series(u):
    """log u + sum_{n>=1} u^n / (n n!), i.e. Ei(u) - gamma, for u > 0."""
    top = float(np.max(u, initial=0.0))
    power = u.copy()  # u^n / n!
    total = np.log(u) + power
    for n in range(2, math.ceil(top + 10.0 * math.sqrt(top) + 30.0)):
        power *= u / n
        total += power / n
    return total


def li(x):
    """Offset logarithmic integral int_2^x dt/log t; li(2) = 0."""
    arr = np.asarray(x)
    if not np.all((arr >= 2) & np.isfinite(arr)):
        raise DomainError("li is defined here for finite x >= 2")
    u = np.log(arr)
    val = _ei_series(u) - _ei_series(np.log(u.dtype.type(2)))
    return val[()] if val.ndim == 0 else val


def dusart_excess_lower(k, checked: bool = True):
    """Proven lower bound for 2 pi(k/2) - pi(k); valid for k >= DUSART_MIN_K.

    With checked=False the formula is evaluated outside its proven range
    (exploratory use only).
    """
    arr = np.asarray(k)
    if checked and np.any(arr < DUSART_MIN_K):
        raise DomainError(f"bound is proven only for k >= {DUSART_MIN_K}")
    if np.any(arr <= 2):
        raise DomainError("needs k > 2 for both logarithms to be positive")
    lh = np.log(0.5 * arr)
    lk = np.log(arr)
    val = arr / lh * (1.0 + 1.0 / lh + 2.0 / lh**2) \
        - arr / lk * (1.0 + 1.0 / lk + 2.334 / lk**2)
    return val[()] if val.ndim == 0 else val


def wallis_bounds(S: int) -> tuple[float, float, float]:
    """(lower, product, upper) for prod_{s=1..S} (2s+1)/(2s)."""
    if S < 1:
        raise DomainError(f"Wallis sandwich needs S >= 1, got {S}")
    s = np.arange(1, S + 1, dtype=np.float64)
    product = float(np.prod((2.0 * s + 1.0) / (2.0 * s)))
    lower = math.sqrt((2.0 / math.pi) * (2.0 * S + 1.0))
    upper = (2.0 * S + 1.0) / math.sqrt(S * math.pi)
    return lower, product, upper


def wallis_sweep(S_max: int, dtype=np.float64):
    """Vectorised sandwich for every S = 1..S_max; returns three arrays."""
    if S_max < 1:
        raise DomainError(f"Wallis sandwich needs S >= 1, got {S_max}")
    s = np.arange(1, S_max + 1, dtype=dtype)
    products = np.cumprod((2 * s + 1) / (2 * s))
    lowers = np.sqrt((2.0 / np.pi) * (2 * s + 1))
    uppers = (2 * s + 1) / np.sqrt(s * np.pi)
    return lowers, products, uppers


def phi_lower_bound(k):
    """Effective totient lower bound k/(1.7811 loglog k + 2.51/loglog k), k >= 3."""
    arr = np.asarray(k, dtype=np.float64)
    if np.any(arr < 3):
        raise DomainError("totient bound needs k >= 3")
    ll = np.log(np.log(arr))
    val = arr / (1.7811 * ll + 2.51 / ll)
    return val[()] if val.ndim == 0 else val


def pi_via_theta_identity(cache, x: float) -> float:
    """Evaluate pi(x) from theta via the partial-summation identity.

    The integral is summed exactly over the prime breakpoints.
    """
    if x < 2.0:
        raise DomainError("identity needs x >= 2")
    m = math.floor(x)
    primes = cache.primes_in(2, m).astype(np.float64)
    logs = np.log(primes)
    cum_theta = np.cumsum(logs)
    theta_x = float(cum_theta[-1])
    inv = 1.0 / logs
    right = np.empty_like(inv)
    right[:-1] = inv[1:]
    right[-1] = 1.0 / math.log(x) if x > primes[-1] else inv[-1]
    integral = float(np.sum(cum_theta * (inv - right)))
    return theta_x / math.log(x) + integral
