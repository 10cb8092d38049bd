"""Coverage-simulation tests: exact oracle, calibration, determinism."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pstar.coverage import (
    CHUNK_ELEMS,
    GENERATOR_ID,
    SimConfig,
    beta_estimate,
    draw_count,
    exact_failure_probability,
    predicted_failure,
    simulate_coverage,
)
from pstar.errors import DomainError
from pstar.primes import arithmetic_profile


def _loop_failure_rate(phi, draws, trials, seed):
    """Draw-by-draw reference: `draws` uniform classes per trial, seeded per trial."""
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        hits = np.bincount(rng.integers(0, phi, size=draws), minlength=phi)
        failures += int(hits.min()) == 0
    return failures / trials


def test_draw_count_formula():
    assert draw_count(1_009, 2.0) == 13_944
    assert draw_count(1_009, 0.5) == 3_486
    assert draw_count(3, 1.0) == round(2 * math.log(3))


def test_predicted_failure_union_bound():
    assert predicted_failure(1_009, 0.5) == 1.0  # clamped
    assert predicted_failure(1_009, 2.0) == pytest.approx(1_008 / 1_009**2, rel=1e-12)


def test_exact_probability_hand_cases():
    # one draw cannot cover two classes; two draws miss one half the time
    assert exact_failure_probability(2, 1) == 1.0
    assert exact_failure_probability(2, 2) == 0.5
    assert exact_failure_probability(1, 1) == 0.0
    assert exact_failure_probability(3, 1) == 1.0


@given(phi=st.integers(1, 40), draws=st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_exact_probability_is_a_probability(phi, draws):
    p = exact_failure_probability(phi, draws)
    assert 0.0 <= p <= 1.0
    # one more draw can only help coverage
    assert exact_failure_probability(phi, draws + 1) <= p + 1e-12


def test_exact_probability_against_enumeration():
    # phi = 3, 4 draws: count assignments leaving a class empty
    phi, draws = 3, 4
    total = phi ** draws
    fails = sum(1 for v in range(total)
                if len({(v // phi**i) % phi for i in range(draws)}) < phi)
    assert exact_failure_probability(phi, draws) == pytest.approx(
        fails / total, rel=1e-12)


def test_simulation_is_reproducible():
    cfg = SimConfig(k=101, coverage_exponent=1.0, trials=2_000, seed=42)
    a = simulate_coverage(cfg)
    b = simulate_coverage(cfg)
    assert a.empirical == b.empirical
    assert a.draws == b.draws
    c = simulate_coverage(SimConfig(k=101, coverage_exponent=1.0,
                                    trials=2_000, seed=43))
    assert c.empirical != a.empirical  # same knobs, fresh stream


def test_simulation_matches_exact_oracle():
    for k in (7, 25, 101):
        cfg = SimConfig(k=k, coverage_exponent=1.0, trials=10_000, seed=7)
        res = simulate_coverage(cfg)
        exact = exact_failure_probability(res.phi, res.draws)
        assert 0.0 < exact < 1.0, k
        se = max(res.stderr, math.sqrt(exact * (1.0 - exact) / cfg.trials))
        assert abs(res.empirical - exact) <= 3.0 * se, k
        # the draw-by-draw loop answers the same question
        loop_trials = 4_000
        loop = _loop_failure_rate(res.phi, res.draws, loop_trials, seed=7)
        assert abs(loop - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / loop_trials), k


def _failures(k, trials, seed=3):
    res = simulate_coverage(SimConfig(k=k, coverage_exponent=1.0, trials=trials,
                                      seed=seed))
    assert simulate_coverage(res.config) == res
    return round(res.empirical * trials)


@pytest.mark.parametrize("k", [1_009, 131_101])  # 131101: the least prime above 2**17
def test_chunk_boundaries(k):
    rows = max(1, CHUNK_ELEMS // arithmetic_profile(k).phi)
    assert (rows == 1) == (k > CHUNK_ELEMS)
    # Chunk c is seeded (seed, c) and fills its rows in order, so one more
    # trial keeps every earlier outcome and adds at most one failure.
    sizes = [rows - 1, rows, rows + 1] if rows > 1 else [1, 2, 3]
    counts = [_failures(k, n) for n in sizes]
    assert counts[0] <= counts[1] <= counts[0] + 1
    assert counts[1] <= counts[2] <= counts[1] + 1


def test_zero_draws_always_fail():
    # round(0.1 * phi(3) * log 3) = 0: no draw covers either class
    res = simulate_coverage(SimConfig(k=3, coverage_exponent=0.1, trials=50,
                                      seed=1))
    assert (res.draws, res.empirical, res.stderr) == (0, 1.0, 0.0)
    assert res.empirical == exact_failure_probability(res.phi, res.draws)


def test_failure_rate_falls_with_exponent():
    lo = simulate_coverage(SimConfig(k=101, coverage_exponent=0.5,
                                     trials=2_000, seed=11))
    hi = simulate_coverage(SimConfig(k=101, coverage_exponent=2.0,
                                     trials=2_000, seed=11))
    assert lo.empirical > hi.empirical


def test_real_primes_mode_is_deterministic(cache_main):
    cfg = SimConfig(k=1_009, coverage_exponent=2.0, trials=3,
                    seed=1, mode="real-primes")
    res = simulate_coverage(cfg, cache_main)
    assert res.draws == 13_944
    assert res.empirical in (0.0, 1.0)  # one deterministic outcome repeated
    assert res.empirical == 0.0  # the first 13944 coprime primes cover mod 1009
    assert res.stderr == 0.0


def _real_primes_walk(cache, k, draws):
    """Scalar reference: do the first `draws` primes coprime to k miss a class?"""
    coprime = (p for p in map(int, cache.primes_in(2, cache.limit)) if k % p)
    residues = {next(coprime) % k for _ in range(draws)}
    return len(residues) < int(sympy.totient(k))


@pytest.mark.parametrize("k, c", [(1_009, 2.0), (1_009, 0.5), (97, 1.0), (30, 3.0)])
def test_real_primes_mode_matches_scalar_walk(cache_main, k, c):
    res = simulate_coverage(SimConfig(k=k, coverage_exponent=c, trials=1, seed=0,
                                      mode="real-primes"), cache_main)
    assert res.empirical == float(_real_primes_walk(cache_main, k, res.draws))


def test_real_primes_mode_needs_cache():
    cfg = SimConfig(k=1_009, coverage_exponent=2.0, trials=1, seed=0,
                    mode="real-primes")
    with pytest.raises(DomainError):
        simulate_coverage(cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(k=2, coverage_exponent=1.0, trials=10, seed=0)
    with pytest.raises(DomainError):
        SimConfig(k=7, coverage_exponent=0.0, trials=10, seed=0)
    with pytest.raises(DomainError):
        SimConfig(k=7, coverage_exponent=1.0, trials=0, seed=0)
    with pytest.raises(DomainError):
        SimConfig(k=7, coverage_exponent=1.0, trials=10, seed=0, mode="surreal")


def test_result_json_shape():
    cfg = SimConfig(k=11, coverage_exponent=1.0, trials=100, seed=5)
    payload = simulate_coverage(cfg).to_json()
    assert payload["generator"] == GENERATOR_ID == "numpy-PCG64/coupon-collector"
    assert payload["k"] == 11
    assert payload["trials"] == 100
    assert set(payload) >= {"k", "C", "f", "trials", "empirical", "stderr",
                            "predicted", "mode", "seed", "generator"}


def test_beta_estimate_grows():
    assert beta_estimate(1_009) > beta_estimate(101) > 0
