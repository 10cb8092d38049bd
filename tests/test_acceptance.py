"""Acceptance gate: twelve checks, one test and one printed verdict each.

Each test computes its check, prints a single "criterion NN: PASS/FAIL"
line (visible under pytest -s and in failure output), and then asserts.
Sample sets are seeded so reruns are bit-identical.  Runtime budgets are
generous on purpose; the heavy item is the 1e9 sieve behind criterion 06,
built once per session.
"""

import math

import numpy as np
import pytest

from pstar import blocks, bounds, classify, coverage, semigroup
from pstar.analytic import (
    epsilon,
    li,
    phi_lower_bound,
    pi_via_theta_identity,
    wallis_sweep,
)
from pstar.bounds import REFERENCE_CONFIG
from pstar.precision import strictly_less

SEED = 20260816
REFERENCE_C0 = 2_953_652_287


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_classical_census(cache_main):
    hits = classify.classical_census(cache_main, 100_000)
    ok = hits == [2, 4, 6, 12, 18, 30]
    report(1, ok, f"census over k <= 1e5 found {hits}")


def test_criterion_02_block_formula_oracle(cache_main):
    rng = np.random.default_rng(SEED)
    mismatches = []
    for _ in range(500):
        k = int(rng.integers(3, 5_001))
        alpha = int(rng.integers(1, 2_000_001))
        beta = int(rng.integers(alpha, 2_000_001))
        decomp = blocks.classify_case(k, alpha, beta)
        got = blocks.half_counts_formula(cache_main, decomp)
        want = blocks.half_counts_direct(cache_main, k, alpha, beta)
        if got != want:
            mismatches.append((k, alpha, beta, got, want))
    report(2, not mismatches,
           f"500 random triples, {len(mismatches)} formula/oracle mismatches")


def test_criterion_03_theta_envelope(cache_main):
    xs = np.geomspace(149.0, 1e7, 10_000)
    violations = 0
    for x in xs:
        x = float(x)
        gap = abs(cache_main.theta(x) - x)
        env = x * float(epsilon(x))

        def extended():
            xl = np.longdouble(x)
            return (abs(cache_main.theta_extended(x) - xl),
                    xl * epsilon(xl))

        if not strictly_less(gap, env, extended=extended):
            violations += 1
    report(3, violations == 0,
           f"|theta(x) - x| < x*eps(x) at 10^4 points in [149, 1e7], "
           f"{violations} violations")


def test_criterion_04_classical_explicit_bounds(cache_main):
    n = 1_000_000
    primes = cache_main.primes_in(2, cache_main.nth_prime(n))
    ns = np.arange(1, n + 1, dtype=np.float64)
    pn_ok = primes.size == n and bool(np.all(primes >= ns * np.log(ns)))

    phi = classify.totient_table(n)
    ks = np.arange(3, n + 1)
    phi_ok = bool(np.all(phi[3:] >= phi_lower_bound(ks)))

    lowers, products, uppers = wallis_sweep(100_000)
    wallis_ok = bool(np.all(lowers < products) and np.all(products < uppers))

    report(4, pn_ok and phi_ok and wallis_ok,
           f"p_n >= n log n to n=1e6: {pn_ok}; totient floor to k=1e6: "
           f"{phi_ok}; Wallis sandwich to S=1e5: {wallis_ok}")


def test_criterion_05_pi_theta_identity(cache_main):
    worst = 0.0
    for x in (1e3, 1e4, 1e5, 1e6):
        err = abs(pi_via_theta_identity(cache_main, x) - cache_main.pi(x))
        worst = max(worst, err)
    report(5, worst < 1e-6,
           f"partial-summation identity at 1e3..1e6, worst |error| = {worst:.3e}")


def test_criterion_06_block_floor_sampled(cache_1g):
    rng = np.random.default_rng(SEED)
    checked = violations = 0
    while checked < 200:
        k = int(rng.integers(150, 50_000_001))
        j_hi = 10**9 // k - 1
        j_lo = max(1, -(-149 // k))
        if j_hi < j_lo:
            continue
        j = int(rng.integers(j_lo, j_hi + 1))
        if j * k < 149:
            continue
        floor = bounds.block_excess_lower(k, j) - bounds.tail_correction(k, j)
        if not floor < blocks.half_block_excess(cache_1g, k, j):
            violations += 1
        checked += 1
    report(6, violations == 0,
           f"analytic block floor under sieve excess on {checked} samples "
           f"to 1e9, {violations} violations")


def test_criterion_07_summed_concavity_grid():
    grid_ks = (55, 10**2, 10**3, 10**4, 10**5, 10**6)
    sum_bad = floor_bad = pairs = 0
    for k in grid_ks:
        for a in range(1, 51):
            for b in range(a, 51):
                pairs += 1
                _, _, holds = bounds.concavity_sum_check(k, a, b)
                if not holds:
                    sum_bad += 1
                if a * k >= 149:
                    low = bounds.block_sum_lower_bound(k, a, b)
                    direct = bounds.block_sum_direct(k, a, b)
                    if not low < direct:
                        floor_bad += 1
    report(7, sum_bad == 0 and floor_bad == 0,
           f"{pairs} grid cells: {sum_bad} concavity-sum failures, "
           f"{floor_bad} closed-form floor failures")


def test_criterion_08_pi_gap_bound(cache_main):
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(200):
        x_lo = float(rng.uniform(149.0, 1e7))
        x_hi = float(rng.uniform(x_lo, 1e7))
        gap = cache_main.pi(x_hi) - cache_main.pi(x_lo)
        margin = bounds.pi_gap_margin(x_lo, x_hi)

        def extended():
            lo, hi = np.longdouble(x_lo), np.longdouble(x_hi)
            wide = bounds.pi_gap_margin(lo, hi, xp=np.longdouble)
            return np.longdouble(gap), (hi / np.log(lo)) * (1 + wide)

        if not strictly_less(float(gap),
                             (x_hi / math.log(x_lo)) * (1.0 + margin),
                             extended=extended):
            violations += 1
    report(8, violations == 0,
           f"pi gap bound on 200 seeded pairs in [149, 1e7], "
           f"{violations} violations")


def test_criterion_09_effective_threshold():
    c0, cert = bounds.effective_threshold(REFERENCE_CONFIG)
    tails_ok = (len(cert["tail_samples"]) == 100
                and all(row["positive"] for row in cert["tail_samples"]))
    frozen_ok = c0 == REFERENCE_C0
    report(9, tails_ok and frozen_ok,
           f"reference threshold {c0} (frozen {REFERENCE_C0}), "
           f"100 tail samples to 1e18 all positive: {tails_ok}")


def test_criterion_10_li_sign_dichotomy():
    bad = 0
    ks = (300, 563, 1_009, 4_001, 10_007, 10**5, 10**6, 10**7)
    for k in ks:
        for j in range(1, 21):
            if not semigroup.li_block_difference(k, j, 1.0) > 0:
                bad += 1
            if not semigroup.li_block_difference(k, j, 2.0) < 0:
                bad += 1
    report(10, bad == 0,
           f"li second difference >0 at delta=1 and <0 at delta=2 on "
           f"{len(ks)}x20 blocks, {bad} sign errors")


def test_criterion_11_heuristic_calibration():
    loose = coverage.simulate_coverage(coverage.SimConfig(
        k=1_009, coverage_exponent=0.5, trials=10_000, seed=SEED))
    tight = coverage.simulate_coverage(coverage.SimConfig(
        k=1_009, coverage_exponent=2.0, trials=10_000, seed=SEED))
    calibration_ok = loose.empirical >= 0.9 and tight.empirical <= 0.1

    worst_z = 0.0
    for k in range(3, 51):
        res = coverage.simulate_coverage(coverage.SimConfig(
            k=k, coverage_exponent=1.0, trials=10_000, seed=SEED))
        exact = coverage.exact_failure_probability(res.phi, res.draws)
        se = max(res.stderr, math.sqrt(exact * (1.0 - exact) / 10_000))
        if se > 0:
            worst_z = max(worst_z, abs(res.empirical - exact) / se)
    oracle_ok = worst_z <= 3.0

    report(11, calibration_ok and oracle_ok,
           f"k=1009: fail rate {loose.empirical} at C=0.5, {tight.empirical} "
           f"at C=2; exact-oracle agreement to k=50, worst z = {worst_z:.2f}")


def test_criterion_12_gaussian_instance(cache_main):
    gauss = semigroup.GaussianSemigroup(cache_main)
    count_10 = semigroup.prime_norm_count(gauss, 10)
    ratio = semigroup.prime_norm_count(gauss, 1e6) / li(1e6)

    nat = semigroup.NaturalSemigroup(cache_main)
    rng = np.random.default_rng(SEED)
    delegation_bad = 0
    for _ in range(100):
        x = float(rng.uniform(10.0, 1e6))
        if semigroup.prime_norm_count(nat, x) != cache_main.pi(x):
            delegation_bad += 1
        if nat.count_elements(x) != math.floor(x):
            delegation_bad += 1

    ok = count_10 == 4 and abs(ratio - 1.0) <= 0.02 and delegation_bad == 0
    report(12, ok,
           f"pi_G(10) = {count_10}; pi_G(1e6)/li(1e6) = {ratio:.4f}; "
           f"{delegation_bad} delegation mismatches on 100 shared queries")
