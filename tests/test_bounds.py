"""Tests for the analytic lower-bound chain and the effective threshold.

The frozen threshold constants in this file are regression fixtures: they
were produced by the certificate scan itself, then independently sanity
checked against the sieve (see the acceptance suite for the sampled
inequality checks backing them).
"""

import math

import numpy as np
import pytest

from pstar import blocks
from pstar.analytic import DUSART_MIN_K, dusart_excess_lower, epsilon
from pstar.bounds import (
    REFERENCE_CONFIG,
    BoundConfig,
    beta_floor,
    block_excess_error,
    block_excess_lower,
    block_excess_main,
    block_sum_direct,
    block_sum_lower_bound,
    boundary_lower_bound,
    concavity_sum_check,
    effective_threshold,
    final_inequality,
    final_inequality_from_primitives,
    index_sum,
    pi_gap_margin,
    pi_second_difference,
    start_correction,
    tail_correction,
)
from pstar.errors import (
    DomainError,
    EmptyRangeError,
    ThresholdNotFoundError,
    UnsupportedCaseError,
)
from pstar.precision import strictly_less

REFERENCE_C0 = 2_953_652_287

# the criterion-07 grid at three k, thinned to every 7th a and 5th b
CONCAVITY_CELLS = [(k, a, b) for k in (55, 10**3, 10**6)
                   for a in range(1, 51, 7) for b in range(a, 51, 5)]


# -- reference oracles: the chained sums one block at a time ----------------

def _block_sum_loop(k, a, b, xp=float):
    total = xp(0.0)
    for j in range(a, b + 1):
        total += block_excess_lower(k, j, xp=xp) - tail_correction(k, j, xp=xp)
    return total / xp(k)


def _concavity_check_loop(k, a, b):
    def evaluate(xp):
        lhs = xp(0.0)
        for j in range(a, b + 1):
            lhs += block_excess_main(k, j, xp=xp)
        lhs *= 8 / xp(k)
        rhs = np.log((4 * xp(b) + 6) / (9 * xp(a))) / np.log((xp(b) + 1) * xp(k)) ** 2
        return rhs, lhs

    rhs, lhs = evaluate(float)
    holds = strictly_less(float(rhs), float(lhs),
                          extended=lambda: evaluate(np.longdouble))
    return float(lhs), float(rhs), holds


def _primitives_loop(k, cfg):
    """(terms, total, positive, b) of the primitive route, block by block."""
    x_lam = cfg.lam * k
    b_range = cfg.admissible_b(k)

    def evaluate(xp):
        kx = xp(k)
        start = xp(cfg.lam) * (1 + pi_gap_margin(x_lam, x_lam, xp)) / np.log(xp(x_lam))
        surplus = xp(cfg.c2) * kx ** xp(-cfg.d2)
        running = xp(0.0)
        best = best_b = None
        for b in b_range:
            lo = cfg.lam if b == b_range.start else b
            for jj in range(lo, b + 1):
                running += (block_excess_lower(k, jj, xp=xp)
                            - tail_correction(k, jj, xp=xp))
            total_b = running / kx - start - surplus
            if best is None or total_b < best:
                best, best_b = total_b, b
        terms = {"block_sum": best + start + surplus,
                 "start_correction": -start, "surplus_budget": -surplus}
        return terms, best, best_b

    terms_xp, _, b_min = evaluate(float)
    terms = {name: float(value) for name, value in terms_xp.items()}
    total = math.fsum(terms.values())
    positive = strictly_less(
        0.0, total, extended=lambda: (np.longdouble(0.0), evaluate(np.longdouble)[1]))
    return terms, total, positive, b_min


# -- per-block pieces -------------------------------------------------------

def test_block_excess_main_is_concavity_gain():
    # 2f(mid) - f(lo) - f(hi) for f = x/log x, recomputed longhand
    k, j = 1_000, 7
    f = lambda x: x / math.log(x)
    want = 2 * f(7_500.0) - f(7_000.0) - f(8_000.0)
    assert block_excess_main(k, j) == pytest.approx(want, rel=1e-14)
    assert block_excess_main(k, j) > 0


def test_block_excess_error_combines_envelopes():
    k, j = 1_000, 7
    f = lambda x: x / math.log(x)
    want = (2 * epsilon(7_500.0) * f(7_500.0)
            + epsilon(7_000.0) * f(7_000.0)
            + epsilon(8_000.0) * f(8_000.0))
    assert block_excess_error(k, j) == pytest.approx(want, rel=1e-14)


def test_block_excess_lower_is_main_minus_error():
    k, j = 2_000, 3
    want = block_excess_main(k, j) - block_excess_error(k, j)
    assert block_excess_lower(k, j) == pytest.approx(want, rel=1e-14)


def test_block_zero_routes_to_origin_bound():
    k = DUSART_MIN_K + 12
    assert block_excess_lower(k, 0) == pytest.approx(
        dusart_excess_lower(k), rel=1e-15)
    with pytest.raises(DomainError):
        block_excess_lower(DUSART_MIN_K - 1, 0)
    # unchecked mode extends the formula below the proven floor
    assert math.isfinite(block_excess_lower(10**6, 0, checked=False))


def test_tail_correction_values():
    assert tail_correction(1_000, 0) == 0.0
    k, j = 1_000, 4
    mid = 4_500.0
    want = k * epsilon(mid) / math.log(mid) ** 2
    assert tail_correction(k, j) == pytest.approx(want, rel=1e-14)


PER_BLOCK = (block_excess_main, block_excess_error, block_excess_lower,
             tail_correction)


@pytest.mark.parametrize("xp", [float, np.longdouble])
@pytest.mark.parametrize("k", [149, 1_000, 10**6, 1e12])
def test_per_block_array_matches_scalar(k, xp):
    js = np.arange(1, 300, dtype=np.int64)
    for f in PER_BLOCK:
        values = f(k, js, xp=xp)
        assert values.dtype == np.dtype(xp) and values.shape == js.shape
        for j, v in zip(js.tolist(), values):
            assert v == f(k, j, xp=xp), (f.__name__, k, j)


def test_per_block_scalar_stays_scalar():
    for f in PER_BLOCK:
        v = f(1_000, 7)
        assert isinstance(v, float) and np.ndim(v) == 0, f.__name__
        assert isinstance(f(1_000, 7, xp=np.longdouble), np.longdouble)


def test_per_block_array_rejects_origin_block():
    # block 0 is the origin bound, scalar-only
    for f in PER_BLOCK:
        for js in (np.array([0, 1, 2]), np.array([3, -1])):
            with pytest.raises(DomainError):
                f(10**10, js)


def test_block_domination_sampled(cache_main):
    # analytic block floor sits below the sieve excess (spot check; the
    # deep 1e9 sample run lives in the acceptance suite)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        k = int(rng.integers(150, 400_001))
        j_hi = 16_000_000 // k - 1
        j_lo = max(1, -(-149 // k))
        if j_hi < j_lo:
            continue
        j = int(rng.integers(j_lo, j_hi + 1))
        if j * k < 149:
            continue
        floor = block_excess_lower(k, j) - tail_correction(k, j)
        assert floor < blocks.half_block_excess(cache_main, k, j), (k, j)
        checked += 1


# -- gap bound and start correction ----------------------------------------

def test_pi_gap_margin_degenerate_form():
    x = 1_000.0
    assert pi_gap_margin(x, x) == pytest.approx(-1.0 + 2.0 * epsilon(x), rel=1e-13)


def test_pi_gap_bound_holds_sampled(cache_main):
    rng = np.random.default_rng(83)
    for _ in range(50):
        x_lo = float(rng.uniform(149.0, 1e7))
        x_hi = float(rng.uniform(x_lo, 1e7))
        gap = cache_main.pi(x_hi) - cache_main.pi(x_lo)
        bound = (x_hi / math.log(x_lo)) * (1.0 + pi_gap_margin(x_lo, x_hi))
        assert gap < bound


def test_pi_gap_margin_domain():
    with pytest.raises(DomainError):
        pi_gap_margin(100.0, 200.0)
    with pytest.raises(DomainError):
        pi_gap_margin(300.0, 200.0)


def test_start_correction_origin_is_exact_count(cache_small):
    assert start_correction(0, 10, 30, cache_small) == cache_small.pi(29)
    with pytest.raises(DomainError):
        start_correction(0, 10, 30)  # cache required at the origin


def test_start_correction_offset_value():
    # alpha at the block start degenerates the margin to -1 + 2 eps
    assert start_correction(1, 10**6, 10**6) == pytest.approx(
        18_979.480010623785, rel=1e-12)


# -- boundary bound vs sieve -----------------------------------------------

def test_boundary_lower_bound_below_sieve(cache_main):
    # the analytic boundary term must underestimate the sieve's M1 - M2;
    # alpha >= k keeps the start block off the origin where the bound is
    # only proven past the Dusart floor
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 50:
        k = int(rng.integers(150_000, 2_000_001))
        alpha = int(rng.integers(k, 14_000_000))
        beta = int(rng.integers(alpha, 14_000_001))
        d = blocks.classify_case(k, alpha, beta)
        if d.case_label not in ("i", "ii"):
            with pytest.raises(UnsupportedCaseError):
                boundary_lower_bound(cache_main, k, alpha, beta)
            continue
        m1, m2 = blocks.boundary_terms(cache_main, d)
        bound = boundary_lower_bound(cache_main, k, alpha, beta)
        assert bound <= m1 - m2, (k, alpha, beta)
        checked += 1


# -- chained sums ------------------------------------------------------------

def test_index_sum_closed_form():
    assert index_sum(3, 7) == 3 + 4 + 5 + 6 + 7
    assert index_sum(5, 5) == 5
    with pytest.raises(DomainError):
        index_sum(7, 3)


def test_block_sum_direct_is_plain_sum():
    # bit-identical to the block-by-block loop, not merely close
    for k, a, b in CONCAVITY_CELLS + [(5_000, 2, 9)]:
        if a * k >= 149:
            assert block_sum_direct(k, a, b) == _block_sum_loop(k, a, b), (k, a, b)
    for k, a, b in ((10**3, 3, 40), (10**6, 1, 50)):
        assert block_sum_direct(k, a, b, xp=np.longdouble) == _block_sum_loop(
            k, a, b, xp=np.longdouble)


def test_concavity_sum_check_equals_loop():
    for k, a, b in CONCAVITY_CELLS:
        assert concavity_sum_check(k, a, b) == _concavity_check_loop(k, a, b), (k, a, b)


def test_block_sum_lower_bound_sits_below_direct():
    for k in (10**4, 10**6):
        for a, b in ((1, 8), (2, 17), (5, 5)):
            if a * k < 149:
                continue
            assert block_sum_lower_bound(k, a, b) < block_sum_direct(k, a, b)


def test_concavity_sum_examples():
    lhs, rhs, holds = concavity_sum_check(55, 1, 10)
    assert holds and lhs > rhs
    lhs, rhs, holds = concavity_sum_check(10**6, 3, 40)
    assert holds and lhs > rhs
    with pytest.raises(DomainError):
        concavity_sum_check(54, 1, 10)
    with pytest.raises(DomainError):
        concavity_sum_check(100, 3, 2)


# -- constant budget config --------------------------------------------------

def test_admissible_b_reference():
    cfg = REFERENCE_CONFIG
    # floor(log^2 k) - 2 admits b = 1 from k = 6 onward
    assert cfg.b_floor_k() == 6
    assert list(cfg.admissible_b(6)) == [1]
    assert cfg.b_cap(10**9) == math.floor(math.log(10**9) ** 2) - 2
    with pytest.raises(EmptyRangeError):
        cfg.admissible_b(5)


def test_config_validation():
    with pytest.raises(DomainError):
        BoundConfig(lam=-1)
    with pytest.raises(DomainError):
        BoundConfig(lam=0, c3=0.0)


def test_b_floor_rises_with_lam():
    assert BoundConfig(lam=3).b_floor_k() > BoundConfig(lam=0).b_floor_k()


# -- final inequality ---------------------------------------------------------

def test_final_inequality_terms_sum_to_total():
    rep = final_inequality(10**12, REFERENCE_CONFIG)
    assert rep.total == pytest.approx(math.fsum(rep.terms.values()), abs=0.0)
    assert rep.positive
    assert rep.case_label == "origin"
    assert rep.b in REFERENCE_CONFIG.admissible_b(10**12)


def test_final_inequality_origin_dominated_by_excess():
    # at large k the origin-block excess carries the verdict
    rep = final_inequality(10**12, REFERENCE_CONFIG)
    assert rep.terms["origin_excess"] == pytest.approx(
        dusart_excess_lower(10**12), rel=1e-12)
    assert rep.terms["origin_excess"] > abs(rep.total - rep.terms["origin_excess"])


def test_final_inequality_offset_route():
    cfg = BoundConfig(lam=1)
    rep = final_inequality(10**12, cfg)
    assert rep.case_label == "offset"
    assert math.isfinite(rep.total)


def test_dual_route_verdicts_agree():
    cfg = BoundConfig(lam=1)
    for k in np.geomspace(1e6, 1e15, 10):
        a = final_inequality(float(k), cfg)
        b = final_inequality_from_primitives(float(k), cfg)
        assert a.positive == b.positive, k


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_primitives_route_equals_loop(lam):
    cfg = BoundConfig(lam=lam)
    for k in np.geomspace(1e3, 1e18, 8):
        rep = final_inequality_from_primitives(float(k), cfg)
        assert (rep.terms, rep.total, rep.positive, rep.b) == _primitives_loop(
            float(k), cfg), k


def test_primitives_route_rejects_origin():
    with pytest.raises(DomainError):
        final_inequality_from_primitives(10**12, REFERENCE_CONFIG)


def test_report_json_shape():
    rep = final_inequality(10**12, REFERENCE_CONFIG)
    payload = rep.to_json()
    assert set(payload) == {"k", "case", "terms", "total", "positive", "b"}
    assert payload["positive"] is True


# -- threshold certificates ---------------------------------------------------

def test_reference_threshold_frozen():
    c0, cert = effective_threshold(REFERENCE_CONFIG)
    assert c0 == REFERENCE_C0
    assert cert["first_positive"] == REFERENCE_C0
    assert cert["domain_floor"] == REFERENCE_C0  # the origin bound's own floor
    assert len(cert["tail_samples"]) == 100
    assert all(row["positive"] for row in cert["tail_samples"])


def test_threshold_moves_with_constants():
    # larger constant budgets postpone positivity; frozen from the scan
    assert effective_threshold(BoundConfig(lam=0, c2=1e17))[0] == 9_013_831_444
    assert effective_threshold(BoundConfig(lam=0, c1=1e17))[0] == 9_013_831_444
    assert effective_threshold(BoundConfig(lam=0, c3=50))[0] == 14_084_111_632


def test_threshold_not_found_when_floor_exceeds_range():
    # this budget needs ~e^28 blocks before any b is admissible
    cfg = BoundConfig(lam=5, d3=0.5)
    with pytest.raises(ThresholdNotFoundError):
        effective_threshold(cfg)


def test_threshold_rejects_flat_grid():
    with pytest.raises(DomainError):
        effective_threshold(REFERENCE_CONFIG, grid_ratio=1.0)


# -- sieve-side spot helpers --------------------------------------------------

def test_pi_second_difference_value(cache_main):
    e, ratio = pi_second_difference(cache_main, 10**4, 1, 500)
    assert e == 3
    assert ratio == pytest.approx(0.0021426683558783675, rel=1e-12)
    with pytest.raises(DomainError):
        pi_second_difference(cache_main, 10, 1, 5)


def test_beta_floor_value(cache_main):
    assert beta_floor(cache_main, 30) == pytest.approx(8 * math.log(8), rel=1e-15)
    with pytest.raises(DomainError):
        beta_floor(cache_main, 2)
