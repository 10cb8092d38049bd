"""Block decomposition tests: case table, boundary terms, oracle equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstar import blocks
from pstar.blocks import (
    block_counts,
    block_rows,
    boundary_terms,
    classify_case,
    excess_formula,
    half_block_count,
    half_block_excess,
    half_counts_direct,
    half_counts_formula,
)
from pstar.errors import DomainError
from pstar.primes import PrimeCache, build_cache


# -- case classification ---------------------------------------------------

def test_case_table_examples():
    d = classify_case(10, 23, 58)
    assert (d.lam, d.big_lam, d.case_label) == (2, 5, "ii")
    d = classify_case(10, 1, 10)
    assert (d.lam, d.big_lam, d.case_label) == (0, 1, "i")
    d = classify_case(10, 27, 69)
    assert (d.lam, d.big_lam, d.case_label) == (2, 6, "iv")


def test_case_boundary_offsets_are_exact():
    # offset exactly k/2 is a first half; one more is a second half
    assert classify_case(10, 25, 100).case_label == "i"
    assert classify_case(10, 26, 100).case_label == "iii"


def test_classify_rejects_bad_inputs():
    with pytest.raises(DomainError):
        classify_case(1, 3, 10)
    with pytest.raises(DomainError):
        classify_case(10, 11, 10)


def test_inner_blocks_range():
    d = classify_case(10, 23, 58)
    assert list(d.inner_blocks) == [3, 4]
    d = classify_case(10, 1, 10)
    assert list(d.inner_blocks) == []


@given(k=st.integers(2, 300), alpha=st.integers(1, 1_900), width=st.integers(0, 800))
@settings(max_examples=120, deadline=None)
def test_exactly_one_case_applies(k, alpha, width):
    beta = alpha + width
    d = classify_case(k, alpha, beta)
    assert d.case_label in ("i", "ii", "iii", "iv")
    assert d.lam * k <= alpha < (d.lam + 1) * k
    assert d.big_lam * k <= beta < (d.big_lam + 1) * k
    # the label is a function of the two half-block offsets alone
    first_a = 2 * (alpha - d.lam * k) <= k
    first_b = 2 * (beta - d.big_lam * k) <= k
    want = {(True, True): "i", (True, False): "ii",
            (False, True): "iii", (False, False): "iv"}[(first_a, first_b)]
    assert d.case_label == want


# -- half-block counts -----------------------------------------------------

def test_half_block_hand_values(cache_small):
    assert half_block_count(cache_small, 10, 1, 1) == 2  # 11, 13
    assert half_block_count(cache_small, 10, 1, 2) == 2  # 17, 19
    assert half_block_count(cache_small, 10, 0, 1) == 3  # 2, 3, 5
    assert half_block_excess(cache_small, 10, 1) == 0
    # a prime block start lies in the first half: [7, 10.5] holds 7 only
    assert half_block_count(cache_small, 7, 1, 1) == 1
    assert half_block_count(cache_small, 7, 1, 2) == 2  # 11, 13
    assert half_block_excess(cache_small, 7, 1) == -1


def test_half_block_rejects_bad_args(cache_small):
    with pytest.raises(DomainError):
        half_block_count(cache_small, 10, 1, 3)
    with pytest.raises(DomainError):
        half_block_count(cache_small, 10, -1, 1)


# -- boundary terms --------------------------------------------------------

def test_boundary_terms_case_i_example(cache_small):
    d = classify_case(10, 1, 10)
    assert boundary_terms(cache_small, d) == (3, 1)


def test_boundary_terms_case_ii_example(cache_small):
    d = classify_case(10, 1, 18)
    assert boundary_terms(cache_small, d) == (5, 2)


def test_boundary_terms_degenerate_tail(cache_small):
    # beta exactly at a block edge: the tail contributes pi(beta)-pi(beta)=0
    d = classify_case(10, 1, 20)
    m1, m2 = boundary_terms(cache_small, d)
    assert (m1, m2) == (3, 1)


def _literal_boundary_terms(cache, d):
    """(M1, M2) with the lead block's second half closed at (lam+1)k.

    The literal reading of the block endpoints, kept as a comparison oracle
    for the resolved convention (which stops at (lam+1)k - 1); it needs
    lam < big_lam.
    """
    k = d.k
    lo, lead_cut, lead_hi, final_lo, final_cut, hi = cache.pi_many([
        d.alpha - 1, max((2 * d.lam + 1) * k // 2, d.alpha - 1), (d.lam + 1) * k,
        d.big_lam * k - 1, min((2 * d.big_lam + 1) * k // 2, d.beta), d.beta,
    ])
    return (int(lead_cut - lo + final_cut - final_lo),
            int(lead_hi - lead_cut + hi - final_cut))


def test_literal_convention_diverges_at_prime_edge(cache_small):
    # with k = 7 the lead block's right edge is the prime 7 itself; closing
    # the half-open second half there double-counts it
    d = classify_case(7, 1, 10)
    resolved = boundary_terms(cache_small, d)
    literal = _literal_boundary_terms(cache_small, d)
    direct = half_counts_direct(cache_small, 7, 1, 10)
    assert resolved == (3, 1) == direct
    assert literal == (3, 2)
    assert literal != direct


def test_literal_convention_agrees_at_composite_edges(cache_small):
    d = classify_case(10, 3, 47)
    assert boundary_terms(cache_small, d) == _literal_boundary_terms(cache_small, d)


# -- assembled counts vs the oracle ----------------------------------------

def test_direct_hand_example(cache_small):
    assert half_counts_direct(cache_small, 5, 1, 25) == (5, 4)
    assert half_counts_direct(cache_small, 10, 24, 28) == (0, 0)


def test_formula_equals_direct_on_named_triples(cache_small):
    # the last six end in the ceiling's last partial block or at the ceiling
    for k, a, b in ((10, 1, 30), (10, 23, 58), (10, 1, 100), (10, 27, 69),
                    (5, 1, 25), (2, 1, 1_999), (3, 7, 7),
                    (10, 1, 2_000), (10, 2_000, 2_000), (7, 1, 1_999),
                    (7, 1_996, 2_000), (999, 1_500, 2_000), (3_000, 1, 2_000)):
        d = classify_case(k, a, b)
        assert half_counts_formula(cache_small, d) == \
            half_counts_direct(cache_small, k, a, b), (k, a, b)


@given(k=st.integers(3, 400), alpha=st.integers(1, 1_999), width=st.integers(0, 1_200))
@settings(max_examples=150, deadline=None)
def test_formula_equals_direct_property(k, alpha, width):
    cache = _shared()
    # clipping at the ceiling puts beta there or in the last partial block
    beta = min(alpha + width, cache.limit)
    try:
        d = classify_case(k, alpha, beta)
    except DomainError:
        return
    a1, a2 = half_counts_formula(cache, d)
    assert (a1, a2) == half_counts_direct(cache, k, alpha, beta)
    assert a1 + a2 == cache.pi(beta) - cache.pi(alpha - 1)


_CACHE = None


def _shared():
    global _CACHE
    if _CACHE is None:
        _CACHE = build_cache(2_400)
    return _CACHE


def test_formula_stays_inside_the_ceiling():
    # beta is the ceiling, but its block ends at 1_010: no pi query may go
    # past beta
    cache = build_cache(1_000)
    d = classify_case(10, 1, 1_000)
    assert half_counts_direct(cache, 10, 1, 1_000) == (84, 84)
    assert half_counts_formula(cache, d) == (84, 84)
    assert block_counts(cache, d).first_total == 84


def test_excess_hand_example(cache_small):
    # [1, 10] mod 10: A1 = {2,3,5}, A2 = {7}
    d = classify_case(10, 1, 10)
    assert excess_formula(cache_small, d) == 2


def test_block_counts_assembly(cache_small):
    d = classify_case(10, 23, 58)
    counts = block_counts(cache_small, d)
    assert counts.first_total + counts.second_total == \
        cache_small.pi(58) - cache_small.pi(22)
    assert counts.excess == counts.first_total - counts.second_total
    assert set(counts.inner_first) == {3, 4}
    rows = block_rows(cache_small, d)
    assert [r["block"] for r in rows] == [3, 4]


def _rows_oracle(cache, d, js):
    """Rows of the blocks js, one half_block_count per half."""
    rows = []
    for j in js:
        f, s = (half_block_count(cache, d.k, j, half) for half in (1, 2))
        rows.append({"block": j, "first": f, "second": s, "excess": f - s})
    return rows


def test_block_rows_match_half_block_counts(cache_small, cache_main):
    for k, alpha, beta in ((10, 23, 58), (7, 1, 2_000), (2, 3, 1_999), (97, 150, 1_990),
                           (10, 1, 10)):
        d = classify_case(k, alpha, beta)
        assert block_rows(cache_small, d) == _rows_oracle(cache_small, d, d.inner_blocks)
    # more than one pi_many chunk: check the blocks around the chunk edge
    d = classify_case(2, 1, 2**17 + 3)
    rows = block_rows(cache_main, d)
    assert [r["block"] for r in rows] == list(d.inner_blocks)
    for lo in (0, 2**16 - 3, len(rows) - 3):
        assert rows[lo : lo + 6] == _rows_oracle(cache_main, d, d.inner_blocks[lo : lo + 6])


def test_formula_across_pi_many_chunks(cache_main):
    # one chunk of exactly 2^16 inner blocks, then several chunks
    for k, alpha, beta in ((2, 1, 2**17 + 3), (199, 5, 15_000_000),
                           (2, 10**6 + 1, 10**6 + 2**18)):
        d = classify_case(k, alpha, beta)
        want = half_counts_direct(cache_main, k, alpha, beta)
        assert half_counts_formula(cache_main, d) == want, (k, alpha, beta)
        counts = block_counts(cache_main, d)
        assert (counts.first_total, counts.second_total) == want
        assert list(counts.inner_first) == list(d.inner_blocks)


def test_seeded_triples_against_oracle(cache_main):
    # the wide-range version of the hypothesis property, frozen seed
    rng = np.random.default_rng(417)
    for _ in range(60):
        k = int(rng.integers(3, 5_001))
        alpha = int(rng.integers(1, 2_000_001))
        beta = int(rng.integers(alpha, 2_000_001))
        try:
            d = classify_case(k, alpha, beta)
        except DomainError:
            continue
        assert half_counts_formula(cache_main, d) == \
            half_counts_direct(cache_main, k, alpha, beta), (k, alpha, beta)


@pytest.mark.parametrize("k", [blocks._BITMAP_MAX_K - 1, blocks._BITMAP_MAX_K])
def test_formula_on_both_sides_of_the_bitmap_crossover(k, cache_main, monkeypatch):
    # below the crossover the inner first halves come from the bitmap mask,
    # from it on from pi at block edges; both must match the residue oracle
    # and the pi totals of block_counts
    masked = []
    count = PrimeCache.count_in_classes
    monkeypatch.setattr(PrimeCache, "count_in_classes",
                        lambda self, *a: masked.append(a) or count(self, *a))
    top = cache_main.limit
    rng = np.random.default_rng(k)
    triples = [(1, 2_000), (1, top), (top - 3 * k - 1, top), (top - 9, top),
               (5, 2**22 + 7)]
    triples += [(int(a), int(a) + int(w)) for a, w in
                zip(rng.integers(1, top - 10**6, 6), rng.integers(0, 10**6, 6))]
    for alpha, beta in triples:
        d = classify_case(k, alpha, beta)
        want = half_counts_direct(cache_main, k, alpha, beta)
        assert half_counts_formula(cache_main, d) == want, (k, alpha, beta)
        counts = block_counts(cache_main, d)
        assert (counts.first_total, counts.second_total) == want, (k, alpha, beta)
    assert bool(masked) == (k < blocks._BITMAP_MAX_K)


def test_formula_counts_the_prime_2_as_an_inner_prime(cache_main):
    # k = 2, lam = 0: block 1 is [2, 3], so 2 is the first inner prime and
    # lies in a first half (residue 0)
    for beta in (4, 5, 1_000, 2**21 + 1, cache_main.limit):
        d = classify_case(2, 1, beta)
        assert d.inner_blocks.start == 1
        want = half_counts_direct(cache_main, 2, 1, beta)
        assert half_counts_formula(cache_main, d) == want, beta
        if beta < 2**22:  # block_counts keeps a dict entry per block
            counts = block_counts(cache_main, d)
            assert (counts.first_total, counts.second_total) == want, beta
