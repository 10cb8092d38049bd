"""Classifier tests: hand tallies, the classical census, and invariants."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pstar.classify import (
    BalanceCheck,
    ClassicalCheck,
    PStarParams,
    _census_survivors,
    balance_condition,
    classical_census,
    classical_params,
    compare_classical_forms,
    invertible_residues,
    is_block_p_integer,
    is_classical_p_integer,
    is_pstar,
    residue_tally,
    search,
    totient_table,
)
from pstar.errors import DomainError, SieveBudgetError
from pstar.primes import build_cache, simple_sieve

CLASSICAL_P_INTEGERS = [2, 4, 6, 12, 18, 30]


# -- residue tallies -------------------------------------------------------

def test_tally_hand_example(cache_small):
    t = residue_tally(cache_small, 5, 2, 30)
    assert t.counts.tolist() == [1, 1, 3, 3, 2]
    assert t.total == 10
    assert t.invertible_min == 1


def test_tally_single_prime(cache_small):
    t = residue_tally(cache_small, 2, 3, 3)
    assert t.counts.tolist() == [0, 1]
    assert t.total == 1


def test_tally_empty_window(cache_small):
    t = residue_tally(cache_small, 7, 24, 28)
    assert t.total == 0
    assert not t.counts.any()


@given(k=st.integers(2, 60), alpha=st.integers(2, 1_500), width=st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_tally_total_identity(k, alpha, width):
    cache = _shared()
    beta = min(alpha + width, cache.limit)
    t = residue_tally(cache, k, alpha, beta)
    assert t.total == cache.pi(beta) - cache.pi(alpha - 1)
    assert int(t.counts.sum()) == t.total


_CACHE = None


def _shared():
    global _CACHE
    if _CACHE is None:
        _CACHE = build_cache(2_000)
    return _CACHE


def test_invertible_residues():
    assert invertible_residues(10).tolist() == [1, 3, 7, 9]
    assert invertible_residues(7).tolist() == [1, 2, 3, 4, 5, 6]


def _gcd_residues(k):
    """The definition: residues r < k with gcd(r, k) = 1."""
    return np.flatnonzero(np.gcd(np.arange(k), k) == 1)


def test_invertible_residues_match_the_gcd_definition():
    # 30030 = 2 3 5 7 11 13; 999_983 is the largest prime below 10^6
    for k in (*range(2, 3001), 30_030, 999_983):
        assert np.array_equal(invertible_residues(k), _gcd_residues(k)), k
    with pytest.raises(DomainError):
        invertible_residues(1)


# -- P* verdicts -----------------------------------------------------------

def test_pstar_positive_example(cache_small):
    v = is_pstar(cache_small, PStarParams(5, 2, 30, gamma=1, iota=6))
    assert v.is_pstar
    assert v.total_mismatch == 0
    assert v.deficit_classes == ()


def test_pstar_deficit_example(cache_small):
    # class 1 mod 5 holds only the prime 11 in [2, 30]
    v = is_pstar(cache_small, PStarParams(5, 2, 30, gamma=2, iota=2))
    assert not v.is_pstar
    assert v.deficit_classes == (1,)


def test_pstar_smallest_case(cache_small):
    v = is_pstar(cache_small, PStarParams(2, 3, 3, gamma=1, iota=0))
    assert v.is_pstar


def test_params_validation():
    with pytest.raises(DomainError):
        PStarParams(1, 2, 30)
    with pytest.raises(DomainError):
        PStarParams(5, 30, 2)
    with pytest.raises(DomainError):
        PStarParams(5, 2, 30, gamma=0)
    with pytest.raises(DomainError):
        PStarParams(5, 2, 30, iota=-1)


# -- classical form --------------------------------------------------------

def test_classical_verdicts(cache_small):
    assert is_classical_p_integer(cache_small, 30).is_p_integer
    assert not is_classical_p_integer(cache_small, 8).is_p_integer
    assert is_classical_p_integer(cache_small, 2).is_p_integer


def test_classical_witness_for_30(cache_small):
    check = is_classical_p_integer(cache_small, 30)
    # first phi(30) = 8 primes not dividing 30: 7,11,13,17,19,23,29,31
    assert sorted(check.witness.values()) == [7, 11, 13, 17, 19, 23, 29, 31]
    assert sorted(check.witness.keys()) == sorted(p % 30 for p in check.witness.values())


def test_classical_failure_is_early(cache_small):
    # 3,5,7 then 11 = 3 mod 8 repeats class 3
    check = is_classical_p_integer(cache_small, 8)
    assert not check.is_p_integer
    assert 3 in check.witness


def test_block_form_verdicts(cache_small):
    assert is_block_p_integer(cache_small, 30)
    assert not is_block_p_integer(cache_small, 8)
    assert is_block_p_integer(cache_small, 4)


def test_block_form_4_by_hand(cache_small):
    # phi(4)+omega(4) = 3 primes: 2 (divisor), 3 -> 3, 5 -> 1; reduced
    # classes {1, 3} each hit once and the divisor class is distinct
    prof = cache_small.profile(4)
    first = cache_small.primes_in(2, cache_small.nth_prime(prof.phi + prof.omega))
    assert first.tolist() == [2, 3, 5]
    assert sorted(p % 4 for p in first if 4 % p) == [1, 3]


def test_forms_agree_on_small_moduli(cache_small):
    for k in range(2, 101):
        classical, block = compare_classical_forms(cache_small, k)
        assert classical == block, k


def test_budget_error_carries_context(cache_small):
    # k = 1999 is prime, phi = 1998; the walk needs primes past the ceiling
    with pytest.raises(SieveBudgetError, match="1999"):
        is_classical_p_integer(cache_small, 1999)


def test_repeat_decides_before_the_ceiling(cache_small):
    # phi(1900) = 720 exceeds the 303 primes held, but a repeat among them
    # settles the verdict without a budget error
    assert cache_small.profile(1900).phi == 720 > cache_small.prime_count() == 303
    assert is_classical_p_integer(cache_small, 1900).is_p_integer is False


# -- reference oracles: scalar walks over an ascending prime stream --------

def _stream(primes):
    """All primes of the cache, ascending, then a budget error."""
    yield from primes
    raise SieveBudgetError("past the ceiling")


def _classical_walk(primes, k):
    phi = int(sympy.totient(k))
    witness = {}
    for p in _stream(primes):
        if k % p == 0:
            continue
        r = p % k
        if r in witness:
            return ClassicalCheck(False, witness)
        witness[r] = p
        if len(witness) == phi:
            return ClassicalCheck(True, witness)


def _block_walk(primes, k):
    phi, omega = int(sympy.totient(k)), len(sympy.primefactors(k))
    seen_inv, seen_div = set(), set()
    for taken, p in enumerate(_stream(primes)):
        if taken == phi + omega:
            break
        seen = seen_div if k % p == 0 else seen_inv
        if p % k in seen:
            return False
        seen.add(p % k)
    return len(seen_inv) == phi and len(seen_div) == omega


def _outcome(check, source, k):
    try:
        result = check(source, k)
    except SieveBudgetError:
        return "budget"
    if isinstance(result, ClassicalCheck):
        return result.is_p_integer, list(result.witness.items())
    return result


@pytest.mark.parametrize("fixture, k_values", [
    ("cache_small", range(2, 3000)),
    ("cache_main", range(2, 3001)),
])
def test_window_checks_match_the_scalar_walks(fixture, k_values, request):
    cache = request.getfixturevalue(fixture)
    primes = cache.primes_in(2, cache.limit).tolist()  # read once, walked from the start per k
    for k in k_values:
        assert _outcome(is_classical_p_integer, cache, k) == \
            _outcome(_classical_walk, primes, k), k
        assert _outcome(is_block_p_integer, cache, k) == \
            _outcome(_block_walk, primes, k), k


# -- balance condition -----------------------------------------------------

def test_balance_hand_example(cache_small):
    assert balance_condition(cache_small, 5, 1, 25, 1) == BalanceCheck(True, 5, 4)
    assert balance_condition(cache_small, 5, 1, 25, 0).holds is False


def test_balance_empty_window(cache_small):
    check = balance_condition(cache_small, 10, 24, 28, 0)
    assert check == BalanceCheck(True, 0, 0)


def test_positive_verdicts_satisfy_balance(cache_small):
    # Necessary condition: every positive verdict must pass the half-split
    # test.  k = 2 is excluded: the lone invertible residue 1 is its own
    # mirror under r <-> k - r and sits in the lower half, so the split is
    # one-sided and the cardinality argument does not apply.
    for k in CLASSICAL_P_INTEGERS:
        if k == 2:
            continue
        params = classical_params(cache_small, k)
        assert is_pstar(cache_small, params).is_pstar
        assert balance_condition(cache_small, k, params.alpha, params.beta,
                                 params.iota).holds


def test_balance_degenerate_modulus(cache_small):
    # at k = 2 every residue lies in the lower half, so the check reports
    # the raw one-sided counts and fails for the classical parameters
    params = classical_params(cache_small, 2)
    check = balance_condition(cache_small, 2, params.alpha, params.beta,
                              params.iota)
    assert check == BalanceCheck(False, 2, 0)


# -- search and census -----------------------------------------------------

def test_census_to_100(cache_main):
    assert classical_census(cache_main, 100) == CLASSICAL_P_INTEGERS


def test_census_tiny_ranges(cache_small):
    assert classical_census(cache_small, 1) == []
    assert classical_census(cache_small, 2) == [2]


def test_census_to_a_million(cache_main):
    assert classical_census(cache_main, 1_000_000) == CLASSICAL_P_INTEGERS


def test_census_wants_primes_past_the_ceiling(cache_small):
    with pytest.raises(SieveBudgetError):
        classical_census(cache_small, 1_000)


def _loop_filter_survivors(cache, k_max):
    """The census filter as a loop over k: the moduli it cannot refute."""
    phi_tab = totient_table(k_max)
    n_need = k_max + 16
    bound = int(n_need * (math.log(n_need) + math.log(math.log(n_need)))) + 10
    primes = cache.primes_in(2, min(bound, cache.limit))
    prime_flags = np.zeros(k_max + 1, dtype=bool)
    prime_flags[primes[primes <= k_max]] = True
    ks = np.arange(2, k_max + 1)
    above_k = np.searchsorted(primes, ks, side="right")
    above_2k = np.searchsorted(primes, 2 * ks, side="right")
    survivors = []
    for k in range(2, k_max + 1):
        # Two windows of wrapped residues, primes just above k and just
        # above 2k, clipped to index < phi(k).
        phi = int(phi_tab[k])
        s1, s2 = int(above_k[k - 2]), int(above_2k[k - 2])
        parts = []
        for s, width in ((s1, 96), (s2, 96)):
            e = min(s + width, phi)
            if s < e:
                chunk = primes[s:e]
                parts.append((chunk % k)[k % chunk != 0])
        if parts:
            r = np.concatenate(parts) if len(parts) > 1 else parts[0]
            if np.any(prime_flags[r]):
                continue  # repeat against a small coprime prime
            if r.size > 1 and np.any(np.diff(np.sort(r)) == 0):
                continue  # repeat among the wrapped residues
        survivors.append(k)
    return survivors


def test_census_filter_matches_the_loop(cache_main):
    survivors = _census_survivors(cache_main, 100_000).tolist()
    assert survivors == _loop_filter_survivors(cache_main, 100_000)
    assert len(survivors) == 17


def test_census_filter_only_refutes(cache_main):
    refuted = set(range(2, 3001)) - set(_census_survivors(cache_main, 3000).tolist())
    assert len(refuted) > 2900
    for k in sorted(refuted):
        assert not is_classical_p_integer(cache_main, k).is_p_integer, k


def test_search_with_classical_rule(cache_small):
    results = search(cache_small, range(2, 101),
                     lambda k: classical_params(cache_small, k))
    hits = [k for k, v in results if v.is_pstar]
    assert hits == CLASSICAL_P_INTEGERS
    assert [k for k, _ in results] == list(range(2, 101))


def test_search_empty_range(cache_small):
    assert search(cache_small, [], lambda k: PStarParams(k, 2, 10)) == []


def test_search_impossible_totals(cache_small):
    # gamma*phi + iota beyond pi(beta): pigeonhole forces every verdict false
    rule = lambda k: PStarParams(k, 2, 30, gamma=11, iota=0)
    results = search(cache_small, [3, 5, 7], rule)
    assert all(not v.is_pstar for _, v in results)


def test_classical_implies_pstar_embedding(cache_main):
    # the classical property is the gamma=1 P* instance with iota = omega(k);
    # census positives up to 1e4 must all embed
    for k in classical_census(cache_main, 10_000):
        assert is_pstar(cache_main, classical_params(cache_main, k)).is_pstar


def test_totient_table_matches_sympy():
    table = totient_table(500)
    for k in (1, 2, 12, 30, 97, 360, 499, 500):
        assert table[k] == sympy.totient(k)


def _loop_totient_table(n):
    """One slice update per prime: the plain sieve of multiplicative corrections."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in simple_sieve(n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def test_totient_table_matches_the_loop():
    # every small n, and n on both sides of perfect squares, where the split
    # between slice updates and grouped updates moves
    for n in (*range(0, 130), 99**2 - 1, 99**2, 99**2 + 1, 316**2, 317**2 - 1,
              100_000):
        assert np.array_equal(totient_table(n), _loop_totient_table(n)), n
