"""Prime cache tests against an independent oracle (sympy) and known values."""

import math
import os
import stat
import struct
import zlib

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pstar import primes as primes_mod
from pstar.errors import CacheFormatError, DomainError, SieveBudgetError
from pstar.classify import totient_table
from pstar.primes import (PrimeCache, arithmetic_profile, build_cache, load_cache,
                          simple_sieve)

# Classical table values, e.g. Sloane A006880 / A006988.
PI_TABLE = {
    10: 4,
    100: 25,
    1_000: 168,
    10_000: 1_229,
    100_000: 9_592,
    1_000_000: 78_498,
}
MILLIONTH_PRIME = 15_485_863


def test_pi_table(cache_main):
    for x, expected in PI_TABLE.items():
        assert cache_main.pi(x) == expected


def test_pi_small_edges(cache_small):
    assert cache_small.pi(1) == 0
    assert cache_small.pi(2) == 1
    assert cache_small.pi(2.5) == 1
    assert cache_small.pi(3) == 2
    assert cache_small.pi(0) == 0
    assert cache_small.pi(-7) == 0


def test_simple_sieve_matches_sympy():
    got = simple_sieve(1_000)
    want = np.array(list(sympy.primerange(2, 1_001)))
    assert np.array_equal(got, want)


def test_primes_in_matches_sympy_windows(cache_main):
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo = int(rng.integers(1, 2_000_000))
        hi = lo + int(rng.integers(0, 50_000))
        got = cache_main.primes_in(lo, hi)
        want = np.fromiter(sympy.primerange(lo, hi + 1), dtype=np.int64)
        assert np.array_equal(got, want), (lo, hi)


def test_theta_small_values(cache_small):
    # theta(10) = log(2*3*5*7)
    assert cache_small.theta(10) == pytest.approx(np.log(210.0), abs=1e-12)
    assert cache_small.theta(1) == 0.0


def test_theta_matches_sympy_sum(cache_small):
    rng = np.random.default_rng(11)
    for x in rng.integers(2, 2_000, size=12):
        want = float(sum(np.log(float(p)) for p in sympy.primerange(2, int(x) + 1)))
        assert cache_small.theta(int(x)) == pytest.approx(want, rel=1e-13)


def test_theta_extended_agrees_with_double(cache_main):
    for x in (149.0, 9_973.0, 1_234_567.0, 16_000_000.0):
        d = cache_main.theta(x)
        e = float(cache_main.theta_extended(x))
        assert abs(d - e) <= 1e-7 * max(1.0, abs(d))


def test_nth_prime(cache_main):
    assert cache_main.nth_prime(1) == 2
    assert cache_main.nth_prime(6) == 13
    assert cache_main.nth_prime(1_000_000) == MILLIONTH_PRIME
    with pytest.raises(DomainError):
        cache_main.nth_prime(0)


def test_prime_count_consistency(cache_small):
    assert cache_small.prime_count() == cache_small.pi(cache_small.limit)


@given(n=st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_nth_prime_pi_roundtrip(n):
    cache = _shared()
    p = cache.nth_prime(n)
    assert cache.pi(p) == n
    assert cache.pi(p - 1) == n - 1
    assert sympy.isprime(p)


_CACHES: dict[int, PrimeCache] = {}


def _shared(limit: int = 10_000) -> PrimeCache:
    # hypothesis cannot take pytest fixtures as arguments; keep module caches
    if limit not in _CACHES:
        _CACHES[limit] = build_cache(limit)
    return _CACHES[limit]


# -- the rank/select index -------------------------------------------------

# Bit i of the bitmap is the odd number 2i + 1, so a 64-bit word spans 128
# integers and a 512-bit index block 1024.  10_239 and 10_240 end exactly on
# a block edge; 10_000 ends inside a block.
INDEX_LIMITS = (10_000, 10_239, 10_240)


def _edge_points(limit: int) -> np.ndarray:
    """Every x within 2 of a word edge, plus -1..3 and the ceiling."""
    edges = np.arange(0, limit + 3, 128)
    xs = np.concatenate([edges + d for d in range(-2, 3)] + [[-1, 0, 1, 2, 3, limit]])
    return np.unique(np.clip(xs, -1, limit))


def _near_edge(limit: int):
    return st.one_of(
        st.integers(-1, limit),
        st.builds(lambda w, d: min(128 * w + d, limit),
                  st.integers(0, limit // 128 + 1), st.integers(-2, 2)),
        st.sampled_from([-1, 0, 1, 2, 3, limit]),
    )


@given(data=st.data(), limit=st.sampled_from(INDEX_LIMITS))
@settings(max_examples=80, deadline=None)
def test_pi_many_matches_pi_and_sympy(data, limit):
    cache = _shared(limit)
    xs = data.draw(st.lists(_near_edge(limit), max_size=40))
    got = cache.pi_many(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [cache.pi(x) for x in xs]
    assert got.tolist() == [int(sympy.primepi(x)) for x in xs]


@pytest.mark.parametrize("limit", INDEX_LIMITS)
def test_pi_many_on_every_word_edge(limit):
    cache = _shared(limit)
    xs = _edge_points(limit)
    want = [int(sympy.primepi(int(x))) for x in xs]
    assert cache.pi_many(xs).tolist() == want
    assert cache.pi_many(xs[::-1]).tolist() == want[::-1]
    assert cache.pi_many(xs.reshape(1, -1)).shape == (1, xs.size)
    assert cache.pi_many([]).size == 0


def test_pi_many_budget(cache_small):
    with pytest.raises(SieveBudgetError):
        cache_small.pi_many([5, cache_small.limit + 1])


@given(data=st.data(), limit=st.sampled_from(INDEX_LIMITS))
@settings(max_examples=60, deadline=None)
def test_nth_prime_pi_roundtrip_at_block_edges(data, limit):
    cache = _shared(limit)
    x = data.draw(_near_edge(limit).filter(lambda v: v >= 2))
    n = cache.pi(x)
    p = cache.nth_prime(n)  # the largest prime <= x
    assert p <= x and sympy.isprime(p)
    assert cache.pi(p) == n and cache.pi(p - 1) == n - 1
    if n < cache.prime_count():
        assert cache.nth_prime(n + 1) == sympy.nextprime(x)
    else:
        with pytest.raises(SieveBudgetError):
            cache.nth_prime(n + 1)


@pytest.mark.parametrize("limit", INDEX_LIMITS)
def test_theta_at_block_edges_matches_direct_sum(limit):
    cache = _shared(limit)
    primes = np.array(list(sympy.primerange(2, limit + 1)), dtype=np.float64)
    for x in _edge_points(limit):
        want = math.fsum(np.log(primes[primes <= x]))
        assert cache.theta(x) == pytest.approx(want, rel=1e-13, abs=0.0), x


def test_theta_across_sieve_segments(cache_main):
    # segments hold 2^20 odd numbers, i.e. 2^21 integers; theta checkpoints
    # carry a compensated sum across them
    primes = cache_main.primes_in(2, cache_main.limit)
    logs = np.log(primes.astype(np.float64))
    for s in (1, 2, 7):
        for x in (s * 2**21 - 1024, s * 2**21 - 1, s * 2**21, s * 2**21 + 1025):
            want = math.fsum(logs[: np.searchsorted(primes, x, side="right")])
            assert cache_main.theta(x) == pytest.approx(want, rel=1e-13), x


def test_pi_many_across_sieve_segments(cache_main):
    # the index is derived from the whole bitmap at once; check it at every
    # segment edge against the primes read straight from the bitmap
    limit = cache_main.limit
    primes = cache_main.primes_in(2, limit)
    edges = np.arange(0, limit + 1, 2**21)
    xs = np.concatenate([edges + d for d in range(-2, 3)] + [[limit]])
    xs = xs[(xs >= 0) & (xs <= limit)]
    want = np.searchsorted(primes, xs, side="right")
    assert np.array_equal(cache_main.pi_many(xs), want)


@pytest.mark.parametrize("fixture", ["cache_small", "cache_main"])
def test_pi_many_matches_a_binary_search(fixture, request):
    # every 64-bit word edge (128 integers apart, so every 2^21 segment edge
    # too) and its two neighbours, plus random points on the large cache
    cache = request.getfixturevalue(fixture)
    primes = cache.primes_in(2, cache.limit)
    edges = np.arange(0, cache.limit + 2, 128)
    xs = (edges[:, None] + np.arange(-1, 2)).ravel()
    if cache.limit > 10**6:
        xs = np.concatenate([xs, np.random.default_rng(5).integers(-3, cache.limit + 1, 10**4)])
    xs = xs[xs <= cache.limit]
    assert np.array_equal(cache.pi_many(xs), np.searchsorted(primes, xs, side="right"))


def test_nth_prime_for_every_n_across_word_and_block_edges(cache_main):
    # words hold 128 integers and theta blocks 1024; these stretches cross
    # many of both, the first 2^21 segment edge and the top of the cache
    primes = cache_main.primes_in(2, cache_main.limit)
    top = cache_main.prime_count()
    for lo, hi in ((1, 1_200), (155_500, 156_200), (top - 300, top)):
        assert [cache_main.nth_prime(n) for n in range(lo, hi + 1)] == \
            primes[lo - 1 : hi].tolist(), (lo, hi)
    assert cache_main.pi(2**21) in range(155_500, 156_200)


def _classes_oracle(cache, lo, hi, k, classes):
    """count_in_classes by reducing the fetched primes mod k."""
    return int(np.bincount(cache.primes_in(lo, hi) % k, minlength=k)[classes].sum())


def test_count_in_classes_matches_residue_counts(cache_small, cache_main):
    rng = np.random.default_rng(1313)
    seg = 2 * primes_mod.DEFAULT_SEGMENT_ODDS  # integers per chunk of bits
    for cache in (cache_small, cache_main):
        limit = cache.limit
        windows = [(0, 2), (2, 2), (0, 1), (1, 13), (3, 3), (4, 4), (7, 6),
                   (0, limit), (limit - 77, limit), (limit, limit)]
        # starts and ends on every bit of a byte (16 integers)
        windows += [(lo, lo + w) for lo in range(21, 37) for w in (0, 5, 16, 130)]
        if limit > 2 * seg:
            # a window of exactly one chunk of bits, one bit more or less,
            # and windows that cross the fixed segment edges
            windows += [(3, 3 + seg + d) for d in (-3, -2, -1, 0, 1, 2)]
            windows += [(s * seg - d, s * seg + e) for s in (1, 3) for d in (0, 1, 9)
                        for e in (0, 1, 2 * seg + 1)]
            windows += [(int(lo), int(lo) + 3 * seg + 7)
                        for lo in rng.integers(0, limit - 3 * seg - 7, 3)]
        for lo, hi in windows:
            k = int(rng.integers(2, 201))
            classes = rng.random(k) < 0.5
            classes[2 % k] = True  # keep the prime 2 in play when the window holds it
            assert cache.count_in_classes(lo, hi, k, classes) == \
                _classes_oracle(cache, lo, hi, k, classes), (limit, lo, hi, k)


def test_count_in_classes_over_every_modulus_to_200(cache_small):
    rng = np.random.default_rng(7)
    for k in range(2, 201):
        classes = rng.random(k) < rng.random()
        lo, hi = sorted(int(x) for x in rng.integers(0, cache_small.limit + 1, 2))
        for a, b in ((lo, hi), (0, cache_small.limit)):
            assert cache_small.count_in_classes(a, b, k, classes) == \
                _classes_oracle(cache_small, a, b, k, classes), (a, b, k)
        assert cache_small.count_in_classes(lo, lo - 1, k, classes) == 0
        assert cache_small.count_in_classes(lo, hi, k, np.ones(k, bool)) == \
            cache_small.pi(hi) - cache_small.pi(lo - 1)


def test_count_in_classes_checks_its_range(cache_small):
    classes = np.ones(10, dtype=bool)
    with pytest.raises(SieveBudgetError):
        cache_small.count_in_classes(1, cache_small.limit + 1, 10, classes)
    with pytest.raises(SieveBudgetError):
        cache_small.count_in_classes(cache_small.limit + 1, cache_small.limit + 9, 10, classes)
    with pytest.raises(DomainError):
        cache_small.count_in_classes(-1, 10, 10, classes)


def test_rank_dtype_holds_every_count():
    # ranks count the odd numbers 3..limit: 2^32 - 1 of them at 2^33 - 1 and
    # at 2^33, where the rule moves to 64 bits while they still fit
    assert (2**33 - 1 - 1) // 2 == np.iinfo(np.uint32).max
    assert primes_mod._rank_dtype(2**33 - 1) is np.uint32
    assert primes_mod._rank_dtype(2**33) is np.uint64
    assert _shared(10_000)._rank.dtype == np.uint32


@pytest.mark.parametrize("limit", INDEX_LIMITS)
def test_a_uint64_directory_gives_the_same_answers(monkeypatch, limit):
    monkeypatch.setattr(primes_mod, "_rank_dtype", lambda _: np.uint64)
    wide, narrow = build_cache(limit), _shared(limit)
    assert wide._rank.dtype == np.uint64
    assert np.array_equal(wide._rank, narrow._rank)
    xs = _edge_points(limit)
    assert wide.pi_many(xs).dtype == np.int64
    assert np.array_equal(wide.pi_many(xs), narrow.pi_many(xs))
    n = np.arange(1, narrow.prime_count() + 1).tolist()
    assert [wide.nth_prime(i) for i in n] == [narrow.nth_prime(i) for i in n]
    assert [wide.theta(x) for x in xs] == [narrow.theta(x) for x in xs]


@pytest.mark.parametrize("limit", [2**21 - 1, 2**21, 2**21 + 1])
def test_ceiling_at_a_segment_edge(limit):
    # 2^21 integers are one sieve segment; the top block past it must count
    cache = build_cache(limit)
    n = int(sympy.primepi(limit))
    assert cache.prime_count() == cache.pi(limit) == n
    assert cache.nth_prime(n) == sympy.prevprime(limit + 1)
    assert cache.theta(limit) == pytest.approx(cache.theta(limit - 1) + (
        math.log(limit) if sympy.isprime(limit) else 0.0), rel=1e-15)


def test_theta_is_derived_on_first_use(tmp_path):
    built = build_cache(3 * 2**20)
    built.save(tmp_path / "cache.bin")
    loaded = load_cache(tmp_path / "cache.bin")
    for cache in (built, loaded):
        assert "_theta" not in vars(cache)
        cache.theta(2**20 + 1)
        assert "_theta" in vars(cache)
    assert np.array_equal(loaded._theta, built._theta)


@pytest.mark.parametrize("limit", INDEX_LIMITS)
def test_rebuilt_cache_has_identical_index(tmp_path, limit):
    built = _shared(limit)
    built.save(tmp_path / "cache.bin")
    loaded = load_cache(tmp_path / "cache.bin")
    assert loaded.limit == limit
    for name in ("_packed", "_rank", "_theta"):
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
    xs = _edge_points(limit)
    assert np.array_equal(loaded.pi_many(xs), built.pi_many(xs))
    assert [loaded.theta(x) for x in xs] == [built.theta(x) for x in xs]
    # a prime list rebuilds the same index up to its largest prime
    rebuilt = PrimeCache.from_primes(built.primes_in(2, limit))
    assert rebuilt.limit == built.nth_prime(built.prime_count())
    xs = xs[xs <= rebuilt.limit]
    assert np.array_equal(rebuilt.pi_many(xs), built.pi_many(xs))
    assert [rebuilt.theta(x) for x in xs] == [built.theta(x) for x in xs]


def test_profile_values(cache_small):
    prof = cache_small.profile(30)
    assert prof.phi == 8
    assert prof.omega == 3
    assert prof.prime_divisors == (2, 3, 5)
    assert cache_small.profile(7).phi == 6
    assert cache_small.profile(2).phi == 1
    # no longer limited to k <= limit**2: the cache is not read
    assert cache_small.profile(2_003**2).prime_divisors == (2_003,)


def test_arithmetic_profile_matches_sympy():
    table = totient_table(3_000)
    for k in range(1, 3_001):
        prof = arithmetic_profile(k)
        assert prof.phi == sympy.totient(k) == table[k], k
        assert list(prof.prime_divisors) == sympy.primefactors(k), k
        assert prof.omega == len(prof.prime_divisors)
    with pytest.raises(DomainError):
        arithmetic_profile(0)


def test_budget_errors(cache_small):
    with pytest.raises(SieveBudgetError):
        cache_small.pi(cache_small.limit + 1)
    with pytest.raises(SieveBudgetError):
        cache_small.primes_in(1, 10_000)


def test_save_load_roundtrip(tmp_path, cache_small):
    path = tmp_path / "cache.bin"
    cache_small.save(path)
    loaded = load_cache(path)
    assert loaded.limit == 2_000  # the build ceiling, though 2_000 is composite
    for x in range(-1, 2_001):
        assert loaded.pi(x) == cache_small.pi(x)
        assert loaded.theta(x) == cache_small.theta(x)
    assert np.array_equal(loaded.primes_in(1, 2_000), cache_small.primes_in(1, 2_000))


def test_save_replaces_file_atomically(tmp_path, monkeypatch, cache_small):
    path = tmp_path / "cache.bin"
    _shared(10_000).save(path)
    cache_small.save(path)  # over an existing file
    assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]
    assert load_cache(path).limit == 2_000

    real_open = open

    class TornWriter:
        """Writes half of the first buffer, then fails like a full disk."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(primes_mod, "open", TornWriter, raising=False)
    with pytest.raises(OSError):
        _shared(10_000).save(path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]
    assert load_cache(path).limit == 2_000


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_save_gives_the_mode_of_a_plain_open(tmp_path, cache_small, umask):
    path, plain = tmp_path / "cache.bin", tmp_path / "plain.bin"
    old = os.umask(umask)
    try:
        cache_small.save(path)
        with open(plain, "wb"):
            pass
    finally:
        assert os.umask(old) == umask  # save left the umask as it found it
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_load_rejects_foreign_file(tmp_path, cache_small):
    good = tmp_path / "good.bin"
    cache_small.save(good)
    data = good.read_bytes()
    header = primes_mod._HEADER.size
    flipped = bytearray(data)
    flipped[header + 100] ^= 0x10
    # a bit past the ceiling under a valid checksum
    past = bytearray(data)
    past[-1] |= 0x80
    past[:header] = primes_mod._HEADER.pack(b"PSTC", 2, 2_000, zlib.crc32(past[header:]))
    primes = cache_small.primes_in(2, 2_000)
    v1 = struct.pack("<4sIQ", b"PSTC", 1, primes.size) + primes.astype("<u8").tobytes()
    cases = {
        "junk": (b"not a sieve cache at all, just filler bytes", "bad magic"),
        "short": (b"\x01\x02", "truncated cache header"),
        "flipped": (bytes(flipped), "checksum"),
        "truncated": (data[:-1], "-byte bitmap, file holds"),
        "padded": (data + b"\0", "-byte bitmap, file holds"),
        "v1": (v1, "unsupported cache version 1"),
        "past ceiling": (bytes(past), "bits set past the ceiling"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        with pytest.raises(CacheFormatError, match=message):
            load_cache(path)
