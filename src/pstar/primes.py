"""Segmented odd-only prime sieve with packed storage and a rank directory.

The cache sieves once up to a fixed ceiling and then answers pi(x),
theta(x) = sum of log p over primes p <= x, n-th prime, and interval
queries.  Storage is a bit per odd number (np.packbits, little bit order),
so a ceiling of 10^9 costs about 62 MB.

A rank directory makes rank queries independent of the ceiling: for every
64-bit word it holds the number of set bits before the word, and for every
512-bit block the sum of the logs of the primes before the block.  Per query:

* ``pi`` and ``pi_many``: one lookup and one 64-bit popcount per point;
* ``nth_prime``: a binary search over the word counts plus the unpacking
  of one 64-bit word;
* ``theta``: one lookup plus the logs of the primes among at most 512 bits;
* ``count_in_classes`` (primes of [lo, hi] in chosen residue classes mod
  k): one pass over the window's bits, ANDed with a k-periodic mask in
  chunks of DEFAULT_SEGMENT_ODDS bits, about 0.1-0.3 ms per 10^6 of width
  at any k.

The word counts are uint32 (uint64 from a ceiling of 2^33 on), 4 bytes per
128 integers, and the theta checkpoints 8 bytes per 1024; with both the
index is 5/8 of the bitmap: 3.1 MB of word counts and 0.8 MB of
checkpoints beside a 6.25 MB bitmap at 10^8, 31 MB and 7.8 MB at 10^9.

``PrimeCache(limit, packed)`` is the one constructor: ``build`` sieves
into a zeroed bitmap, ``load`` passes the bytes it has checked and
``from_primes`` sets bits in a zeroed bitmap.  It derives the word counts
from one cumulative sum of the popcounts of the bitmap's 64-bit words.  The
theta checkpoints take a ``log`` of every prime, so they are made on the
first ``theta`` call, accumulated with Kahan compensation across chunks so
that the running sum stays well below 1e-9 relative error at a 10^9
ceiling.  The cache is immutable; concurrent readers are safe, except that
two threads making the first ``theta`` call at once may both compute the
checkpoints.

A cache file (format version 2) holds a 20-byte little-endian header --
magic ``PSTC``, u32 version, u64 build ceiling, u32 CRC-32 of the bitmap --
followed by the packed bitmap as it is in memory: 6.25 MB at a ceiling of
10^8.  ``load`` checks every header field, the bitmap's length and its
checksum, and that no bit is set past the ceiling.  Files of version 1
(a list of u64 primes) are rejected.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheFormatError, DomainError, SieveBudgetError

DEFAULT_SEGMENT_ODDS = 1 << 20  # odd numbers sieved per segment, whole blocks
_BLOCK_BITS = 512  # theta checkpoint granularity: 8 64-bit words
_LOW_MASKS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)

_MAGIC = b"PSTC"
_VERSION = 2
_HEADER = struct.Struct("<4sIQI")  # magic, version, ceiling, CRC-32 of the bitmap


@dataclass(frozen=True)
class ArithmeticProfile:
    """Multiplicative profile of a modulus: totient, distinct prime divisors."""

    k: int
    phi: int
    omega: int
    prime_divisors: tuple[int, ...]


def _bitmap_bytes(limit: int) -> int:
    """Whole 512-bit blocks over the odd numbers <= limit, and one more."""
    return (((limit - 1) // 2 + 1) // _BLOCK_BITS + 1) * _BLOCK_BITS // 8


def _rank_dtype(limit: int) -> type:
    """uint32 while every rank fits: ranks count odd numbers 3..limit, fewer
    than 2^32 below 2^33; uint64 from there on."""
    return np.uint32 if limit < 1 << 33 else np.uint64


def simple_sieve(limit: int) -> np.ndarray:
    """Dense sieve of Eratosthenes; fine up to ~10^7, used for base primes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


class PrimeCache:
    """Immutable packed bitmap of odd primes up to ``limit`` (inclusive)."""

    def __init__(self, limit: int, packed: np.ndarray):
        """Index ``packed``: bit i is the odd number 2i + 1, zero past ``limit``,
        in :func:`_bitmap_bytes` bytes."""
        self.limit = limit
        self._packed = packed
        self._words = packed.view("<u8")
        # rank[w]: the bits set before word w.  The popcounts are summed in
        # place: a cumsum with a dtype holds two more arrays of that length.
        self._rank = np.zeros(len(self._words) + 1, dtype=_rank_dtype(limit))
        np.bitwise_count(self._words, out=self._rank[1:])
        np.cumsum(self._rank[1:], out=self._rank[1:])

    @functools.cached_property
    def _theta(self) -> np.ndarray:
        """theta[b]: sum of log(2i + 1) over the bits before bit 512 b, made on
        first use from chunks of DEFAULT_SEGMENT_ODDS bits."""
        n_blocks = len(self._words) // 8
        chunk = DEFAULT_SEGMENT_ODDS // _BLOCK_BITS
        theta = np.zeros(n_blocks + 1, dtype=np.float64)
        theta_sum = 0.0
        theta_comp = 0.0  # Kahan carry across chunks
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            bits = np.unpackbits(self._packed[b0 * 64 : b1 * 64], bitorder="little").view(bool)
            logs = np.log(2.0 * np.flatnonzero(bits) + (2 * b0 * _BLOCK_BITS + 1))
            # chunk bits before each block, as int64: reduceat takes no uint64
            edges = self._rank[8 * b0 : 8 * b1 + 1 : 8].astype(np.int64)
            edges -= edges[0]
            # reduceat gives an empty slice its first element, not 0, so
            # only the nonempty blocks are summed.
            nonempty = edges[1:] > edges[:-1]
            sums = np.zeros(b1 - b0)
            sums[nonempty] = np.add.reduceat(logs, edges[:-1][nonempty])
            local = np.cumsum(sums)
            theta[b0 + 1 : b1 + 1] = theta_sum + (local - theta_comp)
            y = local[-1] - theta_comp
            t = theta_sum + y
            theta_comp = (t - theta_sum) - y
            theta_sum = t
        return theta

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, limit: int) -> "PrimeCache":
        """Sieve the odd numbers up to ``limit`` segment by segment into the bitmap."""
        if limit < 2:
            raise DomainError(f"sieve ceiling must be >= 2, got {limit}")
        n_indices = (limit - 1) // 2 + 1  # bit i <-> odd number 2i+1
        packed = np.zeros(_bitmap_bytes(limit), dtype=np.uint8)
        base_odd = [int(p) for p in simple_sieve(math.isqrt(limit)) if p > 2]
        for i0 in range(0, n_indices, DEFAULT_SEGMENT_ODDS):
            i1 = min(i0 + DEFAULT_SEGMENT_ODDS, n_indices)
            mask = np.ones(i1 - i0, dtype=bool)
            if i0 == 0:
                mask[0] = False  # the number 1
            lo_val = 2 * i0 + 1
            hi_val = 2 * (i1 - 1) + 1
            for p in base_odd:
                pp = p * p
                if pp > hi_val:
                    break
                m = max(pp, ((lo_val + p - 1) // p) * p)
                if m % 2 == 0:
                    m += p
                mask[(m - 1) // 2 - i0 :: p] = False
            packed[i0 // 8 : i0 // 8 + (mask.size + 7) // 8] = np.packbits(
                mask, bitorder="little")
        return cls(limit, packed)

    @classmethod
    def from_primes(cls, primes: np.ndarray) -> "PrimeCache":
        """Cache up to the largest of ``primes``, their bits set in a zeroed bitmap."""
        if primes.size == 0:
            raise CacheFormatError("prime list is empty")
        if primes[0] != 2 or np.any(np.diff(primes) <= 0):
            raise CacheFormatError("prime list must start at 2 and increase strictly")
        limit = int(primes[-1])
        packed = np.zeros(_bitmap_bytes(limit), dtype=np.uint8)
        idx = (primes[1:] - 1) // 2
        np.bitwise_or.at(packed, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        return cls(limit, packed)

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the header and the packed bitmap, replacing ``path`` atomically.

        The header holds magic PSTC, the format version, the build ceiling
        and the CRC-32 of the bitmap bytes.  The file is written beside
        ``path`` under a temporary name and then renamed over it, so a
        reader sees the old file or the new one, never a torn one.
        """
        path = Path(path)
        header = _HEADER.pack(_MAGIC, _VERSION, self.limit, zlib.crc32(self._packed))
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        try:
            with open(fd, "wb") as fh:
                fh.write(header)
                fh.write(self._packed)
            # mkstemp makes the file 0600; give it the mode open(path, "wb")
            # would.  The umask can only be read by setting it.
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "PrimeCache":
        """Read a file written by ``save``; ``CacheFormatError`` if it is not one.

        The bitmap is read straight into a read-only array of the length the
        ceiling needs, and once checked it becomes the cache's bitmap; the
        block index is derived from it as for a sieved cache.
        """
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CacheFormatError("truncated cache header")
            magic, version, limit, crc = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise CacheFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            if version != _VERSION:
                raise CacheFormatError(f"unsupported cache version {version}, "
                                       f"expected {_VERSION}; delete it to rebuild")
            if limit < 2:
                raise CacheFormatError(f"cache ceiling {limit} is below 2")
            size = _bitmap_bytes(limit)
            held = os.fstat(fh.fileno()).st_size - _HEADER.size
            if held == size:
                body = np.empty(size, dtype=np.uint8)
                held = fh.readinto(body)  # fewer if the file shrank meanwhile
        if held != size:
            raise CacheFormatError(
                f"ceiling {limit} needs a {size}-byte bitmap, file holds {held}")
        body.flags.writeable = False
        if zlib.crc32(body) != crc:
            raise CacheFormatError("bitmap checksum mismatch")
        cache = cls(limit, body)
        if cache.prime_count() != cache.pi(limit):
            raise CacheFormatError(f"bitmap has bits set past the ceiling {limit}")
        return cache

    # -- queries ----------------------------------------------------------

    def _check_budget(self, x: float) -> None:
        if x > self.limit:
            raise SieveBudgetError(
                f"query at {x} exceeds the sieve ceiling {self.limit}")

    def pi(self, x: float) -> int:
        """Number of primes <= x; x may be any real."""
        m = math.floor(x)
        if m < 2:
            return 0
        self._check_budget(m)
        return int(self.pi_many(m))

    def pi_many(self, xs) -> np.ndarray:
        """pi at every point of an integer array, as int64 of the same shape."""
        m = np.asarray(xs, dtype=np.int64)
        if m.size:
            self._check_budget(int(m.max()))
        # odd numbers <= m are the bits with index < stop
        stop = (np.maximum(m, 1) + 1) >> 1
        w = stop >> 6
        out = np.add(self._rank[w], np.bitwise_count(self._words[w] & _LOW_MASKS[stop & 63]),
                     dtype=np.int64)
        out += m >= 2  # the prime 2; below 2 both terms are 0
        return out

    def _bits(self, idx_lo: int, idx_hi: int) -> np.ndarray:
        """Bits idx_lo..idx_hi (idx_lo <= idx_hi) as a bool array."""
        lo_byte = idx_lo // 8
        hi_byte = idx_hi // 8 + 1
        window = np.unpackbits(self._packed[lo_byte:hi_byte], bitorder="little").view(bool)
        return window[idx_lo - 8 * lo_byte : idx_lo - 8 * lo_byte + (idx_hi - idx_lo + 1)]

    def _odd_values_between(self, idx_lo: int, idx_hi: int) -> np.ndarray:
        """Values 2i+1 of set bits with idx_lo <= i <= idx_hi."""
        if idx_hi < idx_lo:
            return np.empty(0, dtype=np.int64)
        values = np.flatnonzero(self._bits(idx_lo, idx_hi)).astype(np.int64, copy=False)
        values += idx_lo  # in place: no temporaries the size of the output
        values *= 2
        values += 1
        return values

    def theta(self, x: float) -> float:
        """Chebyshev theta: sum of log p over primes p <= x."""
        m = math.floor(x)
        if m < 2:
            return 0.0
        self._check_budget(m)
        stop = (m + 1) // 2
        b = stop // _BLOCK_BITS
        tail = self._odd_values_between(b * _BLOCK_BITS, stop - 1)
        partial = float(np.sum(np.log(tail.astype(np.float64))))
        return math.log(2.0) + float(self._theta[b]) + partial

    def theta_extended(self, x: float) -> np.longdouble:
        """theta(x) re-evaluated in 80-bit extended precision (slow path)."""
        m = math.floor(x)
        if m < 2:
            return np.longdouble(0.0)
        self._check_budget(m)
        total = np.log(np.longdouble(2.0))
        step = 1 << 22
        for lo in range(3, m + 1, step):
            chunk = self.primes_in(lo, min(lo + step - 1, m))
            if chunk.size:
                total += np.sum(np.log(chunk.astype(np.longdouble)))
        return total

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Ordered primes p with lo <= p <= hi, as int64."""
        lo = math.ceil(lo)
        hi = math.floor(hi)
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        if lo < 0:
            raise DomainError(f"range start must be >= 0, got {lo}")
        self._check_budget(hi)
        head = [2] if lo <= 2 <= hi else []
        o = max(lo, 3)
        if o % 2 == 0:
            o += 1
        e = hi if hi % 2 else hi - 1
        odds = self._odd_values_between((o - 1) // 2, (e - 1) // 2) if e >= o else np.empty(0, dtype=np.int64)
        if head:
            return np.concatenate([np.array(head, dtype=np.int64), odds])
        return odds

    def count_in_classes(self, lo: float, hi: float, k: int, classes) -> int:
        """Number of primes p with lo <= p <= hi and ``classes[p % k]`` true.

        ``classes`` is a bool array of length k.  Whether bit i (the odd
        number 2i + 1) is in a class depends only on i mod k, so one k-long
        pattern, tiled over each chunk of DEFAULT_SEGMENT_ODDS bits and
        ANDed with them, counts the chunk.  No prime is formed.
        """
        lo = math.ceil(lo)
        hi = math.floor(hi)
        if hi < lo:
            return 0
        if lo < 0:
            raise DomainError(f"range start must be >= 0, got {lo}")
        self._check_budget(hi)
        classes = np.asarray(classes, dtype=bool)
        count = int(lo <= 2 <= hi and classes[2 % k])
        idx_lo = max(lo, 3) // 2  # the first odd number >= max(lo, 3)
        idx_hi = (hi - 1) // 2  # the last odd number <= hi
        for i0 in range(idx_lo, idx_hi + 1, DEFAULT_SEGMENT_ODDS):
            n = min(DEFAULT_SEGMENT_ODDS, idx_hi + 1 - i0)
            pattern = classes[(2 * np.arange(i0, i0 + k) + 1) % k]
            mask = np.tile(pattern, -(-n // k))[:n]
            count += int(np.count_nonzero(self._bits(i0, i0 + n - 1) & mask))
        return count

    def nth_prime(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"prime index must be >= 1, got {n}")
        if n == 1:
            return 2
        k = n - 1  # k-th set bit, 1-based
        if n > self.prime_count():
            raise SieveBudgetError(
                f"cache holds {self.prime_count()} primes, cannot answer nth_prime({n})")
        # k as the directory's dtype: a Python int would cast the whole array
        w = int(np.searchsorted(self._rank, self._rank.dtype.type(k), side="left")) - 1
        vals = self._odd_values_between(64 * w, 64 * w + 63)
        return int(vals[k - int(self._rank[w]) - 1])

    def prime_count(self) -> int:
        """Total primes below the ceiling (pi(limit))."""
        return 1 + int(self._rank[-1])

    def profile(self, k: int) -> ArithmeticProfile:
        """The :func:`arithmetic_profile` of k; the cache is not read."""
        return arithmetic_profile(k)


def arithmetic_profile(k: int) -> ArithmeticProfile:
    """Totient and distinct prime divisors of k >= 1 by trial division."""
    if k < 1:
        raise DomainError(f"profile needs k >= 1, got {k}")
    divisors = []
    phi = rem = k
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            divisors.append(d)
            phi -= phi // d
            while rem % d == 0:
                rem //= d
        d += 1 if d == 2 else 2
    if rem > 1:
        divisors.append(rem)
        phi -= phi // rem
    return ArithmeticProfile(k, phi, len(divisors), tuple(divisors))


def build_cache(limit: int) -> PrimeCache:
    return PrimeCache.build(limit)


def load_cache(path: str | Path) -> PrimeCache:
    return PrimeCache.load(path)
