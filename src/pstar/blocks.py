"""Half-block decomposition of prime counts over an integer interval.

The interval [alpha, beta] is tiled by length-k blocks [j*k, (j+1)*k).  Each
block splits at its midpoint j*k + k/2 into a first half (residues r with
2r <= k) and a second half.  Counting primes per half, block by block, turns
the question "does the first half of [alpha, beta] hold at least as many
primes as the second half" into a sum of per-block excesses plus two boundary
corrections M1 (first-half mass of the two partial blocks) and M2
(second-half mass).

Exactness is the whole point here: every count below is exact, and the
identity

    first_half_count - second_half_count == (M1 - M2) + sum_j excess(j)

holds exactly, not approximately.  Counts reach the cache by one of two
routes.  Per-block counts, the boundary terms and the inner blocks of
:func:`half_counts_formula` from ``_BITMAP_MAX_K`` on are differences of
pi(x) read from the cache's rank index, two points per block.  Below
``_BITMAP_MAX_K`` that would read far more than the span holds, so
:func:`half_counts_formula` counts the inner first halves straight from the
bitmap with one periodic residue mask (``PrimeCache.count_in_classes``),
about the cost of reading the span, and takes the second halves as pi over
the span minus that.  The analytic machinery in
:mod:`pstar.bounds` lower-bounds the same quantities; this module is the
oracle it is checked against.

Boundary conventions
--------------------
Endpoint membership is easy to get wrong by one, so the conventions are
pinned here and verified against direct residue counts in the test suite:

==========  =======================================================
quantity    convention
==========  =======================================================
half point  pi((j + 1/2)k) means pi evaluated at floor((2j+1)k/2),
            computed in integer arithmetic (no float rounding).
first half  primes p in [j*k, (j+1/2)k], i.e. pi(half) - pi(j*k - 1).
second half primes p in ((j+1/2)k, (j+1)k), i.e.
            pi((j+1)k - 1) - pi(half).  For j >= 1 the right endpoint
            (j+1)k is composite, so closing the interval there would
            count the same primes; the open form is used uniformly.
lead block  in cases (i)/(ii) the second-half boundary term starts at
            the half point of block lam: pi(x_{lam+1} - 1) - pi(half).
final block in case (i) the first-half tail is pi(beta) - pi(Lam*k - 1).
==========  =======================================================

The boundary terms close the lead block's second half at (lam+1)k - 1.  A
"literal" reading that closes it at (lam+1)k differs only when that edge is
prime, which for lam >= 1 never happens; the test suite keeps it as a
comparison oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import PrimeCache

__all__ = [
    "IntervalDecomposition",
    "BlockCounts",
    "classify_case",
    "half_block_count",
    "half_block_excess",
    "boundary_terms",
    "half_counts_formula",
    "half_counts_direct",
    "excess_formula",
    "block_counts",
    "block_rows",
]

CASE_LABELS = ("i", "ii", "iii", "iv")
_CHUNK_BLOCKS = 1 << 16
# half_counts_formula counts inner blocks from the bitmap below this k: the
# mask reads every bit of the span, pi two points per block.  On a 1e8 cache
# the mask wins at every width from 1e5 to 1e6 up to k = 128, ties near 192
# and loses from 256 on (BENCH_13.json).
_BITMAP_MAX_K = 128


@dataclass(frozen=True)
class IntervalDecomposition:
    """How [alpha, beta] sits inside the length-k block tiling.

    ``lam`` and ``big_lam`` are the block indices of alpha and beta
    (floor division), ``case_label`` records which of the four
    endpoint-position cases applies:

    * ``"i"``   alpha in the first half of its block, beta in the first half
    * ``"ii"``  alpha first half, beta second half
    * ``"iii"`` alpha second half, beta first half
    * ``"iv"``  both in second halves
    """

    k: int
    alpha: int
    beta: int
    lam: int
    big_lam: int
    case_label: str

    @property
    def inner_blocks(self) -> range:
        """Indices j of blocks fully contained in (alpha, beta)."""
        return range(self.lam + 1, self.big_lam)

    @property
    def single_block(self) -> bool:
        return self.lam == self.big_lam


def classify_case(k: int, alpha: int, beta: int) -> IntervalDecomposition:
    """Locate alpha and beta in the block tiling and name the case.

    An endpoint sits in the "first half" of block j when its offset t from
    j*k satisfies 2t <= k.  Raises :class:`DomainError` for k < 2 or an
    empty interval.
    """
    if k < 2:
        raise DomainError(f"block length k must be >= 2, got {k}")
    if not (1 <= alpha <= beta):
        raise DomainError(f"need 1 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    lam, big_lam = alpha // k, beta // k
    alpha_first = 2 * (alpha - lam * k) <= k
    beta_first = 2 * (beta - big_lam * k) <= k
    if alpha_first:
        label = "i" if beta_first else "ii"
    else:
        label = "iii" if beta_first else "iv"
    if lam == big_lam and label == "iii":
        # Within one block alpha <= beta forces offset(alpha) <= offset(beta),
        # so "alpha in second half, beta in first half" cannot happen.
        raise DomainError(
            f"inconsistent offsets for alpha={alpha}, beta={beta}, k={k}"
        )
    return IntervalDecomposition(k, alpha, beta, lam, big_lam, label)


def _half_point(k: int, j: int) -> int:
    # floor((j + 1/2) * k) without any float arithmetic
    return ((2 * j + 1) * k) // 2


def half_block_count(cache: PrimeCache, k: int, j: int, half: int) -> int:
    """Number of primes in one half of block j.

    ``half=1`` counts [j*k, (j+1/2)k]; ``half=2`` counts ((j+1/2)k, (j+1)k).
    """
    if half not in (1, 2):
        raise DomainError(f"half must be 1 or 2, got {half}")
    if j < 0:
        raise DomainError(f"block index must be >= 0, got {j}")
    mid = _half_point(k, j)
    lo, hi = cache.pi_many([j * k - 1, mid] if half == 1 else [mid, (j + 1) * k - 1])
    return int(hi - lo)


def half_block_excess(cache: PrimeCache, k: int, j: int) -> int:
    """First-half minus second-half prime count of block j."""
    lo, mid, hi = cache.pi_many([j * k - 1, _half_point(k, j), (j + 1) * k - 1])
    return int(2 * mid - lo - hi)


def _inner_halves(cache: PrimeCache, k: int, js: range):
    """First- and second-half prime counts of the consecutive whole blocks js.

    Yields one pair of arrays per chunk of at most ``_CHUNK_BLOCKS`` blocks,
    which bounds the temporaries of each ``pi_many`` call.  Block j's lower
    edge j*k - 1 is block j-1's upper edge, so n blocks need pi at n + 1
    edges and n half points.
    """
    for lo in range(js.start, js.stop, _CHUNK_BLOCKS):
        j = np.arange(lo, min(lo + _CHUNK_BLOCKS, js.stop) + 1, dtype=np.int64)
        edges = cache.pi_many(j * k - 1)
        mids = cache.pi_many((2 * j[:-1] + 1) * k // 2)
        yield mids - edges[:-1], edges[1:] - mids


def boundary_terms(
    cache: PrimeCache, decomp: IntervalDecomposition
) -> tuple[int, int]:
    """Boundary corrections (M1, M2) for the partial blocks at alpha and beta.

    M1 collects first-half primes of the lead block (from alpha) and the
    final block (to beta); M2 the second-half primes of the same two blocks.
    Which pieces appear depends on the case label.

    Each partial block is cut at its half point clamped to the part inside
    [alpha, beta]: an endpoint in a second half moves the cut to alpha - 1
    (lead block, cases iii/iv) and one in a first half moves it to beta
    (final block, cases i/iii).  So pi is only evaluated at points <= beta.
    """
    k, alpha, beta = decomp.k, decomp.alpha, decomp.beta
    lam, big_lam = decomp.lam, decomp.big_lam
    half_lam = _half_point(k, lam)

    if decomp.single_block:
        lo, cut, hi = cache.pi_many([alpha - 1, min(max(half_lam, alpha - 1), beta), beta])
        return int(cut - lo), int(hi - cut)

    lo, lead_cut, lead_hi, final_lo, final_cut, hi = cache.pi_many([
        alpha - 1, max(half_lam, alpha - 1), (lam + 1) * k - 1,
        big_lam * k - 1, min(_half_point(k, big_lam), beta), beta,
    ])
    m1 = (lead_cut - lo) + (final_cut - final_lo)
    m2 = (lead_hi - lead_cut) + (hi - final_cut)
    return int(m1), int(m2)


def half_counts_formula(
    cache: PrimeCache, decomp: IntervalDecomposition
) -> tuple[int, int]:
    """Per-half prime counts of [alpha, beta] assembled from block pieces.

    Returns (first_half_count, second_half_count).  Boundary blocks come
    from :func:`boundary_terms`.  Below ``_BITMAP_MAX_K`` the inner blocks'
    first halves are counted from the bitmap with a periodic residue mask
    and their second halves are the rest of pi over the span; from it on
    they are summed from a vectorised pi over their edges and half points.
    """
    a1, a2 = boundary_terms(cache, decomp)
    k, js = decomp.k, decomp.inner_blocks
    if k < _BITMAP_MAX_K and js:
        lo, hi = js.start * k, js.stop * k - 1
        first = cache.count_in_classes(lo, hi, k, 2 * np.arange(k) <= k)
        below, total = cache.pi_many([lo - 1, hi])
        return a1 + first, a2 + int(total - below) - first
    for first, second in _inner_halves(cache, k, js):
        a1 += int(first.sum())
        a2 += int(second.sum())
    return a1, a2


def half_counts_direct(
    cache: PrimeCache, k: int, alpha: int, beta: int
) -> tuple[int, int]:
    """Per-half prime counts by direct residue inspection (the oracle)."""
    if k < 2:
        raise DomainError(f"block length k must be >= 2, got {k}")
    if not (1 <= alpha <= beta):
        raise DomainError(f"need 1 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    primes = cache.primes_in(alpha, beta)
    in_first = 2 * (primes % k) <= k
    a1 = int(np.count_nonzero(in_first))
    return a1, int(primes.size) - a1


def excess_formula(cache: PrimeCache, decomp: IntervalDecomposition) -> int:
    """First-half minus second-half count via the block decomposition."""
    a1, a2 = half_counts_formula(cache, decomp)
    return a1 - a2


@dataclass(frozen=True)
class BlockCounts:
    """Full diagnostic breakdown of a decomposed interval."""

    decomp: IntervalDecomposition
    m1: int
    m2: int
    inner_first: dict[int, int]
    inner_second: dict[int, int]
    first_total: int
    second_total: int

    @property
    def excess(self) -> int:
        return self.first_total - self.second_total


def block_counts(cache: PrimeCache, decomp: IntervalDecomposition) -> BlockCounts:
    m1, m2 = boundary_terms(cache, decomp)
    first: list[int] = []
    second: list[int] = []
    for f, s in _inner_halves(cache, decomp.k, decomp.inner_blocks):
        first += f.tolist()
        second += s.tolist()
    return BlockCounts(decomp, m1, m2,
                       dict(zip(decomp.inner_blocks, first)),
                       dict(zip(decomp.inner_blocks, second)),
                       m1 + sum(first), m2 + sum(second))


def block_rows(cache: PrimeCache, decomp: IntervalDecomposition) -> list[dict]:
    """Per-block rows (j, first, second, excess) for tabular output."""
    rows: list[dict] = []
    j0 = decomp.inner_blocks.start
    for first, second in _inner_halves(cache, decomp.k, decomp.inner_blocks):
        rows += [{"block": j, "first": f, "second": s, "excess": f - s}
                 for j, f, s in zip(range(j0, j0 + first.size), first.tolist(),
                                    second.tolist())]
        j0 += first.size
    return rows
