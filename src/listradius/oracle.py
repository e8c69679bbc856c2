"""Exact small-scale combinatorial oracles.

Exact integer or rational computations: Chebyshev and average radii of
explicit word sets, joint types and their weight marginals, and the
average-radius functional on types.  The one float routine is the region
scan behind the list-3 maximizer monotonicity, and the only one that
imports numpy.  Codewords are stored as integers whose most significant
bit is the first coordinate, so integer order coincides with lexicographic
order of the 0/1 strings.  The radius searches run over all 2^n centers at
once, as 2^n-bit integers whose bit c stands for center c.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .errors import DomainError, SizeLimitError, check_list_size

__all__ = [
    "BinaryCode",
    "JointType",
    "avg_joint_type",
    "avg_radius_of_type",
    "average_radius",
    "bernoulli_mixture_type",
    "chebyshev_radius",
    "joint_type",
    "load_code",
    "tau_list",
    "verify_monotonicity_region",
    "weight_marginal_exact",
]

MAX_EXHAUSTIVE_N = 24
MAX_AVG_TYPE_SIZE = 14
MAX_AVG_TYPE_L = 5
# Cap on the bit operations of one radius test: |C| words, each updating
# min(k, |C| - k + 1) levels of 2^n-bit masks when k words must share a ball
MAX_COVER_BITS = 1 << 32
# Largest code whose pairwise distances the radius search reads for its
# lowest radius
MAX_PAIRWISE_WORDS = 256
REGION_STEP = 1e-3
# a1 rows per array of the region scan: one array over all 167 130 points
# raises the peak RSS of ``verify`` by 7.6 to 10.6 MB, 64 rows by 1.4 MB
REGION_BLOCK_ROWS = 16


def _column_masks(words, n):
    """Per coordinate, the bitmask of the indices of the words holding a
    one; a leading zero row gives n masks of 0 for no words."""
    rows = (format(w, f"0{n}b") for w in reversed(words))  # bit k is word k
    return [int("".join(col), 2) for col in zip("0" * n, *rows)][::-1]


def _validate_words(words, n):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"blocklength must be a positive integer, got {n}")
    for w in words:
        if not isinstance(w, int):
            raise DomainError(f"word {w!r} is not an integer")
        if not 0 <= w < (1 << n):
            raise DomainError(f"word {w} does not fit in {n} coordinates")


# Per word over the low 4 coordinates, the 16-bit masks of the centers
# within distance t of it, for t = -1 .. 4.
_LOW_BALLS = [
    [sum(1 << c for c in range(16) if (c ^ w).bit_count() <= t) for t in range(-1, 5)]
    for w in range(16)
]


def _ball_mask(n, r, w):
    """The 2^n-bit mask of the centers within distance r of the word w.

    Built by doubling from the balls over the low min(n, 4) coordinates,
    which the table holds: over the low m + 1 bits, the ball of radius t is
    the ball over m bits of radius t on the half where bit m of the center
    agrees with w, and of radius t - 1 on the other half.  Below 4
    coordinates, a table ball cut to the centers under 2^n is the ball over
    n coordinates, since those centers and w have no higher bits."""
    low = min(n, 4)
    row, keep = _LOW_BALLS[w & 15], (1 << (1 << low)) - 1
    # over the low coordinates, radii r - n + low .. r
    balls = [row[min(max(t, -1), low) + 1] & keep for t in range(r - n + low, r + 1)]
    for m in range(low, n):
        s = 1 << m
        if w >> m & 1:
            balls = [near | far << s for near, far in zip(balls, balls[1:])]
        else:
            balls = [far | near << s for near, far in zip(balls, balls[1:])]
    return balls[0]


def _covers(words, n, r, k):
    """Whether some center lies within distance r of at least k of the words.

    ``at_least[j]`` is the mask of the centers within r of at least j of the
    words seen so far; once fewer words remain than a level lacks to reach
    k, that level is dropped.  An empty lowest live level ends the scan, and
    after the last word that level is k itself.
    """
    m = len(words)
    at_least = [(1 << (1 << n)) - 1] + [0] * k
    for i, w in enumerate(words):
        ball = _ball_mask(n, r, w)
        dead = k - m + i  # the highest level that can no longer reach k
        for j in range(min(k, i + 1), max(dead, 0), -1):
            at_least[j] |= at_least[j - 1] & ball
        if dead >= 0:
            at_least[dead] = 0
            if not at_least[dead + 1]:
                return False
    return True


def _cover_radius(words, n, k):
    """Least radius r at which some center lies within r of at least k of
    the distinct words, tested upwards from a lower bound; radius n, which
    every center attains, is not tested.

    In a best k-subset each word has its k - 1 partners within 2r, so at
    least k words have their k-th nearest word, itself counted first,
    within 2r: the search starts at half the k-th smallest such distance.
    These distances take |C|^2 steps.  At k = |C| the k-th nearest word is
    the farthest, so the start is half the diameter, over the |C|(|C|-1)/2
    pairs.  Above MAX_PAIRWISE_WORDS words the search starts at half the
    first word's largest distance for k = |C|, and at 0 otherwise."""
    m = len(words)
    work = m * min(k, m - k + 1) << n
    if work > MAX_COVER_BITS:
        raise SizeLimitError(
            f"radius search capped at |C| min(k, |C| - k + 1) 2^n <= "
            f"{MAX_COVER_BITS}, got {work}"
        )
    lower = 0
    if k == m:
        pairs = (
            itertools.combinations(words, 2) if m <= MAX_PAIRWISE_WORDS
            else ((words[0], b) for b in words)
        )
        lower = max(((a ^ b).bit_count() for a, b in pairs), default=0)
    elif m <= MAX_PAIRWISE_WORDS:
        kth = sorted(sorted((a ^ b).bit_count() for b in words)[k - 1] for a in words)
        lower = kth[k - 1]
    r = (lower + 1) // 2
    while r < n and not _covers(words, n, r, k):
        r += 1
    return r


class _CodeFields(NamedTuple):
    n: int
    words: tuple[int, ...]


class BinaryCode(_CodeFields):
    """Explicit code: distinct length-n words in strictly increasing
    lexicographic order."""

    __slots__ = ()

    def __new__(cls, n: int, words: tuple[int, ...]):
        if not 1 <= n <= MAX_EXHAUSTIVE_N:
            raise SizeLimitError(
                f"blocklength must lie in [1, {MAX_EXHAUSTIVE_N}], got {n}"
            )
        if not words:
            raise DomainError("code must contain at least one word")
        _validate_words(words, n)
        for a, b in zip(words, words[1:]):
            if a >= b:
                raise DomainError("code words must be distinct and sorted")
        return super().__new__(cls, n, words)

    @classmethod
    def from_strings(cls, lines) -> "BinaryCode":
        """Build from 0/1 strings of constant length; sorts on load."""
        cleaned = [ln.strip() for ln in lines if ln.strip()]
        if not cleaned:
            raise DomainError("no code words given")
        n = len(cleaned[0])
        words = []
        for ln in cleaned:
            if len(ln) != n or set(ln) - {"0", "1"}:
                raise DomainError(f"bad code word {ln!r}")
            words.append(int(ln, 2))
        words.sort()
        return cls(n=n, words=tuple(words))

    def shifted(self, x: int) -> "BinaryCode":
        """Translate by XOR with x (a Hamming-space isometry)."""
        return BinaryCode(n=self.n, words=tuple(sorted(w ^ x for w in self.words)))

    @classmethod
    def random(cls, rng, n: int, size: int) -> "BinaryCode":
        if size > 1 << n:
            raise DomainError(f"cannot pick {size} distinct words of length {n}")
        words = rng.sample(range(1 << n), size)
        return cls(n=n, words=tuple(sorted(words)))


def load_code(path) -> BinaryCode:
    """Read a code file: one 0/1 word per line, constant length."""
    with open(path, encoding="ascii") as fh:
        return BinaryCode.from_strings(fh.readlines())


def chebyshev_radius(words, n: int) -> int:
    """Radius of the smallest Hamming ball containing all words, by the
    search of :func:`_cover_radius` over the 2^n centers (n <= 24)."""
    words = list(words)
    if not words:
        raise DomainError("need at least one word")
    _validate_words(words, n)
    if n > MAX_EXHAUSTIVE_N:
        raise SizeLimitError(
            f"exhaustive center search capped at n = {MAX_EXHAUSTIVE_N}, got {n}"
        )
    words = sorted(set(words))
    return _cover_radius(words, n, len(words))


def average_radius(words, n: int) -> Fraction:
    """Minimum over centers of the mean distance to the words (exact).

    The per-coordinate majority vote attains the minimum: each coordinate
    contributes min(#ones, #zeros) mismatches regardless of tie-breaking.
    """
    words = list(words)
    if not words:
        raise DomainError("need at least one word")
    _validate_words(words, n)
    m = len(words)
    ones = [col.bit_count() for col in _column_masks(words, n)]
    return Fraction(sum(min(c, m - c) for c in ones), m)


def tau_list(code: BinaryCode, L: int) -> Fraction:
    """Exact list-L decoding radius of an explicit code:
    (min radius over all (L+1)-subsets minus 1) / n.

    That minimum is the least r at which some center lies within r of L + 1
    words (:func:`_cover_radius`), so each radius is tested by one scan of
    the centers, not one per subset, and each word's ball is built once per
    radius."""
    check_list_size(L)
    if len(code.words) < L + 1:
        raise DomainError(f"code needs at least {L + 1} words")
    return Fraction(_cover_radius(code.words, code.n, L + 1) - 1, code.n)


class _TypeFields(NamedTuple):
    L: int
    counts: tuple[int, ...]
    den: int


class JointType(_TypeFields):
    """Probability distribution on the 2^L column patterns of an L-word
    stack, exact: pattern v has probability counts[v] / den.  Pattern v is
    indexed as an integer whose bit i is the i-th word's value, so popcount
    gives the pattern weight."""

    __slots__ = ()

    def __new__(cls, L: int, counts: tuple[int, ...], den: int):
        if not isinstance(L, int) or L < 0:
            raise DomainError(f"type list size must be a nonnegative integer, got {L}")
        if len(counts) != 1 << L:
            raise DomainError("type must have 2^L entries")
        if any(c < 0 for c in counts):
            raise DomainError("type entries must be nonnegative")
        if den <= 0 or sum(counts) != den:
            raise DomainError("type entries must sum to 1 exactly")
        return super().__new__(cls, L, tuple(counts), den)

    def weight_marginal(self) -> tuple[Fraction, ...]:
        out = [0] * (self.L + 1)
        for v, c in enumerate(self.counts):
            out[v.bit_count()] += c
        return tuple(Fraction(c, self.den) for c in out)

    def sup_distance(self, other: "JointType") -> Fraction:
        if other.L != self.L:
            raise DomainError("types must share the same L")
        gap = max(
            abs(a * other.den - b * self.den) for a, b in zip(self.counts, other.counts)
        )
        return Fraction(gap, self.den * other.den)


def joint_type(words, n: int) -> JointType:
    """Empirical column-pattern distribution of an ordered word list.

    The list must be in nondecreasing lexicographic order (repeats allowed
    for the multiset variant)."""
    words = list(words)
    L = len(words)
    _validate_words(words, n)
    for a, b in zip(words, words[1:]):
        if a > b:
            raise DomainError("words must be given in lexicographic order")
    counts = [0] * (1 << L)
    for v in _column_masks(words, n):
        counts[v] += 1
    return JointType(L, counts, n)


def _check_avg_type_limits(code: BinaryCode, L: int):
    check_list_size(L)
    if len(code.words) < L:
        raise DomainError(f"code needs at least {L} words")
    if len(code.words) > MAX_AVG_TYPE_SIZE or L > MAX_AVG_TYPE_L:
        raise SizeLimitError(
            f"average joint type capped at |C| <= {MAX_AVG_TYPE_SIZE}, "
            f"L <= {MAX_AVG_TYPE_L}"
        )


def avg_joint_type(code: BinaryCode, L: int) -> JointType:
    """Average of the joint types of all L-subsets over all L! relabelings.

    The relabeling average of a type depends only on its weight marginal
    (each weight class is smeared uniformly over its orbit), so the subset
    enumeration accumulates column-weight counts; the result is symmetric
    by construction.  A column's weight in a subset is the popcount of its
    word-index mask restricted to the subset.
    """
    _check_avg_type_limits(code, L)
    n, M = code.n, len(code.words)
    cols = _column_masks(code.words, n)
    total_w = [0] * (L + 1)
    for sub in itertools.combinations([1 << k for k in range(M)], L):
        mask = sum(sub)
        for col in cols:
            total_w[(col & mask).bit_count()] += 1
    # weight w's mass total_w[w] / (n C(M, L)) over its C(L, w) patterns,
    # over n C(M, L) L!, since 1 / C(L, w) = w! (L - w)! / L!
    per_w = [total_w[w] * factorial(w) * factorial(L - w) for w in range(L + 1)]
    counts = [per_w[v.bit_count()] for v in range(1 << L)]
    return JointType(L, counts, n * comb(M, L) * factorial(L))


def weight_marginal_exact(code: BinaryCode, L: int) -> tuple[Fraction, ...]:
    """Column-hypergeometric weight marginal of the average joint type:
    p_w = (1/n) sum_i C(M_i, w) C(M - M_i, L - w) / C(M, L) with M_i the
    number of ones in column i."""
    _check_avg_type_limits(code, L)
    n, M = code.n, len(code.words)
    out = [0] * (L + 1)
    for col in _column_masks(code.words, n):
        mi = col.bit_count()
        for w in range(L + 1):
            out[w] += comb(mi, w) * comb(M - mi, L - w)
    den = n * comb(M, L)
    return tuple(Fraction(c, den) for c in out)


def bernoulli_mixture_type(code: BinaryCode, L: int) -> JointType:
    """Mixture over columns of product Bernoulli types at the column
    densities, exact.  Defined for any code size (unlike the average type,
    which enumerates L-subsets)."""
    check_list_size(L)
    if L > MAX_AVG_TYPE_L:
        raise SizeLimitError(f"mixture type capped at L <= {MAX_AVG_TYPE_L}")
    n, M = code.n, len(code.words)
    per_w = [0] * (L + 1)
    for col in _column_masks(code.words, n):
        ones = col.bit_count()
        for w in range(L + 1):
            per_w[w] += ones**w * (M - ones) ** (L - w)
    return JointType(L, [per_w[v.bit_count()] for v in range(1 << L)], n * M**L)


def avg_radius_of_type(T: JointType, j: int) -> Fraction:
    """Average-radius functional on a type with j pinned all-zero rows:
    (E[W] - E[max(0, 2W - L - j)]) / (L + j), W the pattern weight."""
    if not isinstance(j, int) or j < 0:
        raise DomainError(f"shift count must be a nonnegative integer, got {j}")
    if T.L + j == 0:
        raise DomainError(f"average radius needs L + j >= 1, got L = {T.L}, j = {j}")
    total = 0
    for v, c in enumerate(T.counts):
        w = v.bit_count()
        total += (w - max(0, 2 * w - T.L - j)) * c
    return Fraction(total, T.den * (T.L + j))


def _region_blocks():
    """The region scan's interior points as flat (a1, a2) arrays, ``rows`` =
    REGION_BLOCK_ROWS values of a1 at a time.  Row a1 is np.arange(step,
    top, step) and then top = a1(1 - a1), with step = REGION_STEP; arange
    fills start + i * step whatever its stop, so each row is a prefix of the
    longest, of length ceil((top - step) / step)."""
    import numpy as np

    step, rows = REGION_STEP, REGION_BLOCK_ROWS
    a1s = np.arange(step, 1.0 - 1e-6, step)
    tops = a1s * (1.0 - a1s)
    counts = np.maximum(np.ceil((tops - step) / step), 0.0)
    grid = np.append(np.arange(step, tops.max(), step), tops.max())
    for lo in range(0, len(a1s), rows):
        k = counts[lo:lo + rows, None]
        cols = np.arange(k.max() + 1)  # float like k: int compares raise peak RSS
        a2 = np.where(cols < k, grid[:len(cols)], tops[lo:lo + rows, None])
        keep = cols <= k
        yield np.broadcast_to(a1s[lo:lo + rows, None], a2.shape)[keep], a2[keep]


def verify_monotonicity_region():
    """Scan the region {0 <= a1 <= 1, 0 <= a2 <= a1(1-a1)} for violations of
    the two-variable log inequality that makes the list-3 maximizer
    monotone:

        -2 log((1-a2)/a1) (a1^2 - a2^2)
            >= (2 a1^2 - 4/3 (a1^3 - a2^3) - 1) log((1-a2)/a2 * a1/(1-a1))

    Interior points are scanned on a grid of step ``REGION_STEP``, which
    keeps off the singular boundaries: a1 runs from REGION_STEP to short of
    1 and a2 from REGION_STEP to a1(1-a1) >= 9.99e-4, so every logarithm
    is finite.  The a2 = 0 slice reduces to 2 a1^2 - 4/3 a1^3 - 1 <= 0 and
    is checked in that form.  Returns the list of violating (a1, a2) pairs
    (expected empty).
    """
    import numpy as np

    violations: list[tuple[float, float]] = []
    for a1, a2 in _region_blocks():
        lhs = -2.0 * np.log2((1.0 - a2) / a1) * (a1 * a1 - a2 * a2)
        bracket = 2.0 * a1 * a1 - (4.0 / 3.0) * (a1**3 - a2**3) - 1.0
        rhs = bracket * np.log2((1.0 - a2) / a2 * a1 / (1.0 - a1))
        bad = lhs < rhs - 1e-12
        violations += zip(a1[bad].tolist(), a2[bad].tolist())

    # a2 = 0 slice, reduced form
    a1s = np.arange(REGION_STEP, 1.0 - 1e-6, REGION_STEP)
    bad = 2.0 * a1s * a1s - (4.0 / 3.0) * a1s**3 - 1.0 > 1e-12
    violations += ((a1, 0.0) for a1 in a1s[bad].tolist())
    return violations
