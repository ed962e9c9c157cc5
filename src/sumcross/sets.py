"""Exact arithmetic on finite integer sets: sumsets, difference sets,
representation counts, additive energies, and the gap-structure predicates
(distinct consecutive differences, convexity, Sidon, doubling).

Everything here is a pure function of immutable inputs and is exact over
arbitrary-precision integers; only fractional-exponent energies go through
floating point.
"""

from __future__ import annotations

import heapq
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "IntegerSet",
    "RepProfile",
    "EnergyValue",
    "SetFileError",
    "sumset",
    "sumset_size",
    "difference_set",
    "representation_profile",
    "energy",
    "is_dcd",
    "is_convex",
    "is_sidon",
    "is_tdcd",
    "consecutive_difference_multiplicity",
    "satisfies_doubling",
    "high_multiplicity_set",
    "level_set_size",
    "load_set",
    "save_set",
]

_INT_LINE = re.compile(r"-?[0-9]+")


class SetFileError(ValueError):
    """Malformed set file; message carries ``path:line``."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers kept as a strictly increasing tuple."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("integer set must contain at least one element")
        for x, y in zip(self.elements, self.elements[1:]):
            if x >= y:
                raise ValueError(
                    f"elements must be strictly increasing, got {x} before {y}"
                )

    @classmethod
    def of(cls, values: Iterable[int]) -> "IntegerSet":
        """Canonicalize an arbitrary iterable: sort and drop duplicates."""
        return cls(tuple(sorted(set(values))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __getitem__(self, index):
        return self.elements[index]

    def __contains__(self, value) -> bool:
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def gaps(self) -> tuple[int, ...]:
        """Consecutive differences, length ``len(self) - 1``."""
        e = self.elements
        return tuple(e[i + 1] - e[i] for i in range(len(e) - 1))


@dataclass(frozen=True)
class RepProfile:
    """Representation counts of a sumset: ``counts[x]`` is the number of
    pairs ``(a, b)`` with ``a + b == x``."""

    counts: dict[int, int]
    source_sizes: tuple[int, int]

    def __post_init__(self):
        ka, kb = self.source_sizes
        if sum(self.counts.values()) != ka * kb:
            raise ValueError("representation counts must sum to |A|*|B|")
        cap = min(ka, kb)
        for x, c in self.counts.items():
            if not 1 <= c <= cap:
                raise ValueError(f"count {c} for {x} outside [1, min(|A|,|B|)]")

    def support(self) -> IntegerSet:
        return IntegerSet(tuple(sorted(self.counts)))

    def max_multiplicity(self) -> int:
        return max(self.counts.values())


@dataclass(frozen=True)
class EnergyValue:
    """An additive energy: sum of representation counts raised to ``alpha``."""

    alpha: float
    value: int | float


def sumset(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """All pairwise sums a + b, deduplicated and sorted."""
    ae = A.elements
    be = B.elements
    return IntegerSet(tuple(sorted({a + b for a in ae for b in be})))


def difference_set(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """All pairwise differences a - b, deduplicated and sorted."""
    ae = A.elements
    be = B.elements
    return IntegerSet(tuple(sorted({a - b for a in ae for b in be})))


def representation_profile(A: IntegerSet, B: IntegerSet) -> RepProfile:
    """Multiplicity of every sum value; totals |A|*|B| by construction."""
    ae = A.elements
    be = B.elements
    counts = Counter()
    for a in ae:
        counts.update(a + b for b in be)
    return RepProfile(dict(counts), (len(ae), len(be)))


def energy(profile: RepProfile, alpha: float) -> EnergyValue:
    """Sum of counts**alpha over the sumset support.

    Integer alpha is evaluated exactly over Python integers; fractional
    alpha uses double precision (relative error <= 1e-12 per term).
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if float(alpha).is_integer():
        e = int(alpha)
        value: int | float = sum(c**e for c in profile.counts.values())
    else:
        value = sum(c**alpha for c in profile.counts.values())
    return EnergyValue(float(alpha), value)


def is_dcd(A: IntegerSet) -> bool:
    """True iff all consecutive differences are pairwise distinct."""
    g = A.gaps()
    return len(set(g)) == len(g)


def is_convex(A: IntegerSet) -> bool:
    """True iff consecutive differences strictly increase."""
    g = A.gaps()
    return all(x < y for x, y in zip(g, g[1:]))


def is_sidon(A: IntegerSet) -> bool:
    """True iff all pairwise sums a_i + a_j (i <= j) are distinct."""
    e = A.elements
    seen = set()
    for i, x in enumerate(e):
        for y in e[i:]:
            s = x + y
            if s in seen:
                return False
            seen.add(s)
    return True


def is_tdcd(A: IntegerSet) -> bool:
    """True iff for every lag d the differences a_i - a_{i-d} are distinct."""
    e = A.elements
    for d in range(1, len(e)):
        seen = set()
        for i in range(d, len(e)):
            diff = e[i] - e[i - d]
            if diff in seen:
                return False
            seen.add(diff)
    return True


def consecutive_difference_multiplicity(A: IntegerSet) -> int:
    """Largest number of positions sharing one consecutive difference."""
    if len(A) < 2:
        raise ValueError("need at least two elements")
    return max(Counter(A.gaps()).values())


def satisfies_doubling(A: IntegerSet) -> bool:
    """True iff the largest consecutive difference is at most twice the smallest."""
    if len(A) < 2:
        raise ValueError("need at least two elements")
    g = A.gaps()
    return max(g) <= 2 * min(g)


def high_multiplicity_set(profile: RepProfile, t: int) -> IntegerSet:
    """Sum values represented at least ``t`` times (the level set of the
    representation function); ``t = 1`` returns the whole sumset."""
    if t < 1:
        raise ValueError("t must be >= 1")
    values = sorted(x for x, c in profile.counts.items() if c >= t)
    if not values:
        raise ValueError(f"no sum value has multiplicity >= {t}")
    return IntegerSet(tuple(values))


def level_set_size(profile: RepProfile, t: int) -> int:
    """Like :func:`high_multiplicity_set` but just the size; 0 is allowed."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return sum(1 for c in profile.counts.values() if c >= t)


# ---------------------------------------------------------------------------
# Exact |A+B| without materializing the sumset.

# Pairs per chunk by default: 64 MiB of pair-sized arrays at 16 bytes a pair.
_CHUNK_ELEMENTS = 1 << 22

# A and B are shifted to minimum 0 and held as uint64, so every sum lies in
# [0, span(A) + span(B)] and every chunk bound in [0, span(A) + span(B) + 1];
# both fit uint64 while the summed spans stay below this.
_UINT64_SPAN_LIMIT = (1 << 64) - 1


def sumset_size(A: IntegerSet, B: IntegerSet, *,
                chunk_elements: int = _CHUNK_ELEMENTS) -> int:
    """Exact number of distinct pairwise sums, without building the sumset.

    The sum values are cut into consecutive ranges (chunks) holding at most
    ``chunk_elements`` pairs each, or the pairs of a single sum value when
    more share it; the sums of each chunk are gathered, sorted and counted.
    Peak memory is 16 bytes per pair of a chunk plus 64 bytes per element
    of A and B.  When A == B only the pairs a_i + a_j with i <= j are
    gathered.  Sets whose summed spans reach 2**64 - 1 are counted by an
    exact merge over Python integers instead.
    """
    if chunk_elements < 1:
        raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
    if (A.max - A.min) + (B.max - B.min) >= _UINT64_SPAN_LIMIT:
        return _sumset_size_merged(A, B)
    # |A+B| is translation invariant: count (A - min A) + (B - min B)
    a = np.array([x - A.min for x in A.elements], dtype=np.uint64)
    b = np.array([x - B.min for x in B.elements], dtype=np.uint64)
    # row i pairs a_i with b_j for first[i] <= j
    if A.elements == B.elements:
        first = np.arange(len(a))
    else:
        first = np.zeros(len(a), dtype=np.intp)
    pairs = len(a) * len(b) - int(first.sum())
    if pairs <= chunk_elements:
        return _distinct_sums(a, b, first, np.full(len(a), len(b)))

    total = 0
    starts = first
    done = int(starts.sum())
    lo, top = 0, int(a[-1]) + int(b[-1])
    while lo <= top:
        # Largest hi in (lo, top + 1] whose chunk [lo, hi) holds at most
        # chunk_elements pairs; lo + 1 when the pairs of sum lo alone exceed it.
        hi_lo, hi_hi = lo + 1, top + 1
        while hi_lo < hi_hi:
            mid = (hi_lo + hi_hi + 1) // 2
            if int(_rows_below(a, b, first, mid).sum()) - done <= chunk_elements:
                hi_lo = mid
            else:
                hi_hi = mid - 1
        stops = _rows_below(a, b, first, hi_lo)
        total += _distinct_sums(a, b, starts, stops)
        starts, done, lo = stops, int(stops.sum()), hi_lo
    return total


def _rows_below(a: np.ndarray, b: np.ndarray, first: np.ndarray,
                x: int) -> np.ndarray:
    """Per row i, the end of the admissible j >= first[i] with a_i + b_j < x."""
    bound = np.uint64(x) - a  # wraps where a_i > x; no b_j is below there
    bound[a > np.uint64(x)] = 0
    return np.maximum(np.searchsorted(b, bound, side="left"), first)


def _distinct_sums(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
                   stops: np.ndarray) -> int:
    """Distinct values among a_i + b_j for starts[i] <= j < stops[i]: gather,
    sort in place, count the steps."""
    counts = stops - starts
    rows = np.flatnonzero(counts)
    if not len(rows):  # a gap between sums each too many for one chunk
        return 0
    counts = counts[rows]
    # flat position k of row r reads b[k - shift[r]], where shift[r] is the
    # number of positions before row r minus starts[r]
    shift = np.cumsum(counts)
    shift -= counts
    shift -= starts[rows]
    index = np.arange(int(counts.sum()))
    index -= np.repeat(shift, counts)
    del shift
    sums = b[index]
    del index
    sums += np.repeat(a[rows], counts)
    sums.sort()
    return 1 + int(np.count_nonzero(sums[1:] != sums[:-1]))


def _sumset_size_merged(A: IntegerSet, B: IntegerSet) -> int:
    # Arbitrary-precision fallback: merge the sorted streams a_i + B and
    # count distinct values on the fly.  Memory O(|A|), no value-size limit.
    be = B.elements
    symmetric = A.elements == B.elements

    def stream(i: int, a: int):
        tail = be[i:] if symmetric else be
        for b in tail:
            yield a + b

    merged = heapq.merge(*(stream(i, a) for i, a in enumerate(A.elements)))
    count = 0
    last = None
    for value in merged:
        if value != last:
            count += 1
            last = value
    return count


# ---------------------------------------------------------------------------
# Set files: one decimal integer per line, blank lines ignored.


def load_set(path) -> IntegerSet:
    """Read a set file; duplicates and non-integer lines are rejected with
    a diagnostic naming the offending line."""
    seen: dict[int, int] = {}
    values: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if not _INT_LINE.fullmatch(text):
                raise SetFileError(path, line_no, f"not a decimal integer: {text!r}")
            value = int(text)
            if value in seen:
                raise SetFileError(
                    path, line_no,
                    f"duplicate value {value} (first on line {seen[value]})")
            seen[value] = line_no
            values.append(value)
    if not values:
        raise SetFileError(path, 0, "file contains no values")
    return IntegerSet.of(values)


def save_set(path, A: IntegerSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for value in A.elements:
            fh.write(f"{value}\n")
