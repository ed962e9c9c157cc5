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

# Above this many pairs the value-partitioned counting path is preferred
# over materializing one big hash set.
_STREAM_PAIR_THRESHOLD = 1 << 27

# The chunked counter works on A and B shifted to minimum 0, where every sum
# lies in [0, span(A) + span(B)] and every search bound x - a in
# [-span(A), span(A) + span(B) + 1]; both fit int64 while the summed spans
# stay below this.
_INT64_SAFE_SPAN = (1 << 63) - 1


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


def sumset_size(A: IntegerSet, B: IntegerSet, *, method: str = "auto",
                chunk_elements: int = 1 << 24) -> int:
    """Exact number of distinct pairwise sums.

    ``method`` selects the strategy:

    * ``"hash"``    - one big set; memory proportional to |A+B|.
    * ``"stream"``  - value-partitioned counting with bounded memory
      (``chunk_elements`` sums per chunk); meant for pair counts around
      1e9 where a hash set would not fit.
    * ``"auto"``    - hash below ~1.3e8 pairs, stream above.

    All strategies return identical values.
    """
    if method not in ("auto", "hash", "stream"):
        raise ValueError(f"unknown method {method!r}")
    pairs = len(A) * len(B)
    if method == "hash" or (method == "auto" and pairs < _STREAM_PAIR_THRESHOLD):
        ae = A.elements
        be = B.elements
        return len({a + b for a in ae for b in be})
    if (A.max - A.min) + (B.max - B.min) >= _INT64_SAFE_SPAN:
        return _sumset_size_merged(A, B)
    return _sumset_size_chunked(A, B, chunk_elements)


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


def _pairs_below(a: np.ndarray, b: np.ndarray, x: int, symmetric: bool) -> int:
    # Number of admissible pairs with a_i + b_j < x; for the symmetric case
    # only j >= i counts so A+A work is halved.
    idx = np.searchsorted(b, x - a, side="left")
    if symmetric:
        idx = np.maximum(idx - np.arange(len(a)), 0)
    return int(idx.sum())


def _sumset_size_chunked(A: IntegerSet, B: IntegerSet, chunk_elements: int) -> int:
    """Partition the sum-value range into chunks of at most ``chunk_elements``
    pairs each (binary search on the pair-counting function), then count
    distinct sums per chunk with a vectorized gather + unique."""
    # |A+B| is translation invariant: count (A - min A) + (B - min B)
    a = np.array([x - A.min for x in A.elements], dtype=np.int64)
    b = np.array([x - B.min for x in B.elements], dtype=np.int64)
    symmetric = A.elements == B.elements
    n = len(a)
    rows = np.arange(n)

    lo = int(a[0] + b[0])
    top = int(a[-1]) + int(b[-1])
    done_below = _pairs_below(a, b, lo, symmetric)  # == 0
    total = 0
    while lo <= top:
        # Largest hi in (lo, top+1] whose chunk [lo, hi) holds few enough pairs.
        hi_lo, hi_hi = lo + 1, top + 1
        while hi_lo < hi_hi:
            mid = (hi_lo + hi_hi + 1) // 2
            if _pairs_below(a, b, mid, symmetric) - done_below <= chunk_elements:
                hi_lo = mid
            else:
                hi_hi = mid - 1
        hi = hi_lo
        starts = np.searchsorted(b, lo - a, side="left")
        stops = np.searchsorted(b, hi - a, side="left")
        if symmetric:
            starts = np.maximum(starts, rows)
        lens = np.maximum(stops - starts, 0)
        m = int(lens.sum())
        if m:
            nz = lens > 0
            counts = lens[nz]
            ends = np.cumsum(counts)
            row_of = np.repeat(np.arange(len(counts)), counts)
            offset = np.arange(m) - np.repeat(ends - counts, counts)
            sums = a[nz][row_of] + b[starts[nz][row_of] + offset]
            total += len(np.unique(sums))
        done_below += m
        lo = hi
    return total


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
