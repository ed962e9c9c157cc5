"""Exact arithmetic on finite integer sets: sumsets, difference sets,
representation counts, additive energies, and the gap-structure predicates
(distinct consecutive differences, convexity, Sidon, doubling).

Everything here is a pure function of immutable inputs and is exact over
arbitrary-precision integers; only fractional-exponent energies go through
floating point.

The representation profile comes from one stable sort of the pair sums.
That sort is made here only: ``arcgraph`` takes its order with the profile
(``_profile_and_order``) to rank the pairs for the sum graph.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
# An undecodable byte x, read with errors="surrogateescape", is U+DC00 + x.
_RAW_BYTE = re.compile("[\udc80-\udcff]")


class SetFileError(ValueError):
    """Malformed set file; message carries ``path:line``."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers kept as a strictly increasing tuple of
    Python ints, each element's ``operator.index``: a float raises."""

    elements: tuple[int, ...]

    def __post_init__(self):
        e = tuple(map(operator.index, self.elements))
        object.__setattr__(self, "elements", e)
        if not e:
            raise ValueError("integer set must contain at least one element")
        if not all(map(operator.lt, e, e[1:])):
            x, y = next((x, y) for x, y in zip(e, e[1:]) if x >= y)
            raise ValueError(
                f"elements must be strictly increasing, got {x} before {y}")

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
        return tuple(map(operator.sub, e[1:], e))


class RepProfile:
    """Representation counts of a sumset, as arrays over its distinct sums
    in increasing order: ``base + offsets[i]`` is the sum of exactly
    ``multiplicities[i]`` pairs (a, b).  ``offsets`` is int64 while the
    sums span less than 2**63 and holds Python ints (object dtype) above.

    :func:`representation_profile` builds a profile from the sort of the
    pair sums and hands the constructor its arrays; ``appearance`` ranks
    the sums by first appearance (its argsort is that order).  ``counts``
    reads the arrays back as a mapping ``{sum: count}``, in that order.
    Every profile is checked: the counts sum to |A||B| and each lies in
    [1, min(|A|, |B|)].
    """

    __slots__ = ("base", "offsets", "multiplicities", "source_sizes",
                 "_appearance")

    def __init__(self, base: int, offsets: np.ndarray,
                 multiplicities: np.ndarray, source_sizes: tuple[int, int],
                 appearance: np.ndarray):
        for array in (offsets, multiplicities, appearance):
            array.setflags(write=False)
        fields = dict(base=base, offsets=offsets, multiplicities=multiplicities,
                      source_sizes=tuple(source_sizes), _appearance=appearance)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        ka, kb = self.source_sizes
        if multiplicities.sum() != ka * kb:
            raise ValueError("representation counts must sum to |A|*|B|")
        cap = min(ka, kb)
        bad = (multiplicities < 1) | (multiplicities > cap)
        if bad.any():
            bad = np.flatnonzero(bad)
            i = bad[appearance[bad].argmin()]
            raise ValueError(f"count {multiplicities[i]} for "
                             f"{base + int(offsets[i])} outside "
                             "[1, min(|A|,|B|)]")

    def __setattr__(self, name, value):
        raise AttributeError(f"RepProfile is read-only: cannot set {name}")

    @property
    def counts(self) -> Mapping[int, int]:
        """The profile as a read-only mapping ``{sum: count}``, iterated in
        order of first appearance."""
        return _Counts(self)

    def first_seen(self) -> np.ndarray:
        """Indices into the sorted sums, in order of first appearance."""
        return np.argsort(self._appearance)

    def locate(self, values: Sequence[int]) -> np.ndarray:
        """Index of each value among the sorted sums; -1 for a value that
        is not a sum."""
        offsets = self.offsets
        wanted = [x - self.base for x in values]
        if offsets.dtype != object:
            # an offset outside int64 is no sum; -1 matches no offset
            wanted = [x if 0 <= x < _INT64_SPAN else -1 for x in wanted]
        wanted = np.array(wanted, dtype=offsets.dtype)
        if not len(offsets):
            return np.full(len(wanted), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(offsets, wanted), len(offsets) - 1)
        return np.where(offsets[at] == wanted, at, -1)

    def multiplicity_histogram(self) -> np.ndarray:
        """Entry c is the number of sums with exactly c representations."""
        return np.bincount(self.multiplicities)

    def max_multiplicity(self) -> int:
        return int(self.multiplicities.max())


class _Counts(Mapping):
    """A read-only view of a :class:`RepProfile` as ``{sum: count}``."""

    __slots__ = ("_profile",)

    def __init__(self, profile: RepProfile):
        self._profile = profile

    def __len__(self) -> int:
        return len(self._profile.offsets)

    def __iter__(self) -> Iterator[int]:
        p = self._profile
        return map(p.base.__add__, p.offsets[p.first_seen()].tolist())

    def __getitem__(self, x) -> int:
        try:
            x = operator.index(x)
        except TypeError:
            raise KeyError(x) from None
        i = int(self._profile.locate([x])[0])
        if i < 0:
            raise KeyError(x)
        return int(self._profile.multiplicities[i])


@dataclass(frozen=True)
class EnergyValue:
    """An additive energy: sum of representation counts raised to ``alpha``."""

    alpha: float
    value: int | float


def sumset(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """All pairwise sums a + b, deduplicated and sorted: the sums of the
    representation profile."""
    return high_multiplicity_set(representation_profile(A, B), 1)


def difference_set(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """All pairwise differences a - b, deduplicated and sorted: A + (-B)."""
    return sumset(A, _negated(B))


def _negated(B: IntegerSet) -> IntegerSet:
    """-B = {-b : b in B}."""
    return IntegerSet(tuple(-b for b in reversed(B.elements)))


# Values whose span stays below this fit int64 once shifted to start at 0.
_INT64_SPAN = 1 << 63


def _offsets(values: Sequence[int], dtype) -> np.ndarray:
    """values - values[0] as an array of ``dtype``."""
    base = values[0]
    return np.array([x - base for x in values], dtype=dtype)


def _pair_offsets(A: IntegerSet, B: IntegerSet) -> tuple[np.ndarray, np.ndarray]:
    """(A - min A, B - min B) in int64 when span(A) + span(B) < 2**63, so
    that every pair sum fits, else as Python ints in object arrays."""
    dtype = np.int64 if (A.max - A.min) + (B.max - B.min) < _INT64_SPAN else object
    return _offsets(A.elements, dtype), _offsets(B.elements, dtype)


def _profile_and_order(A: IntegerSet,
                       B: IntegerSet) -> tuple[RepProfile, np.ndarray]:
    """The representation profile of (A, B) and the order behind it: one
    stable sort of the pair sums a_i + b_j, flattened as i*|B| + j, a outer
    and b inner, so the first pair of each run of equal sums is the sum's
    first appearance.  ``arcgraph`` ranks the pairs from the order for the
    sum graph; :func:`representation_profile` drops it.

    When (span(A) + span(B) + 1) * |A||B| fits int64, an in-place sort of
    the keys sum * |A||B| + i*|B| + j does the same, about 3x as fast."""
    a, b = _pair_offsets(A, B)
    sums = (a[:, None] + b[None, :]).ravel()
    n = len(sums)
    if (A.max - A.min + B.max - B.min + 1) * n <= _INT64_SPAN:
        sums *= n
        sums += np.arange(n)
        sums.sort()
        order = sums % n
        sums //= n
    else:
        order = np.argsort(sums, kind="stable")
        sums = sums[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sums[1:], sums[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    values = sums[starts]
    del sums
    profile = RepProfile(A.min + B.min, values, np.diff(starts, append=n),
                         (len(A), len(B)), order[starts])
    return profile, order


def representation_profile(A: IntegerSet, B: IntegerSet) -> RepProfile:
    """Multiplicity of every sum value; totals |A|*|B| by construction.

    The profile keeps the arrays of one stable sort of the pair sums: the
    distinct sums, their counts and each one's first pair.  The sums appear
    in ``counts`` in the order in which they first occur as a runs over A
    and, inside, b over B.
    """
    return _profile_and_order(A, B)[0]


def energy(profile: RepProfile, alpha: float) -> EnergyValue:
    """Sum of counts**alpha over the sumset support.

    Integer alpha is evaluated exactly over Python integers; fractional
    alpha uses double precision (relative error <= 1e-12 per term), with
    the terms added one by one in the order of ``profile.counts``: the
    builtin ``sum`` compensates float rounding from Python 3.12 on, which
    would make the value depend on the interpreter.  Each distinct count
    is raised to alpha once, by Python's ``pow``; ``np.cumsum`` adds the
    terms strictly left to right.
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    histogram = profile.multiplicity_histogram()
    distinct = np.flatnonzero(histogram).tolist()
    if float(alpha).is_integer():
        e = int(alpha)
        value: int | float = sum(int(histogram[c]) * c**e for c in distinct)
    else:
        powers = np.zeros(len(histogram))
        powers[distinct] = [pow(c, alpha) for c in distinct]
        terms = powers[profile.multiplicities[profile.first_seen()]]
        value = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
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
    """True iff all pairwise sums a_i + a_j (i <= j) are distinct, that is
    iff |A+A| = k(k+1)/2 for k = |A|."""
    k = len(A)
    return sumset_size(A, A) == k * (k + 1) // 2


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
    offsets = profile.offsets[profile.multiplicities >= t]
    if not len(offsets):
        raise ValueError(f"no sum value has multiplicity >= {t}")
    return IntegerSet(tuple(map(profile.base.__add__, offsets.tolist())))


def level_set_size(profile: RepProfile, t: int) -> int:
    """Like :func:`high_multiplicity_set` but just the size; 0 is allowed."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return int(np.count_nonzero(profile.multiplicities >= t))


# ---------------------------------------------------------------------------
# Exact |A+B| without materializing the sumset.

# Most pairs per chunk: 64 MiB of pair-sized arrays at 16 bytes a pair.
_CHUNK_ELEMENTS = 1 << 22

# A and B are shifted to minimum 0, so every sum lies in [0, span(A) +
# span(B)] and every chunk bound in [0, span(A) + span(B) + 1]; both fit
# uint64 while the summed spans stay below this, else A and B are Python ints.
_UINT64_SPAN_LIMIT = (1 << 64) - 1

# A chunk [lo, hi) no wider than this is counted as uint32 offsets from lo.
_UINT32_SPAN = 1 << 32


def sumset_size(A: IntegerSet, B: IntegerSet) -> int:
    """Exact number of distinct pairwise sums, without building the sumset.

    The sum values are cut into ranges (chunks), each starting at a sum
    and holding at most ``_CHUNK_ELEMENTS`` pairs, or the pairs of a single
    sum value when more share it; a probe loop sizes each chunk to about
    7/8 of that from the pairs the last probe held, and a count that fits
    one chunk makes no probe.  The sums of each chunk are gathered, sorted
    and counted as offsets from the chunk's lower end, in uint32 when the
    chunk spans at most 2**32 values and in uint64 otherwise.  Peak memory
    is 16 bytes per pair of a chunk plus 64 bytes per element of A and B.
    When A == B only the pairs a_i + a_j with i <= j are gathered.  Sets
    whose summed spans reach 2**64 - 1 are held as Python ints (object
    arrays) and counted the same way, with Python-int keys in chunks of a
    quarter as many pairs: 64 bytes per pair of a chunk plus 160 per
    element for values below 2**88.
    """
    # |A+B| is translation invariant: count (A - min A) + (B - min B)
    wide = (A.max - A.min) + (B.max - B.min) >= _UINT64_SPAN_LIMIT
    dtype = object if wide else np.uint64
    a, b = _offsets(A.elements, dtype), _offsets(B.elements, dtype)
    # row i pairs a_i with b_j for first[i] <= j
    if A.elements == B.elements:
        first = np.arange(len(a))
    else:
        first = np.zeros(len(a), dtype=np.intp)
    chunk = max(1, _CHUNK_ELEMENTS // 4) if wide else _CHUNK_ELEMENTS
    total = 0
    starts = first
    for lo, hi, stops in _chunks(a, b, first, chunk):
        total += _distinct_sums(a, b, starts, stops, lo, hi)
        starts = stops
    return total


def _rows_below(a: np.ndarray, b: np.ndarray, first: np.ndarray,
                x: int) -> np.ndarray:
    """Per row i, the end of the admissible j >= first[i] with a_i + b_j < x."""
    x = a.dtype.type(x)
    bound = x - a  # wraps in uint64 where a_i > x; no b_j is below there
    bound[a > x] = 0
    return np.maximum(np.searchsorted(b, bound, side="left"), first)


def _chunks(a: np.ndarray, b: np.ndarray, first: np.ndarray,
            chunk_elements: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The chunks [lo, hi) of sum values, in order, as (lo, hi, stops) with
    ``stops = _rows_below(a, b, first, hi)``.  Each lo is an admissible
    sum, the smallest at or above the previous hi, and each chunk holds at
    most ``chunk_elements`` admissible pairs, or the pairs of the single
    sum lo when more share it.

    One probe counts the pairs of [lo, lo + width), clipped to one past the
    largest sum; the next width is the probe's width scaled by
    (7/8 ``chunk_elements`` + 1) / (pairs + 1), aiming at a chunk 7/8 full.
    A probe holding too many pairs is retried at that width, or at half its
    own width if that is smaller, unless it is one value wide.  The first
    probe covers every sum.
    """
    end = int(a[-1]) + int(b[-1]) + 1
    fill = chunk_elements * 7 // 8 + 1
    full = np.full(len(a), len(b))
    # done: the admissible pairs below lo, plus sum(first)
    lo, width, done = 0, end, int(first.sum())
    while True:
        hi = min(end, lo + width)
        stops = _rows_below(a, b, first, hi) if hi < end else full
        pairs = int(stops.sum()) - done
        width = max(1, (hi - lo) * fill // (pairs + 1))
        if pairs > chunk_elements and hi - lo > 1:
            width = min(width, (hi - lo) // 2)
            continue
        yield lo, hi, stops
        left = stops < len(b)  # rows with pairs at or above hi
        if not left.any():
            return
        lo = int((a[left] + b[stops[left]]).min())
        done += pairs


def _gather(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
            stops: np.ndarray) -> np.ndarray:
    """The sums a_i + b_j for starts[i] <= j < stops[i], row by row."""
    counts = stops - starts
    rows = np.flatnonzero(counts)
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
    return sums


def _distinct_sums(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
                   stops: np.ndarray, lo: int, hi: int) -> int:
    """Distinct values among a_i + b_j for starts[i] <= j < stops[i], all of
    them in [lo, hi): gather the keys a_i + b_j - lo, sort in place, count
    the steps.  Python-int offsets give exact Python-int keys.  Otherwise
    the keys are uint32 when hi - lo <= 2**32, else uint64; each lies in
    [0, hi - lo), so the sum of a_i - lo and b_j, both reduced modulo the
    key width (a_i - lo wraps where a_i < lo), is the key."""
    key = (object if a.dtype == object
           else np.uint32 if hi - lo <= _UINT32_SPAN else np.uint64)
    sums = _gather((a - a.dtype.type(lo)).astype(key, copy=False),
                   b.astype(key, copy=False), starts, stops)
    sums.sort()
    return 1 + int(np.count_nonzero(sums[1:] != sums[:-1]))


# ---------------------------------------------------------------------------
# Set files: one decimal integer per line, blank lines ignored.


def load_set(path) -> IntegerSet:
    """Read a set file; duplicates, non-integer lines and bytes that are not
    UTF-8 are rejected with a diagnostic naming the offending line."""
    seen: dict[int, int] = {}
    values: list[int] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if not _INT_LINE.fullmatch(text):
                byte = _RAW_BYTE.search(text)
                if byte:
                    raise SetFileError(path, line_no, "not UTF-8 text: byte "
                                       f"0x{ord(byte[0]) - 0xdc00:02x}")
                raise SetFileError(path, line_no, f"not a decimal integer: {text!r}")
            try:
                value = int(text)
            except ValueError:  # a decimal integer past int()'s digit limit
                limit = sys.get_int_max_str_digits()
                raise SetFileError(path, line_no, f"more than {limit} digits") from None
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
    """One value per line, creating the parent directory if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for value in A.elements:
            fh.write(f"{value}\n")
