"""Exact arithmetic on finite integer sets: sumsets, difference sets,
representation counts, additive energies, and the gap-structure predicates
(distinct consecutive differences, convexity, Sidon, doubling).

Everything here is a pure function of immutable inputs and is exact over
arbitrary-precision integers; only fractional-exponent energies go through
floating point.

``sumset_size`` and ``representation_profile`` share one chunk loop over
the pair sums (``_each_chunk``): each chunk's sums are gathered and sorted
in a bounded buffer, and only what the caller keeps of them, a count or
the runs of equal sums, outlives the chunk.  ``_sort`` sorts numeric keys
in place, and splits an array of ``_SPLIT_SORT_MIN`` keys or more in two
halves sorted on two threads when the process may run on two CPUs: the
sorted keys, and so every count, are the same either way.
"""

from __future__ import annotations

import io
import operator
import os
import re
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
# The bytes that load_set converts in bulk: ASCII digits, '-', and the
# spaces, tabs and line ends around them.  Any other byte sends the file
# through the line-by-line loop.
_PLAIN_BYTES = b"0123456789- \t\r\n"
# load_set converts a plain file in slices of about this many bytes.
_LOAD_SLICE_BYTES = 1 << 16
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

    @classmethod
    def _canonical(cls, elements: tuple[int, ...]) -> "IntegerSet":
        """The set of ``elements``, a nonempty strictly increasing tuple of
        Python ints already, such as the sums of a profile, kept without
        the constructor's pass over them."""
        result = object.__new__(cls)
        object.__setattr__(result, "elements", elements)
        return result

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


@dataclass(frozen=True, eq=False)
class RepProfile:
    """Representation counts of a sumset, as arrays over its distinct sums
    in increasing order: ``base + offsets[i]`` is the sum of exactly
    ``multiplicities[i]`` pairs (a, b).  ``offsets`` is int64 while the
    sums span less than 2**63 and holds Python ints (object dtype) above.

    :func:`representation_profile` builds a profile from the sorted pair
    sums and hands the constructor its arrays, which it makes read-only;
    no field can be set or deleted.  ``counts`` reads the arrays back as a
    mapping ``{sum: count}``, in increasing order of the sums.  Every
    profile is checked: the counts sum to |A||B| and each lies in
    [1, min(|A|, |B|)].
    """

    base: int
    offsets: np.ndarray
    multiplicities: np.ndarray
    source_sizes: tuple[int, int]

    def __post_init__(self):
        multiplicities = self.multiplicities
        for array in (self.offsets, multiplicities):
            array.setflags(write=False)
        ka, kb = self.source_sizes
        if multiplicities.sum() != ka * kb:
            raise ValueError("representation counts must sum to |A|*|B|")
        cap = min(ka, kb)
        if multiplicities.min() < 1 or multiplicities.max() > cap:
            i = np.flatnonzero((multiplicities < 1) | (multiplicities > cap))[0]
            raise ValueError(f"count {multiplicities[i]} for "
                             f"{self.base + int(self.offsets[i])} outside "
                             "[1, min(|A|,|B|)]")

    @property
    def counts(self) -> Mapping[int, int]:
        """The profile as a read-only mapping ``{sum: count}``, iterated in
        increasing order of the sums."""
        return _Counts(self)

    def locate(self, values: Sequence[int]) -> np.ndarray:
        """Index of each value among the sorted sums; -1 for a value that
        is not a sum."""
        offsets = self.offsets
        wanted = [x - self.base for x in values]
        if offsets.dtype != object:
            # an offset outside int64 is no sum; -1 matches no offset
            wanted = [x if 0 <= x < _INT64_SPAN else -1 for x in wanted]
        wanted = np.array(wanted, dtype=offsets.dtype)
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
        return map(p.base.__add__, p.offsets.tolist())

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
    return IntegerSet._canonical(tuple(-b for b in reversed(B.elements)))


# Values whose span stays below this fit int64 once shifted to start at 0.
_INT64_SPAN = 1 << 63


def _offsets(values: Sequence[int], dtype) -> np.ndarray:
    """values - values[0] as an array of ``dtype``."""
    base = values[0]
    return np.array([x - base for x in values], dtype=dtype)


def _pair_dtype(A: IntegerSet, B: IntegerSet) -> type:
    """int64 when span(A) + span(B) < 2**63, so that every sum of the
    offsets from min A and min B fits, else object (Python ints)."""
    return np.int64 if (A.max - A.min) + (B.max - B.min) < _INT64_SPAN else object


def _pair_offsets(A: IntegerSet, B: IntegerSet) -> tuple[np.ndarray, np.ndarray]:
    """(A - min A, B - min B) as arrays of ``_pair_dtype(A, B)``."""
    dtype = _pair_dtype(A, B)
    return _offsets(A.elements, dtype), _offsets(B.elements, dtype)


def representation_profile(A: IntegerSet, B: IntegerSet) -> RepProfile:
    """Multiplicity of every sum value; totals |A|*|B| by construction.

    The pair sums come from the chunk loop of :func:`sumset_size`: in each
    chunk [lo, hi) the runs of equal sorted keys are the chunk's distinct
    sums (a run's key + lo) and their counts (the run lengths).  The chunks
    cover increasing ranges of sums, so their runs, concatenated, are the
    profile's arrays, the offsets as ``_pair_dtype(A, B)``.  When A == B
    the loop gathers only the pairs i <= j, c(x) of them for the sum x,
    and r(x) = 2 c(x) - [x in 2A], the sums 2a located by one search.
    """
    dtype = _pair_dtype(A, B)

    def chunk_runs(keys: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
        values, counts = _runs(keys)
        return np.add(values, lo, dtype=dtype), counts

    runs = list(_each_chunk(A, B, chunk_runs))
    offsets, multiplicities = map(np.concatenate, zip(*runs))
    if A.elements == B.elements:
        multiplicities *= 2
        doubles = 2 * _offsets(A.elements, dtype)
        multiplicities[np.searchsorted(offsets, doubles)] -= 1
    return RepProfile(A.min + B.min, offsets, multiplicities, (len(A), len(B)))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the nonempty sorted ``keys`` and how often
    each occurs."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(starts, append=len(keys))


def energy(profile: RepProfile, alpha: float) -> EnergyValue:
    """Sum of counts**alpha over the sumset support.

    Integer alpha is evaluated exactly over Python integers.  Fractional
    alpha raises each distinct count c once, by Python's ``pow``, and adds
    the terms h[c] * c**alpha over the histogram h of the counts exactly,
    as integers over one power of two, rounding once in the division: the
    value depends on neither an order of the sums nor the Python version.
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    histogram = profile.multiplicity_histogram()
    distinct = np.flatnonzero(histogram).tolist()
    if float(alpha).is_integer():
        e = int(alpha)
        value: int | float = sum(int(histogram[c]) * c**e for c in distinct)
    else:
        ratios = [pow(c, alpha).as_integer_ratio() for c in distinct]
        scale = max(d for _, d in ratios)
        value = sum(int(histogram[c]) * n * (scale // d)
                    for c, (n, d) in zip(distinct, ratios)) / scale
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
    return IntegerSet._canonical(
        tuple(map(profile.base.__add__, offsets.tolist())))


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
    return sum(_each_chunk(A, B, lambda keys, lo: 1 + int(
        np.count_nonzero(keys[1:] != keys[:-1]))))


def _each_chunk(A: IntegerSet, B: IntegerSet,
                reduce: Callable[[np.ndarray, int], object]) -> Iterator:
    """``reduce(keys, lo)`` for each chunk [lo, hi) of the sums a_i + b_j
    of (A - min A) + (B - min B), in increasing order, over the pairs
    j >= i when A == B and every pair otherwise: ``keys`` holds the
    chunk's sums less lo, gathered and sorted in place by
    :func:`_sorted_keys`.  Each chunk's keys are freed when ``reduce``
    returns, before the next chunk is gathered."""
    # row i pairs a_i with b_j for first[i] <= j
    first = (np.arange(len(A)) if A.elements == B.elements
             else np.zeros(len(A), dtype=np.intp))
    # |A+B| is translation invariant: count (A - min A) + (B - min B)
    wide = (A.max - A.min) + (B.max - B.min) >= _UINT64_SPAN_LIMIT
    dtype = object if wide else np.uint64
    a, b = _offsets(A.elements, dtype), _offsets(B.elements, dtype)
    chunk = max(1, _CHUNK_ELEMENTS // 4) if wide else _CHUNK_ELEMENTS
    starts = first
    for lo, hi, stops in _chunks(a, b, first, chunk):
        yield reduce(_sorted_keys(a, b, starts, stops, lo, hi), lo)
        starts = stops


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


def _sorted_keys(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The sorted keys a_i + b_j - lo for starts[i] <= j < stops[i], every
    sum in [lo, hi): gathered, then sorted in place.  Python-int offsets
    give exact Python-int keys, sorted by a stable sort, whose timsort
    merges the rows, each already in order.  Otherwise the keys are uint32
    when hi - lo <= 2**32, else uint64; each lies in [0, hi - lo), so the
    sum of a_i - lo and b_j, both reduced modulo the key width (a_i - lo
    wraps where a_i < lo), is the key, sorted by :func:`_sort`."""
    key = (object if a.dtype == object
           else np.uint32 if hi - lo <= _UINT32_SPAN else np.uint64)
    sums = _gather((a - a.dtype.type(lo)).astype(key, copy=False),
                   b.astype(key, copy=False), starts, stops)
    if key is object:
        sums.sort(kind="stable")
    else:
        _sort(sums)
    return sums


# Numeric arrays of at least this many keys are sorted in two halves.
# Near it, starting the worker thread costs about what the split saves.
_SPLIT_SORT_MIN = 1 << 18


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sort(keys: np.ndarray) -> None:
    """Sort the 1-D array ``keys`` in place.  Numeric arrays of at least
    ``_SPLIT_SORT_MIN`` keys, in a process that may use two CPUs, are
    partitioned about their middle position, so that no key of the lower
    half exceeds a key of the upper half, and the halves are sorted at
    once, the lower on a second thread: numpy releases the GIL in both
    sorts and allocates nothing per key.  The worker is joined before
    this returns, and its exception, if any, raised here.  Other arrays,
    Python-int (object) keys among them, take one ``sort``."""
    if (len(keys) < _SPLIT_SORT_MIN or keys.dtype == object
            or _usable_cpus() < 2):
        keys.sort()
        return
    # imported here: 6 ms that only a process splitting a sort pays
    from concurrent.futures import ThreadPoolExecutor

    mid = len(keys) // 2
    keys.partition(mid)
    with ThreadPoolExecutor(max_workers=1) as pool:
        lower = pool.submit(keys[:mid].sort)
        keys[mid:].sort()
    lower.result()


# ---------------------------------------------------------------------------
# Set files: one decimal integer per line, blank lines ignored.


def load_set(path) -> IntegerSet:
    """Read a set file; duplicates, non-integer lines and bytes that are not
    UTF-8 are rejected with a diagnostic naming the offending line.

    The file's bytes are read once.  If :func:`_plain_values` reads them as
    integers, and no two are equal, their sorted list is the set.  Any
    other file, valid or not, goes through :func:`_load_lines`, which
    accepts the same files and names the first bad line of the others."""
    with open(path, "rb") as fh:
        data = fh.read()
    values = _plain_values(data)
    if values and all(map(operator.lt, values, islice(values, 1, None))):
        return IntegerSet._canonical(tuple(values))
    return _load_lines(path, data)


def _plain_values(data: bytes) -> list[int] | None:
    """The sorted values of the nonblank lines of ``data``, or None unless
    every byte is an ASCII digit, ``-``, space, tab, ``\\r`` or ``\\n`` and
    ``int`` converts every nonblank line.  On those bytes ``int`` takes
    exactly what :func:`_load_lines` takes from a line: a decimal integer
    (optional leading ``-``) within the digit limit, padded by spaces and
    tabs.  It refuses ``-``, ``--1``, ``1-2``, two values on one line and
    a line of blanks only, so a slice it refuses is retried with stripped
    lines.  ``data`` is converted in slices that end at a ``\\n`` (a file
    without one is one slice): only one slice's lines are bytes at a time."""
    values: list[int] = []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _LOAD_SLICE_BYTES) + 1 or len(data)
        chunk = data[start:stop]
        if chunk.translate(None, _PLAIN_BYTES):
            return None
        n, lines = len(values), chunk.splitlines()
        try:
            values += map(int, filter(None, lines))
        except ValueError:  # a line of spaces and tabs only, perhaps
            del values[n:]
            try:
                values += map(int, filter(None, map(bytes.strip, lines)))
            except ValueError:
                return None
        start = stop
    values.sort()
    return values


def _load_lines(path, data: bytes) -> IntegerSet:
    """The set in ``data``, the bytes of the set file at ``path``, read line
    by line as text mode reads the file: UTF-8 with undecodable bytes
    escaped, lines ending at \\n, \\r\\n or \\r.  The first line that is
    a duplicate, is no decimal integer or holds an undecodable byte raises
    a SetFileError naming it.  The set is the sorted keys of the map from
    each value to its first line."""
    seen: dict[int, int] = {}
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                          errors="surrogateescape") as fh:
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
    if not seen:
        raise SetFileError(path, 0, "file contains no values")
    return IntegerSet._canonical(tuple(sorted(seen)))


def save_set(path, A: IntegerSet) -> None:
    """One value per line, creating the parent directory if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for value in A.elements:
            fh.write(f"{value}\n")
