"""Geometric graphs drawn on a line: vertices are points on the x axis and
every edge is an upper semicircular arc.  Two arcs cross iff their endpoint
intervals strictly interleave; they intersect iff the open intervals overlap
at all (interleaving or nesting) and the edges share no vertex.

The sum graph's vertices are the distinct pair sums; ``build_sum_graph``
ranks the pairs through a table over the span of the sums when they are
dense, and by one sort of the sums, made here, otherwise.  Only the order
of the points matters for any count, so a graph keeps no coordinates.  Edges
are stored as int64 columns and every count on a graph is computed with
numpy in O(m log m), without a Python loop over edges: the merge pass.  The
translate-pair sweep counts from the sets instead, one pair of translates
at a time: the arc pairs of A against the differences of B below span(A),
O(|A|^2 log |B|) after O(|B|^2) to gather those differences, or O(|A|^2 +
span(A)) by histograms when span(A) is small against them.
``crossing_stats`` and ``max_translate_pair_crossings`` always sweep.  A
graph made by ``build_sum_graph`` remembers its sets, and its crossings and
intersections come from the sweep when that is the smaller job, from the
merge pass otherwise; the merge pass counts every other graph, such as a
subgraph or a copy of a sum graph.  ``has_parallel_edges`` reads A alone on
a sum graph whose A has distinct consecutive differences.  The 1-D sorts
of the sum graph's keys, the edge keys and the sweep's differences and
bounds go through ``sets._sort``, which splits a large array over two
threads; the row sorts of the merge pass do not.

Each counter's peak memory, in bytes per edge and per vertex, is listed
in the README and held to that bound by ``test_peak_memory``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .sets import (_INT64_SPAN, IntegerSet, RepProfile, _gather, _pair_offsets,
                   _runs, _sort, is_dcd, representation_profile)

__all__ = [
    "ArcGraph",
    "CrossingStats",
    "build_sum_graph",
    "count_crossings_fast",
    "count_intersections",
    "max_translate_pair_crossings",
    "degree_sequence",
    "has_parallel_edges",
    "crossing_stats",
]

# Arc pairs per block of the translate-pair sweep, 32 bytes each at the
# peak, unless there are more distinct deltas.
_ARC_PAIR_BLOCK = 1 << 18

# _strict_inversions compares every pair directly inside blocks of this
# many (a power of two) and merges from there up.
_BASE_BLOCK = 32


@dataclass(frozen=True, eq=False)
class ArcGraph:
    """``num_vertices`` points on a line, vertex i the i-th from the left,
    and the edges' endpoints ``u < v`` as read-only int64 columns of vertex
    indices.  An int64 column is kept without a copy, made read-only.

    ``summands`` is (A, B) on the graph ``build_sum_graph(A, B)`` returns
    and None on every other graph, a copy or a subgraph of one included:
    it is no argument of the constructor.
    """

    num_vertices: int
    u: np.ndarray
    v: np.ndarray
    summands: tuple[IntegerSet, IntegerSet] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        if (n := operator.index(self.num_vertices)) < 0:
            raise ValueError("num_vertices must be >= 0")
        object.__setattr__(self, "num_vertices", n)
        for name in ("u", "v"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.ndim != 1 or len(column) != len(self.u):
                raise ValueError(f"column {name} must be 1-D with one entry per edge")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len(self.u) and not (np.all(self.u >= 0) and np.all(self.u < self.v)
                                and np.all(self.v < n)):
            raise ValueError("edges must satisfy 0 <= u < v < number of vertices")

    @property
    def num_edges(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class CrossingStats:
    crossings: int
    intersections: int
    max_translate_pair_crossings: int
    degree_sequence: tuple[int, ...]

    def as_dict(self) -> dict:
        """JSON form with fixed key order for golden-file comparisons."""
        return {
            "crossings": self.crossings,
            "intersections": self.intersections,
            "maxTranslatePairCrossings": self.max_translate_pair_crossings,
            "degreeSequence": list(self.degree_sequence),
        }


def build_sum_graph(A: IntegerSet, B: IntegerSet) -> ArcGraph:
    """The sum graph of (A, B): one vertex per value of A+B and, for every
    b in B, a path through a_1+b, ..., a_k+b.  Edge ``j*(|A|-1) + i`` joins
    a_i+b_j to a_{i+1}+b_j.  When A does not have distinct consecutive
    differences the same vertex pair can occur twice; such parallel edges
    are retained.

    A pair's vertex is its sum's rank among the distinct sums, so vertex i
    is the i-th smallest sum.  Dense pairs, whose sums span at most
    2|A||B| values, are ranked through a table over that span
    (``_ranks_by_table``); all others by a sort of the pair sums
    (``_ranks_by_sort``).  The graph records (A, B) as its ``summands``.
    """
    if len(A) < 2:
        raise ValueError("A must have at least two elements")
    a, b = _pair_offsets(A, B)
    width = A.max - A.min + B.max - B.min + 1
    if width <= 2 * len(a) * len(b):
        num_vertices, index = _ranks_by_table(a, b, width)
    else:
        num_vertices, index = _ranks_by_sort(a, b, width)
    graph = ArcGraph(num_vertices, u=index[:, :-1].ravel(), v=index[:, 1:].ravel())
    object.__setattr__(graph, "summands", (A, B))
    return graph


def _ranks_by_table(a: np.ndarray, b: np.ndarray,
                    width: int) -> tuple[int, np.ndarray]:
    """(number of distinct sums, ranks) for offsets a and b whose sums lie
    in [0, width): entry (j, i) of the ranks is the rank of a_i + b_j.
    Every sum is marked in a table over [0, width), the marked entries are
    numbered in increasing order, and each pair's rank is read back from
    the table: no sort."""
    sums = b[:, None] + a[None, :]
    marked = np.zeros(width, dtype=bool)
    marked[sums] = True
    distinct = np.flatnonzero(marked)
    del marked
    num_vertices = len(distinct)
    table = np.empty(width, dtype=np.int64)
    table[distinct] = np.arange(num_vertices)
    del distinct
    return num_vertices, table[sums]


def _ranks_by_sort(a: np.ndarray, b: np.ndarray,
                   width: int) -> tuple[int, np.ndarray]:
    """(number of distinct sums, ranks) as ``_ranks_by_table`` returns
    them, by one sort of the pair sums: the running count of runs of
    equal sums in sorted order, scattered back through the order, which
    needs no stable order.  When width * |A||B| fits int64, an in-place
    sort of the distinct keys sum * |A||B| + i*|B| + j gives the sums and
    the order at once; other inputs take an argsort, a stable one for
    Python ints, whose timsort merges the rows, each already in order."""
    sums = (a[:, None] + b[None, :]).ravel()
    n = len(sums)
    if width * n <= _INT64_SPAN:
        sums *= n
        sums += np.arange(n)
        _sort(sums)
        order = sums % n
        sums //= n
    else:
        order = np.argsort(sums, kind="stable" if sums.dtype == object else None)
        sums = sums[order]
    rank = np.zeros(n, dtype=np.int64)
    np.not_equal(sums[1:], sums[:-1], out=rank[1:])
    del sums
    np.cumsum(rank, out=rank)
    num_vertices = int(rank[-1]) + 1
    rank[order] = rank.copy()
    del order
    return num_vertices, rank.reshape(len(a), len(b)).T


def _occurrences(values: np.ndarray, n: int) -> np.ndarray:
    """How often each of 0..n-1 occurs in values.  Counted with
    ``np.add.at``: ``np.bincount`` copies a read-only input such as the
    graph's columns."""
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, values, 1)
    return counts


def _pairs_within(counts: np.ndarray) -> int:
    """Sum of C(c, 2) over the counts."""
    return int((counts * (counts - 1) // 2).sum())


def _merge_rows(rows: np.ndarray, h: int) -> int:
    """Merge, in place, the sorted halves ``[:h]`` and ``[h:]`` of each row
    and return the pairs of a left element greater than a right one.  Each
    row is one stable sort of the keys 2x + side, side 1 on the right, which
    puts left before right on equal values; timsort finds the two sorted
    runs and merges them in linear time.  A right element moves left past
    exactly the left elements greater than it, so the count is the right
    elements' columns before the sort, columns h..w-1 of each row, minus
    their columns after it."""
    width = rows.shape[1]
    keys = rows << 1
    keys[:, h:] |= 1
    keys.sort(axis=1, kind="stable")
    np.right_shift(keys, 1, out=rows)
    keys &= 1
    before = len(rows) * (h + width - 1) * (width - h) // 2
    return before - int((keys @ np.arange(width)).sum())


def _strict_inversions(x: np.ndarray) -> int:
    """Pairs i < j with x[i] > x[j], by a bottom-up merge sort, for x in
    [-2**62, 2**62) so that the merge keys 2x + 1 fit int64.  Inside each
    block of ``_BASE_BLOCK`` the pairs are compared directly, at every
    distance (the last block padded with max(x) + 1, which never counts),
    and the blocks are sorted.  At each level of half-width h above that
    every two sorted blocks form one row of width 2h, merged by
    ``_merge_rows``; a ragged tail longer than h is a row of its own, and
    one of at most h is a sorted block with nothing to merge."""
    m = len(x)
    if m < 2:
        return 0
    top = int(x.max()) + 1
    if top > 1 << 62 or int(x.min()) < -(1 << 62):
        raise ValueError("values must lie in [-2**62, 2**62)")
    blocks = np.full(-(-m // _BASE_BLOCK) * _BASE_BLOCK, top, dtype=np.int64)
    blocks[:m] = x
    blocks = blocks.reshape(-1, _BASE_BLOCK)
    total = 0
    for d in range(1, _BASE_BLOCK):
        total += int(np.count_nonzero(blocks[:, :-d] > blocks[:, d:]))
    blocks.sort(axis=1)
    values = blocks.ravel()[:m]
    h = _BASE_BLOCK
    while h < m:
        full = m - m % (2 * h)
        total += _merge_rows(values[:full].reshape(-1, 2 * h), h)
        if m - full > h:
            total += _merge_rows(values[full:].reshape(1, -1), h)
        h *= 2
    return total


def _sorted_edge_keys(graph: ArcGraph) -> np.ndarray:
    """The keys u * n + v of the edges, sorted: (u, v) order, parallel
    edges adjacent."""
    keys = graph.u * graph.num_vertices
    keys += graph.v
    _sort(keys)
    return keys


def _crossings_and_nestings(graph: ArcGraph) -> tuple[int, int]:
    """(crossings, vertex-disjoint strict nestings) of the graph.

    For two edges (a, b) and (c, d) with a < c < b, the second one either
    crosses (d > b), nests strictly inside (d < b) or shares the right
    endpoint (d == b).  So crossings are the pairs with a < c < b, counted
    from prefix sums of left endpoints, minus strict nestings, a strict
    inversion count of v in (u, v) order, minus the pairs sharing a right
    endpoint but not the left one.

    On a sum graph the translate-pair sweep gives the same two counts as
    the sums of mult * f and mult * g, and they come from it when
    ``_sweep_is_smaller``; the close pairs that rule reads are the sweep's
    arguments.
    """
    if graph.summands is not None:
        A, B = graph.summands
        pairs = _close_pairs(A, B)
        if _sweep_is_smaller(len(A), len(B), pairs[3]):
            mult, f, g = _translate_pair_sweep(*pairs)
            return int(mult @ f), int(mult @ g)
        del pairs  # not held through the merge pass
    m = graph.num_edges
    if m < 2:
        return 0, 0
    n = graph.num_vertices
    u, v = graph.u, graph.v
    starts_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(_occurrences(u, n), out=starts_below[1:])
    overlapping = int((starts_below[v] - starts_below[u + 1]).sum())
    keys = _sorted_edge_keys(graph)
    shared_right = _pairs_within(_occurrences(v, n)) - _pairs_within(_runs(keys)[1])
    keys %= n
    nestings = _strict_inversions(keys)
    return overlapping - nestings - shared_right, nestings


def count_crossings_fast(graph: ArcGraph) -> int:
    """Number of crossing edge pairs (strictly interleaved endpoint
    intervals), in O(m log m).  Parallel edges and edges sharing a vertex
    never cross."""
    return _crossings_and_nestings(graph)[0]


def count_intersections(graph: ArcGraph) -> int:
    """Vertex-disjoint edge pairs whose open intervals share an interior
    point: the crossings plus the strict nestings, so never below the
    crossing count."""
    crossings, nestings = _crossings_and_nestings(graph)
    return crossings + nestings


def _close_pairs(A: IntegerSet,
                 B: IntegerSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(A - min A, B - min B, stop, close): the b' in B with
    b < b' < b + span(A) are those at indices i + 1 .. stop[i] - 1 for b at
    index i, the pairs of translates that can meet; close counts them.  An
    A of one element, span 0, finds stop[i] = i, raised to i + 1: no pair
    is close.  b + span(A) is at most span(A) + span(B), which the offsets'
    dtype holds."""
    a, b = _pair_offsets(A, B)
    stop = np.searchsorted(b, b + a[-1], side="left")
    np.maximum(stop, np.arange(1, len(b) + 1), out=stop)
    return a, b, stop, int(stop.sum()) - len(b) * (len(b) + 1) // 2


def _sweep_is_smaller(k: int, l: int, close: int) -> bool:
    """Whether the translate-pair sweep, rather than the merge pass, counts
    the sum graph of |A| = k >= 2 and |B| = l with close pairs of B: iff
    its arc pairs plus twice its close pairs, the differences it gathers
    and sorts, are at most twice the m = l(k - 1) edges the merge pass
    sorts.  The constructions pass with about 25% to spare, and the sweep
    takes 0.4-0.5 of the merge pass's time on them; a skewed pair such as
    |A| = 2 against a dense B, whose close pairs grow as m^2, falls to the
    merge pass."""
    return (k - 1) * (k - 2) // 2 + 2 * close <= 2 * l * (k - 1)


def _histograms_fit(span: int, close: int) -> bool:
    """Whether the translate-pair sweep counts by histograms over
    [0, span(A)] rather than by sorts, given span(A) and the close pairs of
    B: iff 3 span(A) <= 5 close.  Its three histograms hold 24 bytes per
    value, so then at most 40 per close pair, which with the 56 bytes per
    distinct delta of both paths keeps it within the sweep's bound of 96
    per close pair.  The coprime constructions have span(A) at 1.1-1.4
    close pairs; the seeded ones at 4.7 (depth 1) and 10.8 (depth 2) keep
    the sorts."""
    return 3 * span <= 5 * close


def _translate_pair_sweep(a: np.ndarray, b: np.ndarray, stop: np.ndarray,
                          close: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mult, f, g) over the distinct differences delta < span(A) of B - B,
    in increasing order, from the close pairs ``_close_pairs(A, B)``: mult
    pairs b < b' of B have b' - b = delta, and the paths through A and
    A + delta have f crossing and g strictly nested arc pairs,
    vertex-disjoint both.  Translates further apart share no interior
    point, and an A of one element has no arcs, so no delta.

    Take arcs (a_i, a_i+1) of A and (a_j + delta, a_j+1 + delta), delta > 0,
    and let lo and hi be the min and max of a_i - a_j and a_i+1 - a_j+1.
    They cross iff delta is in (a_i - a_j+1, lo) or (hi, a_i+1 - a_j), and
    nest iff delta is in (lo, hi); only j <= i can meet, and j = i crosses
    on (0, a_i+1 - a_i).  Over the arc pairs j < i and the arcs j = i, the
    left ends a_i - a_j+1 are 2|A| - 3 zeros and every difference a_p - a_q,
    p > q, but the outer ones (q = 0 or p = |A| - 1), once; the right ends
    are every difference once.  So, with # counting over the arc pairs j < i,

        f = 2|A| - 3 - #{outer < delta} - #{differences == delta}
            - #{lo <= delta} + #{hi < delta},
        g = #{lo < delta} - #{hi <= delta} + #{lo == hi == delta},

    the last term mending the empty (lo, hi) of equal gaps.  Each difference
    is a_i - a_j of one arc pair and a_i+1 - a_j+1 of another, but the outer
    ones of only one and span(A) of none; so twice its count is read from
    lo, hi and the outer differences.  lo and hi are gathered by ``_gather``
    over blocks of rows i of up to ``_ARC_PAIR_BLOCK`` arc pairs.

    Every delta and bound lies in [0, span(A)], so the counts have two
    paths.  The dense one counts the deltas with ``_occurrences`` and adds
    each kind of bound (lo, hi, lo == hi) into a histogram over
    [0, span(A)] summed across blocks; #{bound < delta} and
    #{bound <= delta} are its cumulative sums at delta - 1 and delta, and
    the outer differences get a histogram of their own, so nothing is
    sorted or searched.  It is taken when the offsets are int64 and
    ``_histograms_fit``.  The sorted path sorts the deltas and each block's
    bounds and reads each count by a ``searchsorted``; its blocks hold at
    least one arc pair per delta, so that the searches cost no more than
    the sorts.  Offsets are int64 below summed spans of 2**63, Python ints
    above, which only the sorted path takes.
    """
    if not close:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    k, n = len(a), len(b)
    differences = _gather(-b, b, np.arange(1, n + 1), stop)
    span = int(a[-1])
    dense = a.dtype != object and _histograms_fit(span, close)
    if dense:
        mult = _occurrences(differences, span)
        del differences
        deltas = np.flatnonzero(mult)
        mult = mult[deltas]

        def below(histogram):
            """#{bound < delta} and #{bound <= delta} for each delta, from
            a histogram of the bounds; leaves its cumulative sum."""
            equal = histogram[deltas]
            np.cumsum(histogram, out=histogram)
            le = histogram[deltas]
            return np.subtract(le, equal, out=equal), le

        block = _ARC_PAIR_BLOCK
    else:
        _sort(differences)
        deltas, mult = _runs(differences)
        del differences

        def below(bounds):
            """#{bound < delta} and #{bound <= delta} for each delta."""
            _sort(bounds)
            return (np.searchsorted(bounds, deltas, "left"),
                    np.searchsorted(bounds, deltas, "right"))

        block = max(_ARC_PAIR_BLOCK, len(deltas))

    outer = np.concatenate((a[1:] - a[0], a[-1] - a[1:-1]))
    lt, le = below(_occurrences(outer, span + 1) if dense else outer)
    f = 2 * k - 3 - lt
    g = np.zeros(len(deltas), dtype=np.int64)
    twice_equal = le - lt
    del lt, le
    if dense:
        histograms = [np.zeros(span + 1, dtype=np.int64) for _ in range(3)]

    def tally(equal, lo, hi):
        """Add the counts of the bounds lo == hi, lo and hi into f, g and
        twice_equal, holding the two counts of one kind at a time."""
        nonlocal f, g, twice_equal
        lt, le = below(equal)
        g += le
        g -= lt
        del lt, le
        lt, le = below(lo)
        f -= le
        g += lt
        twice_equal += le
        twice_equal -= lt
        del lt, le
        lt, le = below(hi)
        f += lt
        g -= le
        twice_equal += le
        twice_equal -= lt

    # rows 1..i of the triangle hold pairs_through[i] arc pairs
    pairs_through = np.cumsum(np.arange(k - 1))
    first = 1
    while first < k - 1:
        end = int(np.searchsorted(pairs_through, pairs_through[first - 1] + block,
                                  side="right"))
        rows = np.arange(first, min(max(end, first + 1), k - 1))
        first = int(rows[-1]) + 1
        zero = np.zeros(len(rows), dtype=np.int64)
        near = _gather(a[rows], -a, zero, rows)
        far = _gather(a[rows + 1], -a[1:], zero, rows)
        lo = np.minimum(near, far)
        hi = np.maximum(near, far, out=near)
        del near, far
        if dense:
            for histogram, bounds in zip(histograms, (lo[lo == hi], lo, hi)):
                np.add.at(histogram, bounds, 1)
        else:
            tally(lo[lo == hi], lo, hi)
        del lo, hi
    if dense:
        tally(*histograms)
    f -= twice_equal // 2
    return mult, f, g


def max_translate_pair_crossings(A: IntegerSet, B: IntegerSet) -> int:
    """Largest crossing count between the paths through two translates
    A + b and A + b' of the sum graph of (A, B), over b < b' in B: those
    cross as A and A + delta with delta = b' - b, so this is the largest
    f of ``_translate_pair_sweep``."""
    return int(_translate_pair_sweep(*_close_pairs(A, B))[1].max(initial=0))


def _degrees(graph: ArcGraph) -> np.ndarray:
    """The degree of each vertex; parallel edges count twice."""
    n = graph.num_vertices
    return _occurrences(graph.u, n) + _occurrences(graph.v, n)


def _degrees_from_profile(profile: RepProfile, A: IntegerSet,
                          B: IntegerSet) -> np.ndarray:
    """The degree of each vertex of the sum graph of (A, B), |A| >= 2, read
    from its representation profile: a sum x lies on r(x) paths
    a_1+b, ..., a_k+b with two edges each, less one on the paths it
    starts, x = min A + b, and on those it ends, x = max A + b."""
    degrees = 2 * profile.multiplicities
    degrees[profile.locate([A.min + b for b in B])] -= 1
    degrees[profile.locate([A.max + b for b in B])] -= 1
    return degrees


def _nonincreasing(degrees: np.ndarray) -> tuple[int, ...]:
    return tuple(np.sort(degrees)[::-1].tolist())


def degree_sequence(graph: ArcGraph) -> tuple[int, ...]:
    """Vertex degrees sorted nonincreasing; parallel edges count twice."""
    return _nonincreasing(_degrees(graph))


def has_parallel_edges(graph: ArcGraph) -> bool:
    """Whether two edges join the same two vertices.  A sum graph whose A
    has distinct consecutive differences has none, read from A alone: edges
    a_i+b to a_i+1+b and a_j+b' to a_j+1+b' with the same ends have
    a_i+1 - a_i = a_j+1 - a_j, so i = j and then b = b'.  Every other graph
    sorts its edge keys."""
    if graph.summands is not None and is_dcd(graph.summands[0]):
        return False
    keys = _sorted_edge_keys(graph)
    return bool((keys[1:] == keys[:-1]).any())


def crossing_stats(A: IntegerSet, B: IntegerSet) -> CrossingStats:
    """All counting statistics of the sum graph of (A, B) in one bundle,
    without building the graph.  Edges of one translate never cross or
    nest, so the crossings and intersections are the translate-pair sweep's
    f and f + g summed with the multiplicity of each delta in B - B.  The
    degrees come from the representation profile
    (``_degrees_from_profile``)."""
    if len(A) < 2:
        raise ValueError("A must have at least two elements")
    degrees = _degrees_from_profile(representation_profile(A, B), A, B)
    mult, f, g = _translate_pair_sweep(*_close_pairs(A, B))
    crossings = int(mult @ f)
    return CrossingStats(
        crossings=crossings,
        intersections=crossings + int(mult @ g),
        max_translate_pair_crossings=int(f.max(initial=0)),
        degree_sequence=_nonincreasing(degrees),
    )
