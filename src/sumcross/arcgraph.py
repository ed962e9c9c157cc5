"""Geometric graphs drawn on a line: vertices are points on the x axis and
every edge is an upper semicircular arc.  Two arcs cross iff their endpoint
intervals strictly interleave; they intersect iff the open intervals overlap
at all (interleaving or nesting) and the edges share no vertex.

The sum graph's vertices are the distinct sums of the representation
profile; ``build_sum_graph`` ranks the pairs from the sort behind it.

Only the order of the positions matters for any count here, never the
coordinates themselves.  Edges are stored as int64 columns and every count
on a graph is computed with numpy in O(m log m), without a Python loop over
edges: the merge pass.  The translate-pair sweep counts from the sets
instead, one pair of translates at a time: the arc pairs of A against the
differences of B below span(A), O(|A|^2 log |B|) after O(|B|^2) to gather
those differences.  ``crossing_stats`` and ``max_translate_pair_crossings``
always sweep.  A graph made by ``build_sum_graph`` remembers its sets, and
its crossings and intersections come from the sweep when that is the
smaller job, from the merge pass otherwise; the merge pass counts every
other graph, such as a subgraph or a copy of a sum graph.

Each counter's peak memory, in bytes per edge and per vertex, is listed
in the README and held to that bound by ``test_peak_memory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sets import (_INT64_SPAN, IntegerSet, _gather, _int_array, _pair_offsets,
                   _profile_and_order, representation_profile)

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
    """Strictly increasing vertex positions plus the edge endpoints
    ``u < v`` as vertex indices, one int64 column each.

    Positions and columns may be passed as any integer sequence; they are
    stored as read-only arrays.  Positions are int64 when every one fits
    and Python ints in an object array otherwise.  An int64 array is stored
    without a copy and made read-only in place.

    ``summands`` is (A, B) on the graph ``build_sum_graph(A, B)`` returns
    and None on every other graph, a copy or a subgraph of one included:
    it is no argument of the constructor.
    """

    positions: np.ndarray
    u: np.ndarray
    v: np.ndarray
    summands: tuple[IntegerSet, IntegerSet] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        p = _int_array(self.positions)
        if p.ndim != 1:
            raise ValueError("positions must be 1-D")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)
        for name in ("u", "v"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.ndim != 1 or len(column) != len(self.u):
                raise ValueError(f"column {name} must be 1-D with one entry per edge")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not np.all(p[1:] > p[:-1]):
            raise ValueError("positions must be strictly increasing")
        if len(self.u) and not (np.all(self.u >= 0) and np.all(self.u < self.v)
                                and np.all(self.v < len(p))):
            raise ValueError("edges must satisfy 0 <= u < v < number of vertices")

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

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

    A pair's vertex is its sum's rank: the running count of runs of equal
    sums in the order of the profile's sort, scattered back through the
    order, which goes before the edges are cut.  Positions are int64 when
    every sum fits (offsets, below 2**64, plus base modulo 2**64) and Python
    ints otherwise.  The graph records (A, B) as its ``summands``.
    """
    if len(A) < 2:
        raise ValueError("A must have at least two elements")
    profile, order = _profile_and_order(A, B)
    rank = np.zeros(len(order), dtype=np.int64)
    rank[np.cumsum(profile.multiplicities[:-1])] = 1
    np.cumsum(rank, out=rank)
    rank[order] = rank.copy()
    del order
    index = rank.reshape(len(A), len(B)).T
    base, offsets = profile.base, profile.offsets
    if -_INT64_SPAN <= base and base + int(offsets[-1]) < _INT64_SPAN:
        positions = offsets.astype(np.uint64)
        positions += np.uint64(base % (1 << 64))
        positions = positions.view(np.int64)
    else:
        positions = offsets.astype(object, copy=False) + base
    graph = ArcGraph(positions, u=index[:, :-1].ravel(), v=index[:, 1:].ravel())
    object.__setattr__(graph, "summands", (A, B))
    return graph


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
    keys.sort()
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
    ``_sweep_is_smaller``.
    """
    if graph.summands is not None and _sweep_is_smaller(*graph.summands):
        mult, f, g = _translate_pair_sweep(*graph.summands)
        return int(mult @ f), int(mult @ g)
    m = graph.num_edges
    if m < 2:
        return 0, 0
    n = graph.num_vertices
    u, v = graph.u, graph.v
    starts_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(_occurrences(u, n), out=starts_below[1:])
    overlapping = int((starts_below[v] - starts_below[u + 1]).sum())
    keys = _sorted_edge_keys(graph)
    run_ends = np.flatnonzero(np.diff(keys)) + 1
    shared_right = (_pairs_within(_occurrences(v, n))
                    - _pairs_within(np.diff(run_ends, prepend=0, append=m)))
    del run_ends  # not held through the merge sort's peak
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
                 B: IntegerSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A - min A, B - min B, stop): the b' in B with b < b' < b + span(A)
    are those at indices i + 1 .. stop[i] - 1 for b at index i, the pairs
    of translates that can meet."""
    a, b = _pair_offsets(A, B)
    return a, b, np.searchsorted(b, b + a[-1], side="left")


def _sweep_is_smaller(A: IntegerSet, B: IntegerSet) -> bool:
    """Whether the translate-pair sweep, rather than the merge pass, counts
    the sum graph of (A, B), |A| >= 2: iff its arc pairs plus twice its
    close pairs of B, the differences it gathers and sorts, are at most
    twice the m edges the merge pass sorts.  The constructions pass with
    about 25% to spare, and the sweep takes 0.4-0.5 of the merge pass's
    time on them; a skewed pair such as |A| = 2 against a dense B, whose
    close pairs grow as m^2, falls to the merge pass."""
    a, b, stop = _close_pairs(A, B)
    k, n = len(a), len(b)
    close = int(stop.sum()) - n * (n + 1) // 2
    return (k - 1) * (k - 2) // 2 + 2 * close <= 2 * n * (k - 1)


def _translate_pair_sweep(A: IntegerSet,
                          B: IntegerSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mult, f, g) over the distinct differences delta < span(A) of B - B,
    in increasing order: mult pairs b < b' of B have b' - b = delta, and the
    paths through A and A + delta have f crossing and g strictly nested arc
    pairs, vertex-disjoint both.  Translates further apart share no
    interior point, and an A of one element has no arcs, so no delta.

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
    lo, hi and the outer differences.  Each count is a ``searchsorted`` of
    the sorted deltas into sorted bounds, gathered by ``_gather`` over
    blocks of rows i of up to ``_ARC_PAIR_BLOCK`` arc pairs or one per
    delta, whichever is more, so that the searches cost no more than the
    sorts.  Offsets are int64 below summed spans of 2**63, Python ints
    above.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(A) < 2:
        return empty, empty, empty
    a, b, stop = _close_pairs(A, B)
    k = len(a)
    differences = _gather(-b, b, np.arange(1, len(b) + 1), stop)
    if not len(differences):
        return empty, empty, empty
    differences.sort()
    starts = np.flatnonzero(np.concatenate(
        ([True], differences[1:] != differences[:-1])))
    deltas = differences[starts]
    mult = np.diff(starts, append=len(differences))
    del differences, starts

    def below(bounds):
        """#{bound < delta} and #{bound <= delta} for each delta."""
        bounds.sort()
        return (np.searchsorted(bounds, deltas, "left"),
                np.searchsorted(bounds, deltas, "right"))

    lt, le = below(np.concatenate((a[1:] - a[0], a[-1] - a[1:-1])))
    f = 2 * k - 3 - lt
    g = np.zeros(len(deltas), dtype=np.int64)
    twice_equal = le - lt
    # rows 1..i of the triangle hold pairs_through[i] arc pairs
    pairs_through = np.cumsum(np.arange(k - 1))
    block = max(_ARC_PAIR_BLOCK, len(deltas))
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
        del far
        lt, le = below(lo[lo == hi])
        g += le - lt
        lt, le = below(lo)
        f -= le
        g += lt
        twice_equal += le - lt
        lt, le = below(hi)
        f += lt
        g -= le
        twice_equal += le - lt
    f -= twice_equal // 2
    return mult, f, g


def max_translate_pair_crossings(A: IntegerSet, B: IntegerSet) -> int:
    """Largest crossing count between the paths through two translates
    A + b and A + b' of the sum graph of (A, B), over b < b' in B: those
    cross as A and A + delta with delta = b' - b, so this is the largest
    f of ``_translate_pair_sweep``."""
    return int(_translate_pair_sweep(A, B)[1].max(initial=0))


def _degrees(graph: ArcGraph) -> np.ndarray:
    """The degree of each vertex; parallel edges count twice."""
    n = graph.num_vertices
    return _occurrences(graph.u, n) + _occurrences(graph.v, n)


def _nonincreasing(degrees: np.ndarray) -> tuple[int, ...]:
    return tuple(np.sort(degrees)[::-1].tolist())


def degree_sequence(graph: ArcGraph) -> tuple[int, ...]:
    """Vertex degrees sorted nonincreasing; parallel edges count twice."""
    return _nonincreasing(_degrees(graph))


def has_parallel_edges(graph: ArcGraph) -> bool:
    keys = _sorted_edge_keys(graph)
    return bool((keys[1:] == keys[:-1]).any())


def crossing_stats(A: IntegerSet, B: IntegerSet) -> CrossingStats:
    """All counting statistics of the sum graph of (A, B) in one bundle,
    without building the graph.  Edges of one translate never cross or
    nest, so the crossings and intersections are the translate-pair sweep's
    f and f + g summed with the multiplicity of each delta in B - B.  The
    degrees come from the representation profile: a sum x lies on r(x)
    paths a_1+b, ..., a_k+b with two edges each, less one on the paths it
    starts, x = min A + b, and on those it ends, x = max A + b."""
    if len(A) < 2:
        raise ValueError("A must have at least two elements")
    profile = representation_profile(A, B)
    degrees = 2 * profile.multiplicities
    degrees[profile.locate([A.min + b for b in B])] -= 1
    degrees[profile.locate([A.max + b for b in B])] -= 1
    del profile
    mult, f, g = _translate_pair_sweep(A, B)
    crossings = int(mult @ f)
    return CrossingStats(
        crossings=crossings,
        intersections=crossings + int(mult @ g),
        max_translate_pair_crossings=int(f.max(initial=0)),
        degree_sequence=_nonincreasing(degrees),
    )
