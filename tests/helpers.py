"""Shared generators and independent brute-force oracles for the tests.

The oracles here deliberately re-derive quantities from first principles
(nested loops, both-orientation predicates) so that library shortcuts are
checked against something that cannot share their bugs.
"""

import random
from collections import Counter

import numpy as np

from sumcross import ArcGraph, IntegerSet


def random_dcd_set(rng: random.Random, size: int, max_gap: int | None = None,
                   offset: int = 0) -> IntegerSet:
    """Cumulative sums of distinct positive gaps in random order."""
    if size == 1:
        return IntegerSet((offset,))
    max_gap = max_gap or 3 * size
    gaps = rng.sample(range(1, max(max_gap, size) + 1), size - 1)
    acc = [offset]
    for g in gaps:
        acc.append(acc[-1] + g)
    return IntegerSet(tuple(acc))


def random_doubling_dcd_set(rng: random.Random, size: int) -> IntegerSet:
    """Distinct gaps drawn from [g, 2g], so max gap <= 2 * min gap."""
    if size == 1:
        return IntegerSet((0,))
    g = size  # [g, 2g] holds g+1 integers, enough for size-1 distinct gaps
    gaps = rng.sample(range(g, 2 * g + 1), size - 1)
    acc = [0]
    for gap in gaps:
        acc.append(acc[-1] + gap)
    return IntegerSet(tuple(acc))


def random_integer_set(rng: random.Random, size: int, lo: int = -1000,
                       hi: int = 1000) -> IntegerSet:
    return IntegerSet(tuple(sorted(rng.sample(range(lo, hi + 1), size))))


def random_arcgraph(rng: random.Random, max_n: int = 60,
                    max_m: int = 300, m: int | None = None) -> ArcGraph:
    """A random vertex count and random index pairs (``m`` of them, or a
    random number up to ``max_m``); parallel edges and heavy endpoint
    sharing are allowed on purpose."""
    n = rng.randint(2, max_n)
    if m is None:
        m = rng.randint(0, max_m)
    us, vs = [], []
    for _ in range(m):
        u = rng.randrange(n - 1)
        us.append(u)
        vs.append(rng.randrange(u + 1, n))
    return ArcGraph(n, u=us, v=vs)


def edge_pairs(graph: ArcGraph) -> list[tuple[int, int]]:
    """The (u, v) vertex-index pairs of the graph's edges, in column order."""
    return list(zip(graph.u.tolist(), graph.v.tolist()))


def count_crossings_oracle(graph: ArcGraph) -> int:
    """Reference crossing count: scan all edge pairs in (u, v) order and
    test the strict interleaving predicate.  Quadratic, kept deliberately
    simple."""
    edges = sorted(edge_pairs(graph))
    m = len(edges)
    count = 0
    for i in range(m):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d = edges[j]
            if c >= b:
                # later edges start even further right: no interleave possible
                break
            if a < c and b < d:
                count += 1
    return count


def crossings_by_definition(graph: ArcGraph) -> int:
    """Independent quadratic crossing count: test both orientations of the
    strict-interleaving predicate on the endpoints, no sorting, no pruning."""
    es = edge_pairs(graph)
    total = 0
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if (a < c < b < d) or (c < a < d < b):
                total += 1
    return total


def intersections_by_definition(graph: ArcGraph) -> int:
    """Independent intersection count straight from the definition:
    vertex-disjoint edges whose closed endpoint intervals share an
    interior point."""
    es = edge_pairs(graph)
    total = 0
    for i in range(len(es)):
        u1, v1 = es[i]
        for j in range(i + 1, len(es)):
            u2, v2 = es[j]
            if len({u1, v1, u2, v2}) != 4:
                continue
            if max(u1, u2) < min(v1, v2):
                total += 1
    return total


def strict_inversions_by_definition(x) -> int:
    """Pairs i < j with x[i] > x[j], by testing every pair: x[i] against
    each x[j] after it, one row of comparisons per i."""
    x = np.asarray(x)
    return sum(int(np.count_nonzero(x[i] > x[i + 1:])) for i in range(len(x)))


def sum_graph_by_definition(A: IntegerSet, B: IntegerSet):
    """(sums, [(u, v), ...]) of the sum graph, built with Python ints and a
    dict: vertex i is the i-th smallest of the distinct sums, edges in
    translate-then-gap order."""
    sums = tuple(sorted({a + b for a in A for b in B}))
    index = {x: i for i, x in enumerate(sums)}
    edges = [(index[A[i] + b], index[A[i + 1] + b])
             for b in B for i in range(len(A) - 1)]
    return sums, edges


def translate_pair_crossings_by_definition(A: IntegerSet, b: int, c: int) -> int:
    """Crossings between the paths A + b and A + c on raw values: every arc
    of one against every arc of the other, both orientations."""
    arcs = [(A[i], A[i + 1]) for i in range(len(A) - 1)]
    total = 0
    for x, y in arcs:
        for z, w in arcs:
            p, q, r, s = x + b, y + b, z + c, w + c
            if p < r < q < s or r < p < s < q:
                total += 1
    return total


def crossings_by_difference_per_delta(a: np.ndarray,
                                      deltas: np.ndarray) -> np.ndarray:
    """f(delta) for each delta > 0, one delta at a time: crossings between
    the path through the sorted points a and the path through a + delta.

    With h the index of the last point of a at or below x = a + delta, arc
    (x_r, x_r+1) crosses the arc of a holding x_r strictly inside when that
    arc ends strictly before x_r+1, and the arc of a holding x_r+1 strictly
    inside when that arc starts after x_r; no other arc of a can cross it.
    Each delta takes one ``searchsorted`` of |A| points, 2**18 points per
    numpy call.
    """
    k = len(a)
    found = np.empty(len(deltas), dtype=np.int64)
    step = max(1, (1 << 18) // k)
    for lo in range(0, len(deltas), step):
        x = a[None, :] + deltas[lo:lo + step, None]
        h = np.searchsorted(a, x, side="right") - 1
        on = a[h] == x
        h0, h1, on0, on1 = h[:, :-1], h[:, 1:], on[:, :-1], on[:, 1:]
        spread = h1 > h0
        ends_inside = spread & ~on0 & ~((h1 == h0 + 1) & on1)
        starts_inside = spread & ~on1 & (h1 <= k - 2)
        found[lo:lo + step] = (np.count_nonzero(ends_inside, axis=1)
                               + np.count_nonzero(starts_inside, axis=1))
    return found


def nestings_by_difference_per_delta(a: np.ndarray,
                                     deltas: np.ndarray) -> np.ndarray:
    """g(delta) for each delta > 0, one delta at a time: vertex-disjoint
    strict nestings between an arc of the path through the sorted points a
    and an arc of the path through a + delta.

    An arc (x_r, x_r+1) of a + delta holds max(0, c - 1) arcs of a strictly
    inside, c the points of a strictly between its ends, and lies strictly
    inside an arc of a when both its ends fall strictly inside the same gap
    of a.  Each delta takes two ``searchsorted`` of |A| points, 2**18
    points per numpy call.
    """
    k = len(a)
    found = np.empty(len(deltas), dtype=np.int64)
    step = max(1, (1 << 18) // k)
    for lo in range(0, len(deltas), step):
        x = a[None, :] + deltas[lo:lo + step, None]
        below = np.searchsorted(a, x, side="left")
        at_or_below = np.searchsorted(a, x, side="right")
        between = below[:, 1:] - at_or_below[:, :-1]
        holds = np.maximum(between - 1, 0).sum(axis=1)
        off_points = below == at_or_below
        same_gap = (off_points[:, :-1] & off_points[:, 1:] & (between == 0)
                    & (below[:, 1:] < k))
        found[lo:lo + step] = holds + np.count_nonzero(same_gap, axis=1)
    return found


def sumset_size_by_definition(A: IntegerSet, B: IntegerSet) -> int:
    """|A+B| from a Python set of every pairwise sum, over Python ints."""
    return len({a + b for a in A for b in B})


def representation_profile_by_definition(A: IntegerSet,
                                         B: IntegerSet) -> Counter:
    """Pairs per sum value in a Counter filled with a outer and b inner, so
    its keys are in order of first appearance."""
    counts = Counter()
    for a in A:
        for b in B:
            counts[a + b] += 1
    return counts


def energy_by_definition(counts: Counter, alpha: float) -> float:
    """Sum of count**alpha, added left to right in the order of the keys."""
    total = 0.0
    for c in counts.values():
        total = total + c**alpha
    return total


def additive_quadruples(A: IntegerSet, B: IntegerSet) -> int:
    """Literal count of (a, a', b, b') with a + b == a' + b'."""
    total = 0
    for a1 in A:
        for a2 in A:
            for b1 in B:
                for b2 in B:
                    if a1 + b1 == a2 + b2:
                        total += 1
    return total


def pairwise_sums_distinct(A: IntegerSet) -> bool:
    """Sidon property by literal enumeration of the i <= j sums."""
    sums = [A[i] + A[j] for i in range(len(A)) for j in range(i, len(A))]
    return len(set(sums)) == len(sums)
