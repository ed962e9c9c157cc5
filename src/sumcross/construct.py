"""Generators for the two explicit families with distinct consecutive
differences:

* a coprime pair (A, B) built from interleaved multiples of four pairwise
  coprime numbers, giving |A+B| close to the general lower bound, and
* a Sidon-seeded recursive set with sub-quadratic |A+A|, built by walking
  an Euler tour of the seed's complete digraph, lifting the walk to higher
  dimensions block by block, and flattening with a carry-free positional
  encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import IntegerSet, is_sidon
from .sidon import seed_stats

__all__ = [
    "CoprimeParams",
    "EulerTour",
    "VectorSequence",
    "coprime_construction",
    "eulerian_tour",
    "seed_walk",
    "extend_walk",
    "encode_vectors",
    "assemble_increasing",
    "default_encoding_base",
    "sidon_seed_construction",
    "construction_exponent",
    "REFERENCE_SEED",
    "REFERENCE_TOUR",
    "REFERENCE_WALK_VALUES",
]


# ---------------------------------------------------------------------------
# Coprime pair construction.


@dataclass(frozen=True)
class CoprimeParams:
    """The four seeds a < b < c < d (pairwise coprime) and their products
    n = ab, k = cd, m = ac, r = bd."""

    t: int
    a: int
    b: int
    c: int
    d: int
    n: int
    k: int
    m: int
    r: int

    def __post_init__(self):
        seeds = (self.a, self.b, self.c, self.d)
        if not (self.a < self.b < self.c < self.d):
            raise ValueError("seeds must be strictly increasing")
        for i in range(4):
            for j in range(i + 1, 4):
                if math.gcd(seeds[i], seeds[j]) != 1:
                    raise ValueError(f"{seeds[i]} and {seeds[j]} share a factor")
        if math.gcd(self.n, self.k) != 1 or math.gcd(self.m, self.r) != 1:
            raise ValueError("product pairs must be coprime")


def _interleaved_multiples(count_mod: int, point_mod: int) -> tuple[int, ...]:
    """Base points j*point_mod for 0 <= j < count_mod/2 with the smallest
    multiple of count_mod inserted strictly between consecutive base points.

    Gaps are filled left to right until the set reaches count_mod - 1
    elements; for odd count_mod this leaves exactly the last gap empty, so
    the size is count_mod - 1 in both parities.
    """
    points = [j * point_mod for j in range((count_mod + 1) // 2)]
    inserts = count_mod - 1 - len(points)
    out: list[int] = []
    for idx, p in enumerate(points):
        out.append(p)
        if idx < inserts:
            out.append((p // count_mod + 1) * count_mod)
    return tuple(out)


def coprime_construction(t: int) -> tuple[IntegerSet, IntegerSet, CoprimeParams]:
    """Build the pair (A, B) from seeds 6t+1, 6t+2, 6t+3, 6t+5.

    A interleaves multiples of k with multiples of n, B multiples of r with
    multiples of m; both end up with distinct consecutive differences, all
    sums divisible by one of the four seeds, and |A+B| < 4bcd.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    a, b, c, d = 6 * t + 1, 6 * t + 2, 6 * t + 3, 6 * t + 5
    params = CoprimeParams(t, a, b, c, d, a * b, c * d, a * c, b * d)
    A = IntegerSet(_interleaved_multiples(params.n, params.k))
    B = IntegerSet(_interleaved_multiples(params.m, params.r))
    return A, B, params


# ---------------------------------------------------------------------------
# Euler tours of the complete digraph.


@dataclass(frozen=True)
class EulerTour:
    """A closed walk on vertices 1..s using every ordered pair exactly once
    as a step; starts and ends at vertex 1, so it has s(s-1)+1 visits."""

    num_vertices: int
    visits: tuple[int, ...]

    def __post_init__(self):
        s = self.num_vertices
        if s < 2:
            raise ValueError("need at least two vertices")
        if len(self.visits) != s * (s - 1) + 1:
            raise ValueError(f"expected {s * (s - 1) + 1} visits, got {len(self.visits)}")
        if self.visits[0] != 1 or self.visits[-1] != 1:
            raise ValueError("tour must start and end at vertex 1")
        if any(not 1 <= v <= s for v in self.visits):
            raise ValueError("visit outside 1..s")
        steps = list(zip(self.visits, self.visits[1:]))
        if any(a == b for a, b in steps):
            raise ValueError("self-loop step")
        if len(set(steps)) != len(steps):
            raise ValueError("repeated ordered pair")
        # length + distinctness + no loops already force full coverage


def eulerian_tour(s: int) -> EulerTour:
    """Hierholzer's construction on the complete digraph, starting at 1 and
    always leaving along the smallest unused target, so the result is a
    fixed function of s."""
    if s < 2:
        raise ValueError("need at least two vertices")
    # descending lists so pop() yields the ascending successor order
    succ = {v: [w for w in range(s, 0, -1) if w != v] for v in range(1, s + 1)}
    stack = [1]
    walk: list[int] = []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop())
        else:
            walk.append(stack.pop())
    walk.reverse()
    return EulerTour(s, tuple(walk))


# ---------------------------------------------------------------------------
# Vector sequences with distinct consecutive difference vectors.


@dataclass(frozen=True, eq=False)
class VectorSequence:
    """Closed sequence of nonnegative integer vectors whose consecutive
    difference vectors are pairwise distinct: ``vectors`` is a read-only
    (n, dim) int64 array, and an int64 array is kept without a copy."""

    dim: int
    vectors: np.ndarray
    max_coord: int

    def __post_init__(self):
        if self.dim < 1 or self.max_coord < 1:
            raise ValueError("dim and max_coord must be positive")
        try:
            vectors = np.asarray(self.vectors, dtype=np.int64)
        except OverflowError:
            raise ValueError("coordinates must fit in int64") from None
        except ValueError:  # rows of different lengths
            raise ValueError("vector of wrong dimension") from None
        if not len(vectors):
            raise ValueError("empty sequence")
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError("vector of wrong dimension")
        if vectors.min() < 0 or vectors.max() > self.max_coord:
            raise ValueError("coordinate outside [0, max_coord]")
        if not np.array_equal(vectors[0], vectors[-1]):
            raise ValueError("sequence must start and end with the same vector")
        # in base 2*max_coord + 1 no digit carries: rows differ iff codes do
        span = 2 * self.max_coord + 1
        gaps = np.diff(_positional(vectors, span, span**self.dim))
        ordered = np.sort(gaps)
        if (ordered[1:] == ordered[:-1]).any():
            # the first gap that repeats an earlier one
            _, first = np.unique(gaps, return_index=True)
            i = np.setdiff1d(np.arange(len(gaps)), first)[0]
            delta = tuple((vectors[i + 1] - vectors[i]).tolist())
            raise ValueError(f"repeated consecutive difference {delta}")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)


def seed_walk(seed: IntegerSet, tour: EulerTour) -> VectorSequence:
    """Values of a Sidon seed along an Euler tour of its complete digraph.

    The steps of the tour realize every ordered vertex pair once, so the
    consecutive differences of the value sequence are exactly the s(s-1)
    distinct nonzero pairwise differences of the seed.
    """
    if not is_sidon(seed):
        raise ValueError("seed must be a Sidon set")
    if seed.min != 0:
        raise ValueError("seed must start at 0")
    if len(seed) != tour.num_vertices:
        raise ValueError("seed size must match the tour")
    values = [[seed[v - 1]] for v in tour.visits]
    return VectorSequence(1, values, seed.max)


def extend_walk(seq: VectorSequence, walk: VectorSequence) -> VectorSequence:
    """Lift a closed sequence one dimension using a one-dimensional walk.

    The output consists of len(walk) blocks, each a copy of ``seq`` in the
    first coordinates.  Block 1 keeps the new coordinate at walk[0]; block
    i > 1 alternates walk[i], walk[i-1], starting and ending with walk[i]
    (block length is odd, so the alternation closes up).  The blocks are
    written into one int64 array of 8 * len(walk) * len(seq) * (dim + 1) bytes.
    """
    if walk.dim != 1:
        raise ValueError("walk must be one-dimensional")
    if len(walk) % 2 == 0 or len(seq) % 2 == 0:
        raise ValueError("lengths must be odd for the alternation to close")
    values = walk.vectors[:, 0]
    previous = np.concatenate((values[:1], values[:-1]))
    even = np.arange(len(seq)) % 2 == 0
    blocks = np.empty((len(walk), len(seq), seq.dim + 1), dtype=np.int64)
    blocks[:, :, :-1] = seq.vectors
    blocks[:, :, -1] = np.where(even, values[:, None], previous[:, None])
    return VectorSequence(seq.dim + 1, blocks.reshape(-1, seq.dim + 1),
                          max(seq.max_coord, walk.max_coord))


def _positional(vectors: np.ndarray, base: int, bound: int) -> np.ndarray:
    """Row codes sum(v[t] * base**t); int64 if bound < 2**63, else Python ints."""
    dtype = np.int64 if bound < 2**63 else object
    weights = np.array([base**t for t in range(vectors.shape[1])], dtype=dtype)
    return vectors.astype(dtype, copy=False) @ weights


def encode_vectors(seq: VectorSequence, base: int) -> list[int]:
    """Flatten vectors positionally: coordinate t contributes base**t.

    The base must exceed twice the largest coordinate so that sums of two
    codes never carry between coordinates and consecutive-difference
    distinctness survives the flattening.  One array product, in int64
    while the assembled set fits it, (n + 1) * base**dim < 2**63.
    """
    if base <= 2 * seq.max_coord:
        raise ValueError(f"base {base} too small; need > {2 * seq.max_coord}")
    return _positional(seq.vectors, base, (len(seq) + 1) * base**seq.dim).tolist()


def assemble_increasing(codes: list[int], base: int, dim: int) -> IntegerSet:
    """Shift the i-th code by i*base**dim (1-based) to force monotonicity;
    consecutive differences inherit distinctness from the codes."""
    shift = base**dim
    if len(codes) and not (0 <= min(codes) and max(codes) < shift):
        code = next(c for c in codes if not 0 <= c < shift)
        raise ValueError(f"code {code} outside [0, base**dim)")
    dtype = np.int64 if (len(codes) + 1) * shift < 2**63 else object
    steps = np.arange(1, len(codes) + 1, dtype=dtype) * shift
    return IntegerSet(tuple((np.array(codes, dtype=dtype) + steps).tolist()))


def default_encoding_base(seed: IntegerSet) -> int:
    """Smallest power of ten exceeding twice the largest seed element."""
    base = 10
    while base <= 2 * seed.max:
        base *= 10
    return base


def sidon_seed_construction(seed: IntegerSet, depth: int,
                            base: int | None = None,
                            tour: EulerTour | None = None) -> IntegerSet:
    """Full pipeline: Euler tour -> seed walk -> (depth-1) lifts -> encode
    -> assemble.  The result has (s(s-1)+1)**depth elements, all consecutive
    differences distinct, and |A+A| at most |S+S|**depth * 2 * |A|."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(seed) < 3:
        raise ValueError("seed must have at least three elements")
    if tour is None:
        tour = eulerian_tour(len(seed))
    walk = seed_walk(seed, tour)
    if base is None:
        base = default_encoding_base(seed)
    seq = walk
    for _ in range(depth - 1):
        seq = extend_walk(seq, walk)
    return assemble_increasing(encode_vectors(seq, base), base, depth)


def construction_exponent(seed: IntegerSet) -> float:
    """log(|S-S| / |S+S|) / log(|S-S|): the sub-quadratic savings rate the
    recursive construction achieves from this seed (its Sidon seed score)."""
    return seed_stats(seed).score


# ---------------------------------------------------------------------------
# Built-in reference fixture: the published 7-element seed, the tour used
# with it, and the walk values that tour produces.  Selected on the command
# line via ``--seed paper`` / ``--paper-tour``.

REFERENCE_SEED = IntegerSet((0, 1, 3, 7, 12, 22, 30))

REFERENCE_TOUR = EulerTour(7, (
    1, 3, 5, 2, 6, 4, 7, 2, 4, 1, 5, 7, 3, 6, 1, 2, 3, 4, 5, 6, 7,
    1, 7, 5, 3, 7, 4, 6, 5, 1, 6, 2, 5, 4, 3, 1, 4, 2, 7, 6, 3, 2, 1))

REFERENCE_WALK_VALUES = (
    0, 3, 12, 1, 22, 7, 30, 1, 7, 0, 12, 30, 3, 22, 0, 1, 3, 7, 12, 22, 30,
    0, 30, 12, 3, 30, 7, 22, 12, 0, 22, 1, 12, 7, 3, 0, 7, 1, 30, 22, 3, 1, 0)
