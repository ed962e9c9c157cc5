"""Sidon set search and the scalar optimization that picks the best seed
size for the recursive construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sets import IntegerSet, sumset_size

__all__ = [
    "SeedScore",
    "OptimizeResult",
    "sidon_search",
    "seed_stats",
    "objective_f",
    "optimize_exponent",
]


@dataclass(frozen=True)
class SeedScore:
    """Sumset size, difference-set size (0 included), and the resulting
    exponent score log(diffs/sums)/log(diffs)."""

    sums: int
    diffs: int
    score: float


class OptimizeResult(NamedTuple):
    x_star: float
    f_star: float
    iterations: int


def sidon_search(size: int, max_element: int) -> list[IntegerSet]:
    """All Sidon sets {0 = s_1 < ... < s_size <= max_element}, in
    lexicographic order.

    Depth-first extension with pairwise-sum conflict pruning: a candidate c
    is viable iff none of the sums c + x (x already chosen, and 2c) has been
    seen before.  Infeasible bounds simply yield an empty list.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    results: list[IntegerSet] = []
    chosen = [0]
    sums = {0}

    def extend(lo: int) -> None:
        slots_left = size - len(chosen)
        if not slots_left:
            results.append(IntegerSet(tuple(chosen)))
            return
        # leave room for the remaining strictly increasing elements
        for c in range(lo, max_element - slots_left + 2):
            fresh = [c + x for x in chosen]
            fresh.append(2 * c)
            if any(f in sums for f in fresh):
                continue
            chosen.append(c)
            sums.update(fresh)
            extend(c + 1)
            chosen.pop()
            sums.difference_update(fresh)
        return

    extend(1)
    return results


def seed_stats(S: IntegerSet) -> SeedScore:
    """Score a Sidon seed; for |S| = x the closed forms are
    sums = x(x+1)/2 and diffs = x(x-1)+1.  S is Sidon iff |S+S| is the
    first, as in :func:`~sumcross.sets.is_sidon`; then its x(x-1) nonzero
    differences are distinct, so only the sums are counted."""
    x = len(S)
    sums = sumset_size(S, S)
    if sums != x * (x + 1) // 2:
        raise ValueError("set is not Sidon")
    if x == 1:
        raise ValueError("singleton seed has no score")
    diffs = x * (x - 1) + 1
    return SeedScore(sums, diffs, _exponent(diffs, sums))


def objective_f(x: float) -> float:
    """The seed-size objective log((x(x-1)+1) / (x(x-1)/2 + x)) over
    log(x(x-1)+1), defined for x > 1; at integer Sidon sizes it equals the
    seed score."""
    if x <= 1:
        raise ValueError("x must exceed 1")
    return _exponent(*_objective_terms(x))


def _objective_terms(x):
    """(diffs, sums) of the objective at x, a float or an array of them."""
    return x * (x - 1) + 1, x * (x - 1) / 2.0 + x


def _exponent(diffs: float, sums: float) -> float:
    """log(diffs/sums)/log(diffs), the one copy of the exponent formula."""
    return math.log(diffs / sums) / math.log(diffs)


def _grid_scores() -> tuple[np.ndarray, list[float]]:
    """The coarse grid, step 0.01 from 1.01 to 50 then 0.5 to 1000, and
    ``objective_f`` at each point, bit for bit, scored in one pass."""
    grid = np.concatenate((np.arange(101, 5001) / 100, np.arange(101, 2001) / 2))
    diffs, sums = _objective_terms(grid)
    return grid, list(map(_exponent, diffs.tolist(), sums.tolist()))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_exponent() -> OptimizeResult:
    """Maximize the objective on (1, 1000].

    A single maximum is not assumed: a coarse grid (:func:`_grid_scores`)
    brackets the first best point, then golden-section refines to 1e-6 in
    x; ``iterations`` counts both.  Fully deterministic.
    """
    grid, scores = _grid_scores()
    best_x = float(grid[scores.index(max(scores))])
    best_step = 0.01 if best_x <= 50.0 else 0.5
    evaluations = len(scores)

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective_f(x)

    a = max(best_x - best_step, 1.0 + 1e-9)
    b = min(best_x + best_step, 1000.0)
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = f(c), f(d)
    while b - a > 1e-6:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = f(d)
    x_star = (a + b) / 2.0
    return OptimizeResult(x_star, f(x_star), evaluations)
