import math

import pytest

from sumcross import (
    IntegerSet,
    OptimizeResult,
    is_sidon,
    objective_f,
    optimize_exponent,
    seed_stats,
    sidon_search,
)
from sumcross.sidon import _grid_scores

from helpers import coarse_grid_by_iteration


def iset(*values):
    return IntegerSet.of(values)


class TestSearch:
    def test_smallest_case(self):
        assert sidon_search(2, 1) == [iset(0, 1)]

    def test_size_three(self):
        found = sidon_search(3, 3)
        assert iset(0, 1, 3) in found
        assert found == sorted(found, key=lambda s: s.elements)

    def test_finds_the_reference_seed(self):
        found = sidon_search(7, 30)
        assert iset(0, 1, 3, 7, 12, 22, 30) in found

    def test_all_results_are_normalized_sidon_sets(self):
        for s in sidon_search(4, 12):
            assert s.min == 0 and s.max <= 12 and len(s) == 4
            assert is_sidon(s)

    def test_infeasible_returns_empty(self):
        assert sidon_search(5, 6) == []

    def test_deterministic(self):
        assert sidon_search(4, 15) == sidon_search(4, 15)

    def test_closed_forms_hold_for_every_result(self):
        for size, cap in ((3, 8), (4, 15), (5, 20)):
            for s in sidon_search(size, cap):
                stats = seed_stats(s)
                assert stats.sums == size * (size + 1) // 2
                assert stats.diffs == size * (size - 1) + 1

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sidon_search(1, 5)


class TestSeedStats:
    def test_reference_seed(self):
        stats = seed_stats(iset(0, 1, 3, 7, 12, 22, 30))
        assert (stats.sums, stats.diffs) == (28, 43)
        assert stats.score == pytest.approx(0.11406, abs=1e-5)

    def test_toy_seed(self):
        stats = seed_stats(iset(0, 1, 3))
        assert (stats.sums, stats.diffs) == (6, 7)
        assert stats.score == pytest.approx(0.0792, abs=1e-4)

    def test_pair_scores_zero(self):
        stats = seed_stats(iset(0, 1))
        assert (stats.sums, stats.diffs, stats.score) == (3, 3, 0.0)

    def test_score_is_objective_at_integer_point(self):
        for s in (iset(0, 1), iset(0, 1, 3), iset(0, 1, 3, 7),
                  iset(0, 1, 3, 7, 12, 22, 30)):
            assert seed_stats(s).score == objective_f(len(s))

    def test_rejects_non_sidon_and_singleton(self):
        with pytest.raises(ValueError):
            seed_stats(iset(0, 1, 2))
        with pytest.raises(ValueError):
            seed_stats(iset(4))


class TestObjective:
    def test_known_values(self):
        assert objective_f(2) == 0.0
        assert objective_f(3) == pytest.approx(math.log(7 / 6) / math.log(7))
        assert objective_f(7) == pytest.approx(0.114058, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            objective_f(1.0)
        with pytest.raises(ValueError):
            objective_f(0.3)


class TestOptimize:
    def test_matches_published_optimum(self):
        res = optimize_exponent()
        assert res.x_star == pytest.approx(6.99618, abs=1e-3)
        assert res.f_star == pytest.approx(0.114058, abs=1e-5)
        assert res.iterations > 0

    def test_pinned_result(self):
        assert optimize_exponent() == OptimizeResult(
            6.99618477447728, 0.1140581781199547, 6824)

    def test_grid_is_the_rounded_step_chain_scored_by_the_objective(self):
        grid, scores = _grid_scores()
        expected = coarse_grid_by_iteration()
        assert grid.tolist() == expected
        assert scores == [objective_f(x) for x in expected]

    def test_local_maximality_spot_checks(self):
        res = optimize_exponent()
        assert res.f_star >= objective_f(7.0)
        assert res.f_star >= objective_f(6.9)

    def test_dense_grid_never_beats_result(self):
        res = optimize_exponent()
        x = 1.01
        best = -1.0
        while x <= 1000.0:
            best = max(best, objective_f(x))
            x = round(x + 0.01, 6)
        assert best <= res.f_star + 1e-5

    def test_deterministic(self):
        assert optimize_exponent() == optimize_exponent()

    def test_bounds_every_searched_seed_score(self):
        res = optimize_exponent()
        for size, cap in ((2, 4), (3, 8), (4, 15), (5, 25), (6, 40)):
            for s in sidon_search(size, cap):
                assert seed_stats(s).score <= res.f_star
