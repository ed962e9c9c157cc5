import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumcross import (
    ArcGraph,
    IntegerSet,
    build_sum_graph,
    coprime_construction,
    count_crossings_fast,
    count_intersections,
    crossing_stats,
    degree_sequence,
    has_parallel_edges,
    is_dcd,
    max_translate_pair_crossings,
    representation_profile,
    sidon_seed_construction,
    REFERENCE_SEED,
)
from helpers import (
    count_crossings_oracle,
    crossings_by_definition,
    crossings_by_difference_per_delta,
    edge_pairs,
    intersections_by_definition,
    nestings_by_difference_per_delta,
    random_arcgraph,
    random_dcd_set,
    random_integer_set,
    representation_profile_by_definition,
    strict_inversions_by_definition,
    sum_graph_by_definition,
    translate_pair_crossings_by_definition,
)
from sumcross import arcgraph, bounds
from sumcross.arcgraph import (_strict_inversions, _sweep_is_smaller,
                               _translate_pair_sweep)
from sumcross.sets import _pair_offsets


def iset(*values):
    return IntegerSet.of(values)


def graph_of(n, pairs):
    return ArcGraph(n, u=[u for u, _ in pairs], v=[v for _, v in pairs])


def plain_copy(g):
    """The same drawing without the summands: the merge pass counts it."""
    return ArcGraph(g.num_vertices, u=g.u, v=g.v)


class TestArcGraphType:
    def test_num_vertices_is_a_nonnegative_int(self):
        g = ArcGraph(np.int64(3), u=np.array([0]), v=[2])
        assert g.num_vertices == 3 and type(g.num_vertices) is int
        assert ArcGraph(0, u=[], v=[]).num_vertices == 0
        with pytest.raises(ValueError, match=">= 0"):
            ArcGraph(-1, u=[], v=[])
        for n in (3.0, "3", None):
            with pytest.raises(TypeError):
                ArcGraph(n, u=[], v=[])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            graph_of(2, [(1, 0)])
        with pytest.raises(ValueError):
            graph_of(2, [(0, 2)])
        with pytest.raises(ValueError):
            graph_of(2, [(0, 0)])
        with pytest.raises(ValueError):
            graph_of(3, [(-1, 1)])


class TestBuildSumGraph:
    def test_single_translate_is_a_path(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0))
        assert g.num_vertices == 3
        assert edge_pairs(g) == [(0, 1), (1, 2)]

    def test_two_translates(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        assert g.num_vertices == 5
        assert g.num_edges == 4
        assert set(edge_pairs(g)) == {(0, 1), (1, 3), (1, 2), (2, 4)}

    def test_edge_count_with_multiplicity(self):
        rng = random.Random(1)
        for _ in range(20):
            A = random_integer_set(rng, rng.randint(2, 12), -99, 99)
            B = random_integer_set(rng, rng.randint(1, 12), -99, 99)
            g = build_sum_graph(A, B)
            assert g.num_edges == (len(A) - 1) * len(B)

    def test_dcd_implies_simple(self):
        rng = random.Random(2)
        for _ in range(20):
            A = random_dcd_set(rng, rng.randint(2, 15))
            B = random_integer_set(rng, rng.randint(1, 10), 0, 200)
            assert not has_parallel_edges(build_sum_graph(A, B))

    def test_repeated_gap_produces_parallel_edges(self):
        g = build_sum_graph(iset(0, 1, 2), iset(0, 1))
        assert g.num_edges == 4
        assert has_parallel_edges(g)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            build_sum_graph(iset(7), iset(0, 1))


class TestCrossingCounts:
    def test_interleaved_pair(self):
        assert count_crossings_oracle(graph_of(4, [(0, 2), (1, 3)])) == 1

    def test_nested_pair_does_not_cross(self):
        assert count_crossings_oracle(graph_of(4, [(0, 3), (1, 2)])) == 0

    def test_shared_endpoints_never_cross(self):
        g = graph_of(4, [(0, 2), (2, 3), (0, 3), (0, 1)])
        assert count_crossings_oracle(g) == 0

    def test_sum_graph_example(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        assert count_crossings_oracle(g) == 1
        assert count_crossings_fast(g) == 1

    def test_edgeless_and_star(self):
        assert count_crossings_fast(graph_of(5, [])) == 0
        star = graph_of(5, [(0, i) for i in range(1, 5)])
        assert count_crossings_fast(star) == 0

    def test_parallel_edges_do_not_cross(self):
        g = graph_of(3, [(0, 2), (0, 2), (1, 2)])
        assert count_crossings_oracle(g) == 0
        assert count_crossings_fast(g) == 0

    def test_fast_equals_oracle_random(self):
        rng = random.Random(42)
        for _ in range(150):
            g = random_arcgraph(rng, max_n=40, max_m=120)
            expected = crossings_by_definition(g)
            assert count_crossings_oracle(g) == expected
            assert count_crossings_fast(g) == expected

    def test_fast_equals_oracle_on_sum_graphs(self):
        rng = random.Random(43)
        for _ in range(25):
            A = random_integer_set(rng, rng.randint(2, 15), -200, 200)
            B = random_integer_set(rng, rng.randint(1, 12), -200, 200)
            g = build_sum_graph(A, B)
            assert count_crossings_fast(g) == count_crossings_oracle(g)


class TestStrictInversions:
    """The merge counter against every pair compared, around the blocks of
    32 counted directly and the first merge levels above them, and around
    the ragged-tail rule: at each level of half-width h a tail of the array
    longer than h is merged as a row of its own (95-97, 127-129, 191-193
    and 4095-4097 put tails of h - 1, h and h + 1 at several levels)."""

    LENGTHS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129,
               191, 192, 193, 4095, 4096, 4097)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_all_equal(self, m):
        x = np.full(m, 7, dtype=np.int64)
        assert _strict_inversions(x) == 0 == strict_inversions_by_definition(x)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_strictly_decreasing(self, m):
        x = np.arange(m, dtype=np.int64)[::-1].copy()
        assert _strict_inversions(x) == m * (m - 1) // 2
        assert strict_inversions_by_definition(x) == m * (m - 1) // 2

    @pytest.mark.parametrize("m", LENGTHS + (200, 1000))
    def test_tie_heavy_random(self, m):
        rng = np.random.default_rng(m)
        for top in (2, 5, m + 1):
            x = rng.integers(0, top, m)
            assert _strict_inversions(x) == strict_inversions_by_definition(x)

    @pytest.mark.parametrize("m", (33, 97, 129, 4097))
    def test_values_at_the_key_limits(self, m):
        # the merge keys are 2x + side, so x must lie in [-2**62, 2**62)
        low, high = -(2**62), 2**62 - 1
        rng = np.random.default_rng(m)
        x = rng.choice([low, low + 1, -1, 0, high - 1, high], m)
        assert _strict_inversions(x) == strict_inversions_by_definition(x)
        for bad in (high + 1, low - 1):
            x[m // 2] = bad
            with pytest.raises(ValueError):
                _strict_inversions(x)

    def test_fast_counts_near_the_block_size(self):
        rng = random.Random(47)
        for m in (30, 31, 32, 33, 34, 63, 64, 65, 66, 127, 128, 129):
            for _ in range(6):
                g = random_arcgraph(rng, max_n=rng.choice([6, 20, 60]), m=m)
                assert count_crossings_fast(g) == crossings_by_definition(g)
                assert (count_intersections(g)
                        == intersections_by_definition(g))


class TestIntersections:
    def test_nested_pair_intersects(self):
        assert count_intersections(graph_of(4, [(0, 3), (1, 2)])) == 1

    def test_interleaved_pair_intersects(self):
        assert count_intersections(graph_of(4, [(0, 2), (1, 3)])) == 1

    def test_disjoint_intervals(self):
        assert count_intersections(graph_of(4, [(0, 1), (2, 3)])) == 0

    def test_shared_vertex_excluded(self):
        assert count_intersections(graph_of(3, [(0, 2), (1, 2)])) == 0

    def test_matches_definition_and_dominates_crossings(self):
        rng = random.Random(45)
        for _ in range(60):
            g = random_arcgraph(rng, max_n=25, max_m=80)
            ints = count_intersections(g)
            assert ints == intersections_by_definition(g)
            assert ints >= count_crossings_oracle(g)


class TestTranslatePairs:
    def test_single_translate(self):
        assert max_translate_pair_crossings(iset(0, 1, 3), iset(5)) == 0

    def test_single_point_a(self):
        # |A| = 1: no arcs, so no crossings, whatever B is
        assert max_translate_pair_crossings(iset(7), iset(0, 1, 4)) == 0
        assert max_translate_pair_crossings(iset(-(2**70)),
                                            iset(0, 2**70)) == 0

    def test_two_translate_example(self):
        assert max_translate_pair_crossings(iset(0, 1, 3), iset(0, 1)) == 1

    def test_bounded_by_translate_structure(self):
        rng = random.Random(46)
        for _ in range(30):
            A = random_dcd_set(rng, rng.randint(2, 12))
            B = random_integer_set(rng, rng.randint(2, 10), 0, 300)
            assert max_translate_pair_crossings(A, B) <= 2 * len(A) - 1


class TestDegrees:
    def test_path(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0))
        assert degree_sequence(g) == (2, 1, 1)

    def test_two_translate_example(self):
        # vertex holding value 1 touches edges to 0, 2 and 3
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        assert degree_sequence(g) == (3, 2, 1, 1, 1)

    def test_recount_from_scratch(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_arcgraph(rng, max_n=25, max_m=90)
            deg = [0] * g.num_vertices
            for u, v in edge_pairs(g):
                deg[u] += 1
                deg[v] += 1
            assert degree_sequence(g) == tuple(sorted(deg, reverse=True))
            assert sum(degree_sequence(g)) == 2 * g.num_edges


def test_crossing_stats_bundle():
    stats = crossing_stats(iset(0, 1, 3), iset(0, 1))
    assert stats.crossings == 1
    assert stats.intersections == 1
    assert stats.max_translate_pair_crossings == 1
    assert stats.degree_sequence == (3, 2, 1, 1, 1)
    d = stats.as_dict()
    assert list(d) == ["crossings", "intersections",
                       "maxTranslatePairCrossings", "degreeSequence"]


def test_crossing_stats_matches_the_separate_counters():
    rng = random.Random(49)
    cases = [(random_integer_set(rng, rng.randint(2, 12), -90, 90),
              random_integer_set(rng, rng.randint(1, 10), -90, 90))
             for _ in range(20)]
    cases.append((IntegerSet((0, 2**70, 2**71 + 3)),
                  IntegerSet((-(2**80), 5, 2**70))))
    cases.append(coprime_construction(1)[:2])
    for A, B in cases:
        g = build_sum_graph(A, B)
        stats = crossing_stats(A, B)
        assert stats.crossings == count_crossings_fast(plain_copy(g))
        assert stats.intersections == count_intersections(plain_copy(g))
        assert (stats.max_translate_pair_crossings
                == max_translate_pair_crossings(A, B))
        assert stats.degree_sequence == degree_sequence(g)


def test_crossing_stats_degrees_against_the_sum_graph():
    """crossing_stats reads the degrees off the representation profile;
    the sum graph's edges give them independently.  Half the A sets
    repeat gaps (parallel edges, sums with several paths starting or ending
    there) and two thirds of the pairs have sums beyond int64."""
    rng = random.Random(60)
    for i in range(300):
        lo, hi = ((-60, 60), (2**62 - 40, 2**62 + 40), (-2**64, 2**64))[i % 3]
        values = [rng.randint(lo, hi) for _ in range(rng.randint(2, 10))]
        if i % 2:
            gaps = [rng.randint(1, 3) for _ in values[1:]]
            A = IntegerSet(tuple(itertools.accumulate([values[0]] + gaps)))
        else:
            A = IntegerSet.of(values)
        B = IntegerSet.of(rng.randint(lo, hi) for _ in range(rng.randint(1, 10)))
        if len(A) < 2:
            continue
        assert (crossing_stats(A, B).degree_sequence
                == degree_sequence(build_sum_graph(A, B)))


def test_sum_graph_positions_follow_any_dcd_input():
    rng = random.Random(48)
    A = random_dcd_set(rng, 8)
    B = random_integer_set(rng, 5, 0, 100)
    g = build_sum_graph(A, B)
    assert is_dcd(A)
    sums, edges = sum_graph_by_definition(A, B)
    assert g.num_vertices == len({a + b for a in A for b in B}) == len(sums)
    assert edge_pairs(g) == edges


class TestColumns:
    def test_columns_are_read_only_int64(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        for column in (g.u, g.v):
            assert column.dtype == np.int64
            assert not column.flags.writeable
        # an int64 column is kept without a copy
        u, v = np.arange(2, dtype=np.int64), np.arange(1, 3, dtype=np.int64)
        g = ArcGraph(3, u=u, v=v)
        assert g.u is u and g.v is v and not u.flags.writeable

    def test_rejects_mismatched_columns(self):
        # broadcasting the shorter column would make the last two valid
        for u, v in (([0, 1], [1]), ([0, 0], [1]), ([0], [1, 2])):
            with pytest.raises(ValueError, match="one entry per edge"):
                ArcGraph(3, u=u, v=v)


def _check_against_oracles(g):
    crossings = crossings_by_definition(g)
    assert count_crossings_oracle(g) == crossings
    assert count_crossings_fast(g) == crossings
    assert count_intersections(g) == intersections_by_definition(g)
    pairs = edge_pairs(g)
    assert has_parallel_edges(g) == (len(set(pairs)) < len(pairs))
    assert sum(degree_sequence(g)) == 2 * g.num_edges


def _check_sum_graph(A, B):
    """Columns and every count of build_sum_graph(A, B) against the Python
    builder and the quadratic oracles."""
    g = build_sum_graph(A, B)
    sums, edges = sum_graph_by_definition(A, B)
    assert g.num_vertices == len(sums)
    assert edge_pairs(g) == edges
    _check_against_oracles(g)
    expected = max((translate_pair_crossings_by_definition(A, b, c)
                    for i, b in enumerate(B) for c in B[i + 1:]), default=0)
    assert max_translate_pair_crossings(A, B) == expected
    return g


class TestEdgeCases:
    def test_no_edge_and_one_edge(self):
        for pairs in ([], [(0, 2)]):
            g = graph_of(3, pairs)
            assert count_crossings_fast(g) == 0
            assert count_intersections(g) == 0
            assert not has_parallel_edges(g)
        assert degree_sequence(graph_of(3, [])) == (0, 0, 0)

    def test_parallel_edges_against_oracles(self):
        # few vertices and many edges: heavy parallel multiplicities
        rng = random.Random(50)
        for _ in range(60):
            g = random_arcgraph(rng, max_n=6, max_m=40)
            _check_against_oracles(g)

    def test_two_element_a_and_singleton_b(self):
        rng = random.Random(51)
        for _ in range(20):
            _check_sum_graph(random_integer_set(rng, 2, -50, 50),
                             random_integer_set(rng, rng.randint(1, 12), -50, 50))
            A = random_integer_set(rng, rng.randint(2, 12), -50, 50)
            B = random_integer_set(rng, 1, -50, 50)
            assert count_crossings_fast(_check_sum_graph(A, B)) == 0
            assert max_translate_pair_crossings(A, B) == 0

    def test_values_near_the_int64_limits(self):
        # spans near 2**63 but summed below it: the int64 build
        rng = random.Random(52)
        edge = 2**62
        for _ in range(10):
            A = IntegerSet.of([-edge + rng.randrange(9)] + rng.sample(range(-99, 99), 3)
                              + [edge - 10 - rng.randrange(9)])
            B = IntegerSet.of(rng.sample(range(-edge, -edge + 9), 3))
            assert (A.max - A.min) + (B.max - B.min) < 2**63
            _check_sum_graph(A, B)

    def test_spans_beyond_int64_use_python_ints(self):
        rng = random.Random(53)
        for _ in range(10):
            A = IntegerSet.of([-(2**62) + rng.randrange(9)] + rng.sample(range(-99, 99), 3)
                              + [2**62 - rng.randrange(9)])
            B = IntegerSet.of([-(2**62) - rng.randrange(9), 2**62 + rng.randrange(9)]
                              + rng.sample(range(-99, 99), 2))
            assert (A.max - A.min) + (B.max - B.min) >= 2**63
            _check_sum_graph(A, B)
        g = _check_sum_graph(IntegerSet((0, 2**70, 2**71 + 3)),
                             IntegerSet((-(2**80), 5, 2**70)))
        assert g.num_vertices == 9

    def test_random_sum_graphs_against_the_python_builder(self):
        rng = random.Random(54)
        for _ in range(25):
            _check_sum_graph(random_integer_set(rng, rng.randint(2, 10), -80, 80),
                             random_integer_set(rng, rng.randint(1, 8), -80, 80))


# small values, values near +-2**62 (summed spans near 2**63 and past it,
# with sums inside int64 and outside it) and anything up to +-2**64
graph_values = st.one_of(
    st.integers(-50, 50),
    st.integers(-2**62 - 5, -2**62 + 5),
    st.integers(2**62 - 5, 2**62 + 5),
    st.integers(-2**64, 2**64))


@st.composite
def sum_graph_sets(draw):
    """(A, B) of up to 10 values each; half the time A repeats gaps of 1
    to 3, which gives parallel edges."""
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 3), max_size=9))
        A = IntegerSet(tuple(itertools.accumulate([draw(graph_values)] + gaps)))
    else:
        A = IntegerSet.of(draw(st.sets(graph_values, min_size=1, max_size=10)))
    return A, IntegerSet.of(draw(st.sets(graph_values, min_size=1, max_size=10)))


@given(sum_graph_sets())
@example((iset(3, 10, 12), iset(7)))  # |B| = 1
@example((iset(5), iset(0, 3)))  # |A| = 1
@example((iset(5), iset(-2)))  # every pair on one sum
@example((iset(0, 1, 2, 3), iset(0, 1, 5)))  # parallel edges
@example((iset(*range(0, 40, 2)), iset(*range(0, 60, 2))))  # many ties
@example((iset(0, 2**60), iset(0, 2**60 - 1)))  # sort key up to 2**63 - 1
@example((iset(0, 2**60), iset(0, 2**60)))  # a key would reach 2**63
@example((iset(-2**62, 0, 2**62 - 1), iset(-5, 2**62)))  # spans >= 2**63, sums fit
@example((iset(-2**62, 2**62), iset(0, 2**62)))  # a sum reaches 2**63
@example((iset(-2**63, 0), iset(-1, 5)))  # a sum below -2**63
def test_profile_and_sum_graph_against_the_definitions(sets):
    """The profile and the sum graph, each from its sort of the pair sums
    (packed keys or a stable argsort), against the pair-by-pair oracles:
    the counts and their order of first appearance, the sums, the vertex
    count and the u and v columns."""
    A, B = sets
    profile = representation_profile(A, B)
    oracle = representation_profile_by_definition(A, B)
    assert list(profile.counts.items()) == list(oracle.items())
    sums, edges = sum_graph_by_definition(A, B)
    assert [profile.base + x for x in profile.offsets.tolist()] == list(sums)
    if len(A) < 2:
        return
    graph = build_sum_graph(A, B)
    assert graph.num_vertices == len(sums)
    assert graph.u.tolist() == [u for u, _ in edges]
    assert graph.v.tolist() == [v for _, v in edges]


def _sweep_against_the_per_delta_counts(A, B):
    """mult, f and g of the translate-pair sweep against a Counter of the
    differences below span(A) of B - B and the per-delta oracles, value for
    value, with the default blocks and with blocks of one arc pair per
    delta."""
    mult, f, g = _translate_pair_sweep(A, B)
    counts = Counter(c - x for i, x in enumerate(B) for c in B[i + 1:]
                     if c - x < A.max - A.min)
    assert mult.tolist() == [counts[d] for d in sorted(counts)]
    a, _ = _pair_offsets(A, B)
    deltas = np.array(sorted(counts), dtype=a.dtype)
    assert f.tolist() == crossings_by_difference_per_delta(a, deltas).tolist()
    assert g.tolist() == nestings_by_difference_per_delta(a, deltas).tolist()
    with mock.patch.object(arcgraph, "_ARC_PAIR_BLOCK", 1):
        small = _translate_pair_sweep(A, B)
    assert [x.tolist() for x in small] == [mult.tolist(), f.tolist(), g.tolist()]
    return a, f


@settings(max_examples=60)
@given(sum_graph_sets())
@example((iset(0, 1, 2, 4, 5, 6, 8), iset(0, 1, 3, 4, 9)))  # repeated gaps
@example((iset(3, 10, 12), iset(7)))  # |B| = 1
@example((iset(5), iset(0, 3)))  # |A| = 1
@example((iset(-4, 9), iset(0, 2, 5, 20, 21)))  # |A| = 2
@example((iset(0, 1, 3, 7, 12, 20), iset(0, 1, 3, 7, 12, 20)))  # A = B
@example((iset(-2**62, 0, 2**62 - 20), iset(-2**62, -2**62 + 3, -2**62 + 10)))  # int64
@example((iset(-2**62, -2**62 + 3, 2**62 - 9), iset(2**62 - 5, 2**62, 2**62 + 4)))  # 2**63
@example((iset(-2**64, -5, 0, 2**64), iset(-2**64, 3, 2**63)))  # Python ints
def test_translate_pair_sweep_against_the_definitions(sets):
    """crossing_stats and max_translate_pair_crossings, both from the
    translate-pair sweep, against the edge-pair oracles on the whole sum
    graph and the two-translate oracle; the sweep's per-delta counts
    against the per-delta oracles.  An A of one element has no arcs: the
    sweep finds no delta, and crossing_stats refuses it as the sum graph
    does."""
    A, B = sets
    expected = max((translate_pair_crossings_by_definition(A, b, c)
                    for i, b in enumerate(B) for c in B[i + 1:]), default=0)
    assert max_translate_pair_crossings(A, B) == expected
    _sweep_against_the_per_delta_counts(A, B)
    if len(A) < 2:
        with pytest.raises(ValueError, match="at least two elements"):
            crossing_stats(A, B)
        return
    graph = build_sum_graph(A, B)
    stats = crossing_stats(A, B)
    assert stats.crossings == crossings_by_definition(graph)
    assert stats.intersections == intersections_by_definition(graph)
    assert stats.max_translate_pair_crossings == expected


@st.composite
def dispatch_sets(draw):
    """(A, B) on both sides of ``_sweep_is_smaller``: |A| about |B| in a
    narrow range (the sweep), |A| well above |B| (the merge pass) or
    |A| = 2 against a B dense within span(A) (the merge pass);
    half the time A repeats gaps of 1 to 3, which gives parallel edges."""
    shape = draw(st.sampled_from(["even", "wide", "pair"]))
    sizes = {"even": ((2, 12), (1, 12)), "wide": ((14, 24), (1, 3)),
             "pair": ((2, 2), (5, 14))}[shape]
    base = draw(graph_values)
    k = draw(st.integers(*sizes[0]))
    if shape == "pair":
        A = IntegerSet((base, base + draw(st.integers(14, 60))))
    elif draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
        A = IntegerSet(tuple(itertools.accumulate([base] + gaps)))
    else:
        A = IntegerSet.of([base] + draw(st.lists(st.integers(base + 1, base + 60),
                                                 min_size=k - 1, max_size=k - 1,
                                                 unique=True)))
    span = A.max - A.min
    B = draw(st.sets(st.integers(0, span), min_size=sizes[1][0], max_size=sizes[1][1]))
    return A, IntegerSet.of(draw(graph_values) + x for x in B)


@settings(max_examples=80)
@given(dispatch_sets())
@example((iset(0, 1, 3, 7, 12), iset(0, 2, 5, 9)))  # the sweep
@example((iset(*range(0, 60, 3)), iset(0, 50)))  # the merge pass, |A| >> |B|
@example((iset(0, 100), iset(*range(0, 100, 9))))  # the merge pass, |A| = 2
@example((iset(0, 1, 2, 4, 5, 6), iset(0, 1, 3, 4)))  # parallel edges, the sweep
@example((iset(*range(0, 30, 2)), iset(0, 4)))  # parallel edges, the merge pass
@example((iset(3, 10, 12), iset(7)))  # |B| = 1
@example((iset(-2**62, 0, 2**62 - 9), iset(2**62 - 5, 2**62, 2**62 + 4)))  # spans >= 2**63
@example((iset(-2**64, -5, 0, 2**64), iset(-2**64, 3, 2**63)))  # Python-int offsets
def test_sum_graph_counts_on_either_path(sets):
    """``_sweep_is_smaller`` against its rule, with the close pairs of B
    counted pair by pair.  count_crossings_fast and count_intersections on
    the sum graph take the path it picks and agree with the merge pass on
    the plain copy and with the quadratic oracles.  Graphs derived from the
    sum graph carry no summands: a ``dataclasses.replace`` copy and the
    cross subgraph of ``check_bipartite_crossing``."""
    A, B = sets
    g = build_sum_graph(A, B)
    assert g.summands == (A, B)
    close = sum(1 for i, b in enumerate(B) for c in B[i + 1:] if c - b < A.max - A.min)
    arc_pairs = (len(A) - 1) * (len(A) - 2) // 2
    assert _sweep_is_smaller(A, B) == (arc_pairs + 2 * close <= 2 * g.num_edges)
    plain = plain_copy(g)
    crossings = crossings_by_definition(g)
    intersections = intersections_by_definition(g)
    sweep = mock.Mock(wraps=_translate_pair_sweep)
    with mock.patch.object(arcgraph, "_translate_pair_sweep", sweep):
        assert count_crossings_fast(g) == crossings
        assert count_intersections(g) == intersections
    assert sweep.call_count == (2 if _sweep_is_smaller(A, B) else 0)
    assert count_crossings_fast(plain) == crossings
    assert count_intersections(plain) == intersections
    assert count_crossings_oracle(g) == crossings

    copy = dataclasses.replace(g)
    assert copy.summands is None and plain.summands is None
    assert count_crossings_fast(copy) == crossings
    counted = mock.Mock(wraps=count_crossings_fast)
    with mock.patch.object(bounds, "count_crossings_fast", counted):
        bounds.check_bipartite_crossing(g, range(0, g.num_vertices, 2))
    (cross,), _ = counted.call_args
    assert cross.summands is None


class TestTranslatePairsByDifference:
    def test_pair_counts_sum_to_the_crossing_count(self):
        # f(b' - b) of every translate pair, read off two-translate sets B,
        # adds up to the crossings of the whole sum graph
        rng = random.Random(55)
        instances = [(random_integer_set(rng, rng.randint(2, 12), -90, 90),
                      random_integer_set(rng, rng.randint(2, 10), -90, 90))
                     for _ in range(15)]
        instances.append(coprime_construction(1)[:2])
        for A, B in instances:
            pairs = sum(max_translate_pair_crossings(A, IntegerSet((b, c)))
                        for i, b in enumerate(B) for c in B[i + 1:])
            assert pairs == count_crossings_fast(plain_copy(build_sum_graph(A, B)))

    def test_lemma_on_the_constructions(self):
        # two translates of a dcd set cross at most 2|A| - 1 times
        cases = {("coprime", t): coprime_construction(t)[:2] for t in (1, 2, 3, 5)}
        for k in (1, 2):
            seeded = sidon_seed_construction(REFERENCE_SEED, k)
            cases["seeded", k] = (seeded, seeded)
        found = {}
        for name, (A, B) in cases.items():
            assert is_dcd(A)
            found[name] = max_translate_pair_crossings(A, B)
            assert found[name] <= 2 * len(A) - 1
        assert found["coprime", 1] == 104 and found["seeded", 1] == 81
        assert found["coprime", 5] == 1976 and found["seeded", 2] == 3693

    def test_step_count_on_random_pairs(self):
        rng = random.Random(56)
        for _ in range(60):
            _sweep_against_the_per_delta_counts(
                random_integer_set(rng, rng.randint(2, 30), -200, 200),
                random_integer_set(rng, rng.randint(2, 20), -200, 200))

    def test_step_count_on_the_constructions(self):
        cases = [coprime_construction(t)[:2] for t in (1, 2, 3)]
        seeded = sidon_seed_construction(REFERENCE_SEED, 1)
        cases.append((seeded, seeded))
        for A, B in cases:
            _, found = _sweep_against_the_per_delta_counts(A, B)
            assert found.max() == max_translate_pair_crossings(A, B)

    def test_step_count_on_python_ints(self):
        rng = random.Random(57)
        for _ in range(20):
            A = IntegerSet.of([-(2**62) + rng.randrange(9), 2**62 - rng.randrange(9)]
                              + rng.sample(range(-300, 300), rng.randint(1, 20)))
            B = IntegerSet.of([-(2**62) - rng.randrange(9), 2**62 + rng.randrange(9)]
                              + rng.sample(range(-300, 300), rng.randint(1, 15)))
            a, _ = _sweep_against_the_per_delta_counts(A, B)
            assert a.dtype == object

    def test_deltas_on_every_breakpoint_kind(self):
        # For arcs (p, q) and (r, s) of A, f and g change only where delta
        # meets p - s, q - r, p - r or q - s.  A has even points and B - B
        # holds every delta below span(A), so the even deltas land on every
        # breakpoint of every kind and the odd ones fall strictly between
        # them; the second A repeats a gap, so p - r == q - s for some arc
        # pairs and (lo, hi) is empty.
        for A in (iset(0, 2, 6, 14, 24), iset(0, 4, 8, 14, 18)):
            span = A.max - A.min
            mult, f, g = _translate_pair_sweep(A, IntegerSet(tuple(range(span))))
            deltas = range(1, span)
            assert mult.tolist() == [span - d for d in deltas]
            assert f.tolist() == [translate_pair_crossings_by_definition(A, 0, d)
                                  for d in deltas]
            assert (f + g).tolist() == [
                intersections_by_definition(build_sum_graph(A, IntegerSet((0, d))))
                for d in deltas]


def test_peak_memory():
    """Each counter stays within the peak memory the README states for it,
    measured with tracemalloc (numpy reports its buffers there); 64 KB
    covers fixed-size allocations.  The translate-pair sweep and
    crossing_stats are held on coprime t=1, 2, 4 (one block of arc pairs)
    and on |A| = 800 against |B| = 30 (two blocks, the first one full).
    The crossing and intersection counts of a sum graph are held to the
    bound of the path ``_sweep_is_smaller`` picks: the sweep on the coprime
    pairs, the merge pass on |A| = 800 against |B| = 30 and on |A| = 2
    against 3,000 values of B within span(A), where the sweep would gather
    C(3000, 2) differences, some 270 MiB.  A sum graph of |A| = 2 with
    every sum distinct comes closest to the bound of ``build_sum_graph``.
    The sum graph of pairs with summed spans of 2**63 or more, whose pair
    sums are Python ints, is held to the bound for that path on random
    values within +-2**62 (nearly every sum distinct), on an arithmetic
    progression (few distinct sums) and on random values within +-2**87.
    Random values in [2**62, 2**62 + 2**40] have summed spans below 2**63
    but sums beyond int64: int64 offsets, held to the int64 bound."""
    from sumcross.arcgraph import _ARC_PAIR_BLOCK

    def peak(f, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base - (1 << 16)

    def sweep_bound(A, B):
        candidates = sum(1 for i, b in enumerate(B) for c in B[i + 1:]
                         if c - b < A.max - A.min)
        arc_pairs = (len(A) - 1) * (len(A) - 2) // 2
        return (64 * (len(A) + len(B)) + 96 * candidates
                + 32 * min(arc_pairs, _ARC_PAIR_BLOCK))

    rng = random.Random(59)
    cases = [(*coprime_construction(t)[:2], True) for t in (1, 2, 4)]
    cases.append((random_integer_set(rng, 800, 0, 10**7),
                  random_integer_set(rng, 30, 0, 10**7), False))
    for A, B, sweeps in cases:
        assert _sweep_is_smaller(A, B) == sweeps
        bound = sweep_bound(A, B)
        tracemalloc.start()
        try:
            built = peak(build_sum_graph, A, B)
            g = build_sum_graph(A, B)
            m, n = g.num_edges, g.num_vertices
            assert built <= 48 * m + 32 * n
            assert g.u.nbytes + g.v.nbytes == 16 * m
            counted = bound if sweeps else 32 * m + 16 * n
            assert peak(count_crossings_fast, g) <= counted
            assert peak(count_intersections, g) <= counted
            assert peak(has_parallel_edges, g) <= 9 * m
            assert peak(degree_sequence, g) <= 64 * n
            assert peak(max_translate_pair_crossings, A, B) <= bound
            profiled = 40 * len(A) * len(B) + 24 * n + 96 * len(B)
            assert peak(crossing_stats, A, B) <= max(profiled, bound + 40 * n)
        finally:
            tracemalloc.stop()

    A = IntegerSet((0, 3 * 10**9))
    B = random_integer_set(random.Random(56), 3000, 0, 10**9)
    assert not _sweep_is_smaller(A, B)
    g = build_sum_graph(A, B)
    tracemalloc.start()
    try:
        for count in (count_crossings_fast, count_intersections):
            assert peak(count, g) <= 32 * g.num_edges + 16 * g.num_vertices
    finally:
        tracemalloc.stop()

    A = IntegerSet((0, 3 * 10**9))
    B = random_integer_set(random.Random(57), 20000, 0, 10**9)
    tracemalloc.start()
    try:
        built = peak(build_sum_graph, A, B)
    finally:
        tracemalloc.stop()
    g = build_sum_graph(A, B)
    assert g.num_vertices == 2 * len(B)
    assert built <= 48 * g.num_edges + 32 * g.num_vertices

    rng = random.Random(58)
    cases = [(IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(300)),
              IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(200))),
             (IntegerSet.of(k << 55 for k in range(-150, 150)),
              IntegerSet.of(k << 55 for k in range(-100, 100))),
             (IntegerSet.of(rng.randrange(-2**87, 2**87) for _ in range(300)),
              IntegerSet.of(rng.randrange(-2**87, 2**87) for _ in range(200))),
             (IntegerSet.of(rng.randrange(2**62, 2**62 + 2**40) for _ in range(300)),
              IntegerSet.of(rng.randrange(2**62, 2**62 + 2**40) for _ in range(200)))]
    for A, B in cases:
        tracemalloc.start()
        try:
            built = peak(build_sum_graph, A, B)
        finally:
            tracemalloc.stop()
        g = build_sum_graph(A, B)
        if (A.max - A.min) + (B.max - B.min) >= 2**63:
            assert built <= 64 * len(A) * len(B) + 32 * g.num_vertices
        else:
            assert built <= 48 * g.num_edges + 32 * g.num_vertices
