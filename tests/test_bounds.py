import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sumcross import (
    ArcGraph,
    IntegerSet,
    build_sum_graph,
    check_bipartite_crossing,
    check_crossing_lower,
    check_crossing_upper,
    check_degree_weighted_crossing,
    check_doubling_lower,
    check_energy_lower,
    check_heavy_subset,
    check_intersection_lower,
    check_level_set_count,
    check_multiplicity_lower,
    check_sumset_lower,
    coprime_construction,
    count_crossings_fast,
    reports_to_jsonable,
    representation_profile,
    run_all_checks,
    sidon_seed_construction,
    sumset,
    REFERENCE_SEED,
    REFERENCE_TOUR,
)
from helpers import (
    crossings_by_definition,
    edge_pairs,
    random_arcgraph,
    random_dcd_set,
    random_doubling_dcd_set,
    random_integer_set,
    representation_profile_by_definition,
    sumset_size_by_definition,
)


def iset(*values):
    return IntegerSet.of(values)


# small values, values near +-2**62 (summed spans near 2**63 and past it,
# where the sums are Python ints) and anything up to +-2**64
wide_values = st.one_of(
    st.integers(-20, 20),
    st.integers(-2**62 - 3, -2**62 + 3),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-2**64, 2**64))
wide_sets = st.sets(wide_values, min_size=1, max_size=10).map(IntegerSet.of)


def dense_bipartite_instance():
    # dcd set with small gaps plus a long unit progression: the sum graph
    # is an interval of vertices and the even/odd split has enough cross
    # edges to meet the e >= 6 max(|U|,|V|) hypothesis
    rng = random.Random(7)
    gaps = list(range(1, 12))
    rng.shuffle(gaps)
    acc = [0]
    for g in gaps:
        acc.append(acc[-1] + g)
    A = IntegerSet(tuple(acc))
    B = IntegerSet(tuple(range(300)))
    return build_sum_graph(A, B)


class TestSumsetLower:
    def test_tiny_cases(self):
        r = check_sumset_lower(iset(0, 1), iset(0, 1))
        assert r.mode == "assert" and r.satisfied
        assert r.lhs == 3 and r.rhs == pytest.approx(2 * math.sqrt(2 / 27))
        r = check_sumset_lower(iset(0, 1, 3), iset(0, 1, 3))
        assert r.satisfied and r.lhs == 6 and r.rhs == pytest.approx(1.0)

    def test_coprime_instance_ratio(self):
        A, B, _ = coprime_construction(1)
        r = check_sumset_lower(A, B)
        assert r.mode == "assert" and r.satisfied
        plain_ratio = r.lhs / (len(A) * math.sqrt(len(B)))
        assert plain_ratio <= 15  # evidence the general bound is near-tight here

    def test_non_dcd_demotes_to_report(self):
        r = check_sumset_lower(iset(0, 1, 2), iset(0, 5))
        assert r.mode == "report"
        assert r.context["preconditionDcd"] is False

    def test_verdict_matches_squared_out_form(self):
        rng = random.Random(31)
        for _ in range(20):
            A = random_integer_set(rng, rng.randint(1, 15), 0, 200)
            B = random_integer_set(rng, rng.randint(1, 15), 0, 200)
            r = check_sumset_lower(A, B)
            s = sumset_size_by_definition(A, B)
            assert r.satisfied == (27 * s * s >= len(A) ** 2 * len(B))


class TestCrossingUpper:
    def test_single_translate(self):
        r = check_crossing_upper(iset(0, 1, 3), iset(4))
        assert r.satisfied and r.context["crossings"] == 0

    def test_small_example(self):
        r = check_crossing_upper(iset(0, 1, 3), iset(0, 1))
        assert r.satisfied
        assert r.context["crossings"] == 1
        assert r.context["sharpBound"] == 5  # C(2,2) * (2*3-1)
        assert r.lhs == 12  # |B|^2 |A|

    def test_random_dcd_instances(self):
        rng = random.Random(13)
        for _ in range(30):
            A = random_dcd_set(rng, rng.randint(2, 15))
            B = random_integer_set(rng, rng.randint(1, 15), 0, 400)
            r = check_crossing_upper(A, B)
            assert r.mode == "assert" and r.satisfied


class TestCrossingLower:
    def test_small_example(self):
        r = check_crossing_lower(iset(0, 1, 3), iset(0, 1))
        assert r.mode == "report" and r.satisfied
        assert r.lhs == 1
        assert r.rhs == pytest.approx(64 / (27 * 25))

    def test_single_translate_edge_regime_recorded_not_asserted(self):
        r = check_crossing_lower(iset(0, 1, 3, 7, 12), iset(3))
        assert r.mode == "report"
        assert r.lhs == 0 and r.rhs > 0 and not r.satisfied

    def test_coprime_instance_reports_both_sides(self):
        A, B, _ = coprime_construction(1)
        r = check_crossing_lower(A, B)
        assert r.mode == "report"
        assert r.lhs >= 0 and r.rhs > 0 and r.ratio is not None


class TestDegreeWeightedCrossing:
    def test_small_graphs_trivially_satisfied(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1, 3))
        r = check_degree_weighted_crossing(g)
        assert r.satisfied and r.rhs < 0

    def test_edgeless(self):
        g = ArcGraph(5, u=[], v=[])
        r = check_degree_weighted_crossing(g)
        assert r.satisfied and r.lhs == 0
        # no vertices: rhs 0, as in the intersection and bipartite reports
        r = check_degree_weighted_crossing(ArcGraph(0, u=[], v=[]))
        assert r.satisfied and (r.lhs, r.rhs, r.ratio) == (0.0, 0.0, None)

    def test_rejects_multigraphs(self):
        g = build_sum_graph(iset(0, 1, 2), iset(0, 1))
        with pytest.raises(ValueError):
            check_degree_weighted_crossing(g)

    def test_large_dense_instance(self):
        A = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
        g = build_sum_graph(A, A)
        r = check_degree_weighted_crossing(g)
        assert r.mode == "assert" and r.satisfied

    @given(wide_sets.filter(lambda A: len(A) >= 2), wide_sets)
    def test_weighted_cubes_at_any_values(self, A, B):
        g = build_sum_graph(A, B)
        if len(set(edge_pairs(g))) < g.num_edges:
            return  # parallel edges: rejected, see test_rejects_multigraphs
        degrees = sorted(((g.u.tolist() + g.v.tolist()).count(i)
                          for i in range(g.num_vertices)), reverse=True)
        expected = sum(i * d**3 for i, d in enumerate(degrees, start=1))
        r = check_degree_weighted_crossing(g)
        assert r.context["weightedDegreeCubes"] == expected

    def test_weighted_cubes_by_enumeration(self):
        rng = random.Random(23)
        for _ in range(20):
            A = random_dcd_set(rng, rng.randint(2, 25))
            B = random_integer_set(rng, rng.randint(1, 25), 0, 300)
            g = build_sum_graph(A, B)
            degrees = sorted(((g.u.tolist() + g.v.tolist()).count(i)
                              for i in range(g.num_vertices)), reverse=True)
            expected = sum(i * d**3 for i, d in enumerate(degrees, start=1))
            r = check_degree_weighted_crossing(g)
            assert r.context["weightedDegreeCubes"] == expected


class TestBipartiteCrossing:
    def test_sparse_split_reports(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        r = check_bipartite_crossing(g, range(0, g.num_vertices, 2))
        assert r.mode == "report"

    def test_single_cross_edge(self):
        g = ArcGraph(4, u=[0], v=[1])
        r = check_bipartite_crossing(g, {0})
        assert r.mode == "report" and r.lhs == 0

    def test_everything_on_one_side(self):
        g = ArcGraph(4, u=[0, 1], v=[1, 3])
        r = check_bipartite_crossing(g, range(4))
        assert r.context["crossEdges"] == 0 and r.satisfied

    def test_hypothesis_satisfied_dense_instance(self):
        g = dense_bipartite_instance()
        r = check_bipartite_crossing(g, range(0, g.num_vertices, 2))
        assert r.mode == "assert" and r.satisfied
        assert r.context["hypothesisMet"]

    def test_cross_edge_count_matches_definition(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_arcgraph(rng, max_n=20, max_m=60)
            part = set(rng.sample(range(g.num_vertices),
                                  rng.randint(0, g.num_vertices)))
            pairs = [(u, v) for u, v in edge_pairs(g) if (u in part) != (v in part)]
            cross = ArcGraph(g.num_vertices, u=[u for u, _ in pairs],
                             v=[v for _, v in pairs])
            r = check_bipartite_crossing(g, part)
            assert r.context["crossEdges"] == len(pairs)
            assert r.lhs == crossings_by_definition(cross)
            assert r.context["uSize"] == len(part)

    def test_rejects_bad_indices(self):
        g = ArcGraph(4, u=[0], v=[1])
        for part in ({9}, {-1}, [0, 4]):
            with pytest.raises(ValueError):
                check_bipartite_crossing(g, part)


class TestEnergyLower:
    def test_small_example(self):
        r = check_energy_lower(iset(0, 1, 3), iset(0, 1, 3))
        e15 = 3 + 3 * 2**1.5
        assert r.mode == "report"
        assert r.lhs == 6
        assert r.rhs == pytest.approx(e15 ** (2 / 3))
        assert r.ratio == pytest.approx(6 / e15 ** (2 / 3))

    def test_translate_invariance(self):
        a = iset(0, 1, 3)
        r1 = check_energy_lower(a, a)
        r2 = check_energy_lower(a, iset(10, 11, 13))
        assert (r1.lhs, r1.rhs, r1.ratio) == (r2.lhs, r2.rhs, r2.ratio)

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError):
            check_energy_lower(iset(0, 1), iset(0, 1, 2))

    def test_ratios_finite_across_random_instances(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 40)
            A = random_dcd_set(rng, n)
            B = random_integer_set(rng, n, 0, 2000)
            r = check_energy_lower(A, B)
            assert r.ratio is not None and math.isfinite(r.ratio)


class TestHeavySubset:
    def test_hand_checked_singleton(self):
        r = check_heavy_subset(iset(0, 1), iset(0, 1), iset(1))
        assert r.mode == "assert" and r.satisfied
        assert r.lhs == 3 and r.rhs == pytest.approx(0.125)
        assert r.context["delta"] == pytest.approx(2.0)

    def test_full_sumset_consistent_with_main_bound(self):
        rng = random.Random(19)
        for _ in range(25):
            A = random_dcd_set(rng, rng.randint(2, 20))
            B = random_integer_set(rng, rng.randint(1, 20), 0, 500)
            full = sumset(A, B)
            heavy = check_heavy_subset(A, B, full)
            main = check_sumset_lower(A, B)
            assert heavy.satisfied and main.satisfied

    def test_top_singleton_across_random_instances(self):
        rng = random.Random(21)
        for _ in range(25):
            A = random_dcd_set(rng, rng.randint(2, 20))
            B = random_integer_set(rng, rng.randint(1, 20), 0, 500)
            profile = representation_profile(A, B)
            top = max(profile.counts, key=lambda x: (profile.counts[x], -x))
            r = check_heavy_subset(A, B, iset(top))
            assert r.satisfied and r.ratio is not None

    def test_rejects_foreign_subset(self):
        with pytest.raises(ValueError):
            check_heavy_subset(iset(0, 1), iset(0, 1), iset(7))
        with pytest.raises(ValueError, match="^5 is not in the sumset$"):
            check_heavy_subset(iset(0, 1), iset(0, 1), iset(1, 5, 9))

    def test_records_second_case_hypothesis(self):
        r = check_heavy_subset(iset(0, 1), iset(0, 1), iset(1))
        assert "secondCaseHypothesisHeld" in r.context

    @given(wide_sets, wide_sets, st.data())
    def test_subsets_with_foreign_values(self, A, B, data):
        """Any subset of the sumset gets its mass from the oracle; one with
        a foreign value, also one far outside int64, names the smallest."""
        oracle = representation_profile_by_definition(A, B)
        sums = sorted(oracle)
        members = data.draw(st.sets(st.sampled_from(sums), min_size=1,
                                    max_size=4))
        foreign = data.draw(st.sets(st.one_of(
            wide_values, st.sampled_from([sums[0] - 1, sums[-1] + 1,
                                          2**80, -2**80])), max_size=2))
        foreign -= set(sums)
        S = IntegerSet.of(members | foreign)
        if foreign:
            with pytest.raises(ValueError,
                               match=f"^{min(foreign)} is not in the sumset$"):
                check_heavy_subset(A, B, S)
            return
        r = check_heavy_subset(A, B, S)
        assert r.context["subsetMass"] == sum(oracle[x] for x in S)
        assert r.context["subsetSize"] == len(S)
        assert r.context["sumsetSize"] == len(oracle)

    @given(wide_sets, wide_sets)
    @example(iset(5), iset(0, 1))
    @example(iset(0, 1, 3), iset(0, 2**64))
    def test_whole_sumset_report_of_the_suite(self, A, B):
        """run_all_checks reports the whole sumset without building it as a
        set; the report equals the one for the sumset passed in."""
        full = check_heavy_subset(A, B, sumset(A, B)).as_dict()
        heavy = [r.as_dict() for r in run_all_checks(A, B)
                 if r.name == "heavy_subset_ge"]
        assert full in heavy and len(heavy) == 2


class TestLevelSetCount:
    def test_hand_checked(self):
        r = check_level_set_count(iset(0, 1), iset(0, 1), 2)
        assert r.mode == "assert" and r.satisfied
        assert r.lhs == 1
        assert r.rhs == pytest.approx(3 * math.sqrt(6) * 2 / 2**1.5)

    def test_above_max_multiplicity(self):
        r = check_level_set_count(iset(0, 1), iset(0, 1), 5)
        assert r.lhs == 0 and r.satisfied

    def test_t_validation(self):
        with pytest.raises(ValueError):
            check_level_set_count(iset(0, 1), iset(0, 1), 1)

    def test_all_levels_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(20):
            A = random_dcd_set(rng, rng.randint(2, 25))
            B = random_integer_set(rng, rng.randint(2, 25), 0, 300)
            profile = representation_profile(A, B)
            for t in range(2, profile.max_multiplicity() + 1):
                assert check_level_set_count(A, B, t).satisfied


class TestMultiplicityLower:
    def test_progression_ratio_recorded(self):
        A = iset(*range(12))
        r = check_multiplicity_lower(A, A)
        assert r.mode == "report"
        assert r.context["multiplicity"] == 11
        assert r.ratio is not None

    def test_dcd_reduces_to_main_shape(self):
        rng = random.Random(27)
        for _ in range(15):
            A = random_dcd_set(rng, rng.randint(2, 20))
            B = random_integer_set(rng, rng.randint(1, 20), 0, 500)
            r = check_multiplicity_lower(A, B)
            assert r.context["multiplicity"] == 1
            assert r.ratio >= 1 / math.sqrt(27)

    def test_singleton_b_ratio_is_sqrt_multiplicity(self):
        A = iset(0, 1, 2, 3)
        r = check_multiplicity_lower(A, iset(9))
        assert r.ratio == pytest.approx(math.sqrt(3))


class TestIntersectionLower:
    def test_sparse_graph_reports(self):
        g = build_sum_graph(iset(0, 1, 3), iset(0, 1))
        r = check_intersection_lower(g)
        assert r.mode == "report"

    def test_edgeless(self):
        g = ArcGraph(4, u=[], v=[])
        r = check_intersection_lower(g)
        assert r.mode == "report" and r.lhs == 0

    def test_hypothesis_satisfied_dense_instance(self):
        A = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
        g = build_sum_graph(A, A)
        assert 4 * g.num_edges >= 9 * g.num_vertices
        r = check_intersection_lower(g)
        assert r.mode == "assert" and r.satisfied

    def test_multigraph_never_asserted(self):
        # parallel unit intervals meet the edge-density hypothesis but have
        # intersection number zero, so they must stay report-only
        g = build_sum_graph(iset(*range(0, 90, 3)), iset(*range(0, 30, 3)))
        r = check_intersection_lower(g)
        assert r.mode == "report" and not r.satisfied


class TestDoublingLower:
    def test_hand_checked(self):
        r = check_doubling_lower(iset(0, 2, 5), iset(0, 1))
        assert r.mode == "assert" and r.satisfied
        assert r.lhs == 6
        assert r.rhs == pytest.approx(2 / (3 * math.sqrt(3)) * 3 * math.sqrt(2))

    def test_singleton_b(self):
        r = check_doubling_lower(iset(0, 2, 5), iset(4))
        assert r.satisfied and r.lhs == 3

    def test_precondition_violation_reports(self):
        r = check_doubling_lower(iset(0, 1, 4), iset(0, 1))
        assert r.mode == "report"
        assert r.context["preconditionDoublingDcd"] is False

    def test_gap_window_instances(self):
        rng = random.Random(29)
        for _ in range(25):
            A = random_doubling_dcd_set(rng, rng.randint(2, 25))
            B = random_integer_set(rng, rng.randint(1, 25), 0, 800)
            r = check_doubling_lower(A, B)
            assert r.mode == "assert" and r.satisfied


class TestSuiteRunner:
    def test_coprime_instance_passes_all_asserts(self):
        A, B, _ = coprime_construction(1)
        reports = run_all_checks(A, B)
        assert all(r.satisfied for r in reports if r.mode == "assert")
        names = {r.name for r in reports}
        assert "sumset_lower_ge" in names and "crossing_upper_ge" in names

    def test_reports_sorted_and_serializable(self):
        A, B, _ = coprime_construction(1)
        reports = run_all_checks(A, B)
        payload = reports_to_jsonable(reports)
        text = json.dumps(payload)
        assert text == json.dumps(reports_to_jsonable(run_all_checks(A, B)))
        keys = [list(entry) for entry in payload]
        assert all(k == ["name", "lhs", "rhs", "mode", "satisfied", "ratio",
                         "context"] for k in keys)

    def test_oracle_gate_skips_quadratic_checks(self):
        # (k - 1) * l edges: 2,500 keeps both reports, 2,501 drops them
        for k, l, edges in ((51, 50, 2500), (42, 61, 2501)):
            A = IntegerSet(tuple(range(k)))
            B = IntegerSet(tuple(range(0, 1000 * l, 1000)))
            assert build_sum_graph(A, B).num_edges == edges
            names = {r.name for r in run_all_checks(A, B)}
            present = edges == 2500
            assert ("bipartite_crossing_ge" in names) is present
            assert ("intersection_lower_ge" in names) is present

    def test_singleton_a(self):
        reports = run_all_checks(iset(5), iset(0, 1))
        assert all(r.satisfied for r in reports if r.mode == "assert")

    @given(wide_sets, wide_sets)
    @example(iset(5), iset(0, 1, 3))  # |A| = 1
    @example(iset(0, 1, 3, 7), iset(4))  # |B| = 1
    @example(iset(0, 1, 3), iset(2, 5, 6))  # |A| = |B|: the energy report
    @example(iset(0, 1, 2, 3), iset(0, 1))  # parallel edges: no degree report
    @example(iset(-2**64, 0, 2**64), iset(0, 2**63, 2**64))  # beyond int64
    def test_each_report_equals_its_public_checker(self, A, B):
        """The suite computes the shared inputs once; each of its reports
        equals, as a dict, the one the public checker computes alone."""
        oracle = representation_profile_by_definition(A, B)
        top = max(oracle, key=oracle.get)
        expected = [check_sumset_lower(A, B), check_doubling_lower(A, B),
                    check_heavy_subset(A, B, sumset(A, B)),
                    check_heavy_subset(A, B, iset(top))]
        expected += [check_level_set_count(A, B, t)
                     for t in range(2, max(oracle.values()) + 1)]
        if len(A) == len(B):
            expected.append(check_energy_lower(A, B))
        if len(A) >= 2:
            # at most 90 edges: under the gate of the bipartite and
            # intersection reports
            g = build_sum_graph(A, B)
            expected += [check_multiplicity_lower(A, B),
                         check_crossing_upper(A, B),
                         check_crossing_lower(A, B),
                         check_bipartite_crossing(
                             g, range(0, g.num_vertices, 2)),
                         check_intersection_lower(g)]
            if len(set(edge_pairs(g))) == g.num_edges:
                expected.append(check_degree_weighted_crossing(g))

        def dicts(reports):
            return sorted((r.as_dict() for r in reports),
                          key=lambda d: json.dumps(d, sort_keys=True))

        assert dicts(run_all_checks(A, B)) == dicts(expected)

    def test_one_sort_per_builder_and_few_dcd_tests_per_suite(self, monkeypatch):
        # the suite builds the profile and the sum graph through the public
        # builders, each with one sort; coprime t=3 has 13 level-set
        # reports, and A's gaps are tested once for all reports
        from sumcross import arcgraph, bounds, sets
        calls = dict.fromkeys(("profile", "graph", "sort", "is_dcd"), 0)

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        sort = counted("sort", sets._profile_and_order)
        monkeypatch.setattr(sets, "_profile_and_order", sort)
        monkeypatch.setattr(arcgraph, "_profile_and_order", sort)
        monkeypatch.setattr(bounds, "representation_profile",
                            counted("profile", bounds.representation_profile))
        monkeypatch.setattr(bounds, "build_sum_graph",
                            counted("graph", bounds.build_sum_graph))
        monkeypatch.setattr(bounds, "is_dcd", counted("is_dcd", bounds.is_dcd))
        A, B, _ = coprime_construction(3)
        reports = run_all_checks(A, B)
        assert sum(r.name == "level_set_count_lt" for r in reports) >= 10
        assert (calls["profile"], calls["graph"], calls["sort"]) == (1, 1, 2)
        assert calls["is_dcd"] == 1
