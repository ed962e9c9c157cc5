import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcross import (
    EnergyValue,
    IntegerSet,
    RepProfile,
    SetFileError,
    consecutive_difference_multiplicity,
    difference_set,
    energy,
    high_multiplicity_set,
    is_convex,
    is_dcd,
    is_sidon,
    is_tdcd,
    level_set_size,
    load_set,
    representation_profile,
    satisfies_doubling,
    save_set,
    sumset,
    sumset_size,
)
from sumcross import sets as sets_module
from helpers import additive_quadruples, pairwise_sums_distinct, random_integer_set

int_sets = st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=30).map(
    IntegerSet.of)
small_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=12).map(
    IntegerSet.of)


def iset(*values):
    return IntegerSet.of(values)


class TestIntegerSet:
    def test_canonicalization_sorts_and_dedups(self):
        assert IntegerSet.of([3, 1, 1, -2]).elements == (-2, 1, 3)

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IntegerSet((2, 1))
        with pytest.raises(ValueError):
            IntegerSet((1, 1))

    def test_constructor_rejects_empty(self):
        with pytest.raises(ValueError):
            IntegerSet(())

    def test_container_protocol(self):
        s = iset(5, -1, 9)
        assert len(s) == 3 and list(s) == [-1, 5, 9]
        assert 5 in s and 4 not in s
        assert s.min == -1 and s.max == 9
        assert s.gaps() == (6, 4)


class TestSumset:
    def test_translate_identity(self):
        assert sumset(iset(0), iset(5, 7)).elements == (5, 7)

    def test_small_enumeration(self):
        # all 9 pairs of {0,1,3}+{0,1,3}
        s = sumset(iset(0, 1, 3), iset(0, 1, 3))
        assert s.elements == (0, 1, 2, 3, 4, 6)
        assert len(s) == 6

    def test_reference_seed_sum_and_difference_counts(self):
        S = iset(0, 1, 3, 7, 12, 22, 30)
        assert len(sumset(S, S)) == 28
        assert len(difference_set(S, S)) == 43

    def test_difference_small(self):
        assert difference_set(iset(0, 1, 3), iset(0, 1, 3)).elements == (
            -3, -2, -1, 0, 1, 2, 3)
        assert difference_set(iset(4), iset(4)).elements == (0,)

    @given(int_sets, int_sets)
    def test_size_bounds(self, A, B):
        n = len(sumset(A, B))
        assert len(A) + len(B) - 1 <= n <= len(A) * len(B)

    def test_equal_step_progressions_hit_lower_bound(self):
        A = iset(*range(0, 50, 5))
        B = iset(*range(100, 200, 5))
        assert len(sumset(A, B)) == len(A) + len(B) - 1


class TestRepresentationProfile:
    def test_smallest_nontrivial(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        assert p.counts == {0: 1, 1: 2, 2: 1}

    def test_nine_pairs(self):
        p = representation_profile(iset(0, 1, 3), iset(0, 1, 3))
        assert p.counts == {0: 1, 1: 2, 2: 1, 3: 2, 4: 2, 6: 1}

    def test_singleton_translate_all_ones(self):
        p = representation_profile(iset(2, 5, 11), iset(7))
        assert set(p.counts.values()) == {1}

    @given(int_sets, int_sets)
    def test_total_mass(self, A, B):
        p = representation_profile(A, B)
        assert sum(p.counts.values()) == len(A) * len(B)
        assert p.max_multiplicity() <= min(len(A), len(B))

    def test_validation(self):
        with pytest.raises(ValueError):
            RepProfile({0: 1}, (2, 2))
        with pytest.raises(ValueError):
            RepProfile({0: 3, 1: 1}, (2, 2))


class TestEnergy:
    def test_exact_quadratic(self):
        p = representation_profile(iset(0, 1, 3), iset(0, 1, 3))
        e = energy(p, 2)
        assert e.value == 15 and isinstance(e.value, int)

    def test_fractional(self):
        p = representation_profile(iset(0, 1, 3), iset(0, 1, 3))
        expected = 3 + 3 * 2**1.5
        assert energy(p, 1.5).value == pytest.approx(expected, rel=1e-12)

    def test_all_ones_profile(self):
        p = representation_profile(iset(1, 2, 4, 8), iset(100))
        assert energy(p, 1.7).value == pytest.approx(4.0)
        assert energy(p, 3).value == 4

    def test_alpha_validation(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        with pytest.raises(ValueError):
            energy(p, 1)
        with pytest.raises(ValueError):
            energy(p, 0.5)

    def test_float_integer_alpha_is_exact(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        assert energy(p, 2.0).value == 6

    def test_quadratic_energy_counts_quadruples(self):
        rng = random.Random(11)
        for _ in range(10):
            A = random_integer_set(rng, rng.randint(1, 10), -40, 40)
            B = random_integer_set(rng, rng.randint(1, 10), -40, 40)
            p = representation_profile(A, B)
            assert energy(p, 2).value == additive_quadruples(A, B)

    def test_quadruple_count_at_full_scale(self):
        rng = random.Random(12)
        A = random_integer_set(rng, 30, 0, 150)
        B = random_integer_set(rng, 30, 0, 150)
        p = representation_profile(A, B)
        assert energy(p, 2).value == additive_quadruples(A, B)

    @given(small_sets, small_sets, st.floats(1.1, 4.0))
    @settings(max_examples=50)
    def test_value_at_least_support(self, A, B, alpha):
        p = representation_profile(A, B)
        assert energy(p, alpha).value >= len(p.counts)


class TestPredicates:
    def test_dcd_examples(self):
        assert is_dcd(iset(0, 1, 3, 7))
        assert not is_dcd(iset(0, 1, 2))
        assert is_dcd(iset(5))
        assert is_dcd(iset(5, 9))

    def test_convex_examples(self):
        assert is_convex(iset(0, 1, 3, 7))
        assert not is_convex(iset(0, 2, 3))
        assert is_convex(iset(1))

    def test_sidon_examples(self):
        assert is_sidon(iset(0, 1, 3, 7))
        assert not is_sidon(iset(0, 1, 2))  # 0+2 == 1+1
        assert is_sidon(iset(0, 1, 3, 7, 12, 22, 30))

    def test_sidon_matches_literal_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            A = random_integer_set(rng, rng.randint(1, 8), -30, 30)
            assert is_sidon(A) == pairwise_sums_distinct(A)

    def test_tdcd_examples(self):
        assert not is_tdcd(iset(0, 1, 2))
        # lags 1, 2, 3 each give distinct difference lists
        assert is_tdcd(iset(0, 1, 3, 7))

    @given(int_sets)
    def test_implication_chain(self, A):
        if is_convex(A):
            assert is_dcd(A)
        if is_sidon(A):
            assert is_tdcd(A)
        if is_tdcd(A):
            assert is_dcd(A)

    def test_multiplicity_examples(self):
        assert consecutive_difference_multiplicity(iset(0, 1, 2, 4)) == 2
        assert consecutive_difference_multiplicity(iset(0, 1, 3, 7)) == 1
        ap = iset(*range(0, 35, 5))
        assert consecutive_difference_multiplicity(ap) == len(ap) - 1
        with pytest.raises(ValueError):
            consecutive_difference_multiplicity(iset(3))

    @given(int_sets)
    def test_multiplicity_one_iff_dcd(self, A):
        if len(A) >= 2:
            assert (consecutive_difference_multiplicity(A) == 1) == is_dcd(A)

    def test_doubling_examples(self):
        assert satisfies_doubling(iset(0, 3, 7, 12))
        assert not satisfies_doubling(iset(0, 1, 4))
        assert satisfies_doubling(iset(10, 17))
        with pytest.raises(ValueError):
            satisfies_doubling(iset(1))


class TestHighMultiplicity:
    def test_examples(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        assert high_multiplicity_set(p, 2).elements == (1,)
        assert high_multiplicity_set(p, 1).elements == (0, 1, 2)
        p2 = representation_profile(iset(0, 1, 3), iset(0, 1, 3))
        assert high_multiplicity_set(p2, 2).elements == (1, 3, 4)

    def test_empty_level_raises_but_size_is_zero(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        with pytest.raises(ValueError):
            high_multiplicity_set(p, 3)
        assert level_set_size(p, 3) == 0

    def test_t_validation(self):
        p = representation_profile(iset(0, 1), iset(0, 1))
        with pytest.raises(ValueError):
            high_multiplicity_set(p, 0)
        with pytest.raises(ValueError):
            level_set_size(p, 0)

    @given(small_sets, small_sets)
    @settings(max_examples=50)
    def test_antitone_in_t(self, A, B):
        p = representation_profile(A, B)
        top = p.max_multiplicity()
        previous = None
        for t in range(1, top + 1):
            current = set(high_multiplicity_set(p, t).elements)
            if previous is not None:
                assert current <= previous
            previous = current


class TestSumsetSize:
    def test_matches_hash_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            A = random_integer_set(rng, rng.randint(1, 60), -5000, 5000)
            B = random_integer_set(rng, rng.randint(1, 60), -5000, 5000)
            expected = len({a + b for a in A for b in B})
            assert sumset_size(A, B) == expected
            assert sumset_size(A, B, method="stream") == expected

    def test_symmetric_stream_path(self):
        rng = random.Random(29)
        A = random_integer_set(rng, 80, 0, 10**6)
        expected = len({x + y for x in A for y in A})
        assert sumset_size(A, A, method="stream", chunk_elements=512) == expected

    def test_small_chunks_force_many_partitions(self):
        A = IntegerSet.of(range(0, 200, 3))
        B = IntegerSet.of(range(0, 50, 7))
        expected = len({a + b for a in A for b in B})
        assert sumset_size(A, B, method="stream", chunk_elements=16) == expected

    def test_bigint_fallback(self):
        shift = 1 << 70
        A = IntegerSet.of(shift + x for x in (0, 1, 3, 7, 12))
        B = IntegerSet.of(shift * 3 + x for x in (0, 2, 9))
        expected = len({a + b for a in A for b in B})
        assert sumset_size(A, B, method="stream") == expected

    def test_stream_path_near_the_int64_limits(self):
        # every |value| < 2**62 but the summed spans exceed 2**63: x - a
        # wraps in int64 unless the sets are shifted and the span guarded
        A = IntegerSet.of([-(2**62 - 5), 0, 2**62 - 7])
        B = IntegerSet.of([-(2**62 - 9), 3, 2**62 - 11])
        assert sumset_size(A, B, method="stream") == 9
        rng = random.Random(31)
        for _ in range(40):
            A = IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(6))
            B = IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(6))
            expected = len({a + b for a in A for b in B})
            assert sumset_size(A, B, method="stream", chunk_elements=4) == expected

    def test_stream_span_boundary(self, monkeypatch):
        # summed spans up to 2**63 - 2 stay on the int64 chunked path, even
        # with values beyond 2**62; from 2**63 - 1 on the Python-int merge
        # takes over; both count exactly
        merged = []
        original = sets_module._sumset_size_merged
        monkeypatch.setattr(sets_module, "_sumset_size_merged",
                            lambda A, B: merged.append(1) or original(A, B))
        for total in (2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63):
            A = IntegerSet.of([-(2**61), -(2**61) + 1, 2**61 + 5])
            span_b = total - (A.max - A.min)
            B = IntegerSet.of([2**62, 2**62 + 7, 2**62 + span_b // 2 + 1,
                               2**62 + span_b])
            expected = len({a + b for a in A for b in B})
            assert sumset_size(A, B, method="stream", chunk_elements=3) == expected
            assert len(merged) == (total >= 2**63 - 1)
            merged.clear()

    def test_method_validation(self):
        A = iset(0, 1)
        with pytest.raises(ValueError):
            sumset_size(A, A, method="magic")


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.txt"
        original = iset(-5, 0, 17, 123456789123456789)
        save_set(path, original)
        assert load_set(path) == original

    def test_blank_lines_and_unsorted_input(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("7\n\n-2\n\n0\n")
        assert load_set(path).elements == (-2, 0, 7)

    def test_duplicate_diagnostic_names_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("5\n9\n5\n")
        with pytest.raises(SetFileError) as err:
            load_set(path)
        assert ":3:" in str(err.value)
        assert "line 1" in str(err.value)

    def test_non_integer_diagnostic(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("12\nx7\n")
        with pytest.raises(SetFileError) as err:
            load_set(path)
        assert ":2:" in str(err.value)

    def test_rejects_plus_sign_and_floats(self, tmp_path):
        path = tmp_path / "s.txt"
        for bad in ("+5", "1.5", "1e3"):
            path.write_text(f"{bad}\n")
            with pytest.raises(SetFileError):
                load_set(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n\n")
        with pytest.raises(SetFileError):
            load_set(path)


def test_energy_value_is_plain_record():
    e = EnergyValue(2.0, 15)
    assert (e.alpha, e.value) == (2.0, 15)
