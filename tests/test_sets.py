import itertools
import math
import os
import random
import sys
import tempfile
import threading
import tracemalloc
from bisect import bisect_left
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumcross import (
    REFERENCE_SEED,
    REFERENCE_TOUR,
    EnergyValue,
    IntegerSet,
    RepProfile,
    SetFileError,
    consecutive_difference_multiplicity,
    coprime_construction,
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
    sidon_seed_construction,
    sumset,
    sumset_size,
)
from sumcross import sets as sets_module
from helpers import (additive_quadruples, energy_by_definition,
                     pairwise_sums_distinct, random_integer_set,
                     representation_profile_by_definition, set_file_bytes,
                     sorts_split, sumset_size_by_definition)

int_sets = st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=30).map(
    IntegerSet.of)
small_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=12).map(
    IntegerSet.of)
chunk_sizes = st.sampled_from([1, 2, 3, 64, 1 << 22])
# values within 3 of -2**63, 0, 2**63 - 1 and 2**63, and anywhere between
int64_edges = st.one_of(
    st.sampled_from([c + d for c in (-2**63, 0, 2**63 - 1, 2**63)
                     for d in range(-3, 4)]),
    st.integers(-2**63, 2**63))


# small values, values within 5 of +-2**62 (summed spans near 2**63 and
# past it, where the pair sums leave int64) and anything up to +-2**64
profile_values = st.one_of(
    st.integers(-50, 50),
    st.integers(-2**62 - 5, -2**62 + 5),
    st.integers(2**62 - 5, 2**62 + 5),
    st.integers(-2**64, 2**64))


def iset(*values):
    return IntegerSet.of(values)


@st.composite
def spanned_set(draw, span: int) -> IntegerSet:
    """A set of the given span: its ends, a run of up to 10 consecutive
    values from its minimum (many pairs share a sum) and a few values
    anywhere between."""
    lo = draw(st.integers(-2**65, 2**65))
    run = draw(st.integers(1, 10))
    inside = draw(st.lists(st.integers(lo, lo + span), max_size=4))
    return IntegerSet.of([lo, lo + span, *range(lo, lo + min(run, span + 1)),
                          *inside])


@st.composite
def profile_pairs(draw) -> tuple[IntegerSet, IntegerSet]:
    """(A, B) whose summed spans lie within 3 of 2**32 (the key width),
    2**63 (the offset dtype) or 2**64 - 1 (Python-int keys), or below 100;
    A == B, |A| = 1 or two sets drawn apart."""
    total = draw(st.one_of(
        st.sampled_from([2**32, 2**63, 2**64 - 1]).flatmap(
            lambda c: st.integers(c - 3, c + 3)),
        st.integers(0, 100)))
    shape = draw(st.sampled_from(["apart", "same", "singleton"]))
    if shape == "same":
        A = draw(spanned_set(total // 2))
        return A, A
    span_a = 0 if shape == "singleton" else draw(st.integers(0, total))
    return draw(spanned_set(span_a)), draw(spanned_set(total - span_a))


def chunked_sumset_size(A: IntegerSet, B: IntegerSet, chunk: int) -> int:
    """``sumset_size(A, B)`` with chunks of at most ``chunk`` pairs."""
    with mock.patch.object(sets_module, "_CHUNK_ELEMENTS", chunk):
        return sumset_size(A, B)


def gathered_arrays(monkeypatch) -> list[np.ndarray]:
    """Wrap ``sets._gather``; the list returned collects every array it
    gathers from then on."""
    arrays = []
    gather = sets_module._gather

    def recorded(*args):
        sums = gather(*args)
        arrays.append(sums)
        return sums

    monkeypatch.setattr(sets_module, "_gather", recorded)
    return arrays


def probe_calls(monkeypatch) -> list[int]:
    """Wrap ``sets._rows_below``; the list returned gets one entry per
    probe from then on."""
    probes = []
    rows_below = sets_module._rows_below
    monkeypatch.setattr(sets_module, "_rows_below",
                        lambda *args: probes.append(1) or rows_below(*args))
    return probes


@st.composite
def sort_keys(draw) -> np.ndarray:
    """A uint32, uint64 or int64 array of up to 300 keys, lengths 0 to 3
    drawn often, the dtype's extremes among the values; any values, one
    value repeated, a few repeated, sorted or reversed."""
    dtype, lo, hi = draw(st.sampled_from([(np.uint32, 0, 2**32 - 1),
                                          (np.uint64, 0, 2**64 - 1),
                                          (np.int64, -2**63, 2**63 - 1)]))
    values = st.one_of(st.sampled_from([lo, lo + 1, hi - 1, hi, 0]),
                       st.integers(lo, hi))
    n = draw(st.one_of(st.integers(0, 3), st.integers(0, 300)))
    shape = draw(st.sampled_from(["any", "equal", "few", "sorted", "reversed"]))
    if shape == "equal":
        xs = [draw(values)] * n
    elif shape == "few":
        pool = draw(st.lists(values, min_size=1, max_size=3))
        xs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        xs = draw(st.lists(values, min_size=n, max_size=n))
        if shape != "any":
            xs.sort(reverse=shape == "reversed")
    return np.array(xs, dtype=dtype)


def threads_started(monkeypatch) -> list[int]:
    """Wrap ``threading.Thread.start``; the list returned gets one entry
    per thread started from then on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(1) or start(self))
    return started


def dtypes(arrays: list[np.ndarray]) -> list[np.dtype]:
    return [x.dtype for x in arrays]


def chunk_bounds(A: IntegerSet, B: IntegerSet,
                 chunk: int) -> list[tuple[int, int]]:
    """The chunks [lo, hi) of sum offsets that ``sumset_size`` counts."""
    a = np.array([x - A.min for x in A], dtype=np.uint64)
    b = np.array([x - B.min for x in B], dtype=np.uint64)
    first = np.arange(len(a)) if A == B else np.zeros(len(a), dtype=np.intp)
    return [(lo, hi) for lo, hi, _ in sets_module._chunks(a, b, first, chunk)]


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

    def test_rejection_names_the_first_bad_pair(self):
        with pytest.raises(ValueError, match="got 3 before 2$"):
            IntegerSet((0, 1, 3, 2, 2, -1))

    def test_container_protocol(self):
        s = iset(5, -1, 9)
        assert len(s) == 3 and list(s) == [-1, 5, 9]
        assert 5 in s and 4 not in s
        assert s.min == -1 and s.max == 9
        assert s.gaps() == (6, 4)

    def test_float_element_raises_type_error(self):
        # a float would pass the order check and miscount |A+A|
        for values in ((0, 0.5, 1), (0.0, 1), (0, 2.0)):
            with pytest.raises(TypeError):
                IntegerSet(values)
        with pytest.raises(TypeError):
            IntegerSet.of([0, 0.5, 1])

    def test_numpy_ints_become_python_ints(self):
        # numpy int64 elements near +-2**62 would overflow the span tests
        A = IntegerSet.of(np.array([-2**62, 0, 2**62 - 1]))
        plain = IntegerSet((-2**62, 0, 2**62 - 1))
        assert A == plain and all(type(x) is int for x in A)
        assert sumset(A, A) == sumset(plain, plain)
        assert sumset_size(A, A) == sumset_size(plain, plain) == 6
        profile = representation_profile(A, A)
        assert list(profile.counts.items()) == sorted(
            representation_profile_by_definition(plain, plain).items())
        assert type(profile.base) is int


    def test_results_skip_the_element_pass(self, monkeypatch):
        # sumset, difference_set and high_multiplicity_set build their
        # canonical Python-int tuples without __post_init__; the public
        # constructor still checks every element and the order
        A, B = iset(-7, 0, 2**62, 2**70), iset(-3, 5, 11)
        results = [sumset(A, B), difference_set(A, B),
                   high_multiplicity_set(representation_profile(A, B), 1)]
        checked = []
        post_init = IntegerSet.__post_init__
        monkeypatch.setattr(IntegerSet, "__post_init__",
                            lambda self: checked.append(1) or post_init(self))
        assert [sumset(A, B), difference_set(A, B),
                high_multiplicity_set(representation_profile(A, B), 1)] == results
        assert not checked
        for result in results:
            assert IntegerSet(result.elements) == result
            assert all(type(x) is int for x in result)
        assert len(checked) == 3
        with pytest.raises(TypeError):
            IntegerSet((0, 0.5, 1))
        with pytest.raises(ValueError):
            IntegerSet((2, 1))


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

    @given(st.sets(profile_values, min_size=1, max_size=12),
           st.sets(profile_values, min_size=1, max_size=12))
    @example({7}, {-3, 5, 9})
    @example({-3, 5, 9}, {7})
    @example({2**63 - 1, 2**63}, {2**63, 2**64})
    @example({-2**64, 3, 2**64}, {-5, 2**62})
    @example({-2**62, -1, 0}, {0, 1, 2, 2**62 - 1, 2**62})
    def test_sums_and_differences_by_definition(self, xs, ys):
        A, B = IntegerSet.of(xs), IntegerSet.of(ys)
        assert sumset(A, B).elements == tuple(sorted(
            {a + b for a in xs for b in ys}))
        assert difference_set(A, B).elements == tuple(sorted(
            {a - b for a in xs for b in ys}))


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
        with pytest.raises(ValueError, match=r"^representation counts"):
            RepProfile(0, np.array([0]), np.array([1]), (2, 2))
        with pytest.raises(ValueError, match=r"^count 3 for 0 outside"):
            RepProfile(0, np.array([0, 1]), np.array([3, 1]), (2, 2))

    def test_validation_names_the_first_bad_count(self):
        """The bad count of the smallest sum is named."""
        with pytest.raises(ValueError, match=r"^count 0 for 5 outside"):
            RepProfile(4, np.arange(4), np.array([1, 0, 3, 0]), (2, 2))
        with pytest.raises(ValueError, match=r"^count 0 for 4 outside"):
            RepProfile(4, np.arange(4), np.array([0, 1, 3, 0]), (2, 2))
        with pytest.raises(ValueError, match=r"^count 3 for 6 outside"):
            RepProfile(4, np.array([0, 2]), np.array([1, 3]), (2, 2))

    @given(st.sets(profile_values, min_size=1, max_size=12),
           st.sets(profile_values, min_size=1, max_size=12), st.booleans())
    @example({0}, {1, 2, 4}, False)
    @example({-3, 1, 2, 9}, {5}, False)
    @example({-2**62, 0, 1, 2**62}, set(), True)
    @example({-(2**62) - 1, 2**62}, {0, 2**62}, False)
    @example({2**64, -2**64, 3}, {-2**62, 2**62 + 5}, False)
    # A = B, 2 span(A) = 2**63 - 2 and 2**63: the sums 2a are searched
    # among int64 offsets, then among Python-int offsets
    @example({0, 1, 2, 2**62 - 1}, set(), True)
    @example({-2**61, -2**61 + 1, -2**61 + 2, 2**61}, set(), True)
    def test_matches_definition_in_increasing_order(self, xs, ys, same):
        A = IntegerSet.of(xs)
        B = A if same or not ys else IntegerSet.of(ys)
        profile = representation_profile(A, B)
        oracle = representation_profile_by_definition(A, B)
        assert list(profile.counts.items()) == sorted(oracle.items())
        # the fractional energy is the exactly rounded sum: bit for bit
        assert (energy(profile, 1.5).value.hex()
                == energy_by_definition(oracle, 1.5).hex())

    def test_peak_memory(self, monkeypatch):
        """Peak memory within the bounds the README states, measured with
        tracemalloc (numpy reports its buffers there); 64 KB covers
        fixed-size allocations.  The profile is held to the ``sumset_size``
        bound over all |A||B| pairs, 16 bytes per pair of a chunk plus 64
        per element of A and B (from summed spans of 2**64 - 1 on, values
        below 2**88: 64 per pair of a chunk of a quarter as many pairs plus
        160 per element), plus 32 bytes per distinct sum while the offsets
        are int64 and 80 where they are Python ints (summed spans of 2**63
        on), plus 512 per chunk.  When A == B the pairs are the
        |A|(|A|+1)/2 that the chunk loop gathers, i <= j.  The cases: random
        values (nearly every sum distinct) and an arithmetic progression
        (few), |A| = 1 and |A| = 2 with every sum distinct, in one chunk and
        in many, and A = B of 1,000 values with few distinct sums, where
        gathering all |A|^2 pairs would pass the bound.

        ``sumset`` and ``difference_set``, on the cases in chunks of 2**22
        pairs, are held to the profile's bound plus 80 bytes per distinct
        sum for the result's Python ints, which are largest (36 bytes) when
        the sums pass 2**60, and ``difference_set`` to 48 more per element
        of B for -B.  Every case runs twice: as the program runs, and with
        every sort split over two threads, which adds nothing per key."""
        rng = random.Random(43)
        default = 1 << 22
        cases = [(*coprime_construction(1)[:2], default),
                 (*coprime_construction(2)[:2], default),
                 (random_integer_set(rng, 500, 0, 10**6),
                  random_integer_set(rng, 300, 0, 10**6), default),
                 (random_integer_set(rng, 500, 0, 10**6),
                  random_integer_set(rng, 300, 0, 10**6), 1000),
                 (random_integer_set(rng, 1000, 0, 10**6 - 1),
                  random_integer_set(rng, 1000, 0, 10**6 - 1), 1 << 16),
                 (iset(5), random_integer_set(rng, 20000, -10**9, 10**9),
                  default),
                 (iset(0, 3 * 10**9), random_integer_set(rng, 20000, 0, 10**9),
                  default),
                 (iset(-2**87), IntegerSet.of(rng.randrange(-2**87, 2**87)
                                              for _ in range(20000)), default),
                 (IntegerSet.of(range(0, 3000, 3)),
                  IntegerSet.of(range(0, 900, 3)), default),
                 (IntegerSet.of(range(0, 3000, 3)),
                  IntegerSet.of(range(0, 900, 3)), 4096),
                 (IntegerSet.of(rng.randrange(-2**62, 2**62)
                                for _ in range(300)),
                  IntegerSet.of(rng.randrange(-2**62, 2**62)
                                for _ in range(200)), default),
                 (IntegerSet.of(rng.randrange(-2**62, 2**62)
                                for _ in range(300)),
                  IntegerSet.of(rng.randrange(-2**62, 2**62)
                                for _ in range(200)), 500),
                 (*(IntegerSet.of(rng.randrange(-2**87, 2**87)
                                  for _ in range(250)),) * 2, default),
                 (*(IntegerSet.of(rng.randrange(-2**87, 2**87)
                                  for _ in range(250)),) * 2, 1000),
                 (IntegerSet.of(k << 55 for k in range(-150, 150)),
                  IntegerSet.of(k << 55 for k in range(-100, 100)), default),
                 (iset(0, 2**61), IntegerSet.of(rng.randrange(2**61, 2**62)
                                                for _ in range(20000)), default),
                 (*(random_integer_set(rng, 1000, 0, 3999),) * 2, default)]
        chunks = []
        sorted_keys = sets_module._sorted_keys
        monkeypatch.setattr(sets_module, "_sorted_keys",
                            lambda *args: chunks.append(1) or sorted_keys(*args))

        def peak(build, A, B, chunk):
            chunks.clear()
            with mock.patch.object(sets_module, "_CHUNK_ELEMENTS", chunk):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = build(A, B)
                used = tracemalloc.get_traced_memory()[1] - base - (1 << 16)
            return used, result

        def bound(A, B, chunk, distinct):
            span = (A.max - A.min) + (B.max - B.min)
            wide = span >= 2**64 - 1
            per_pair, per_element = (64, 160) if wide else (16, 64)
            chunk = max(1, chunk // 4) if wide else chunk
            per_sum = 80 if span >= 2**63 else 32
            pairs = (len(A) * (len(A) + 1) // 2 if A == B
                     else len(A) * len(B))
            chunk_pairs = min(pairs, max(chunk, min(len(A), len(B))))
            return (per_pair * chunk_pairs + per_element * (len(A) + len(B))
                    + per_sum * distinct + 512 * len(chunks))

        tracemalloc.start()
        try:
            for (A, B, chunk), split in itertools.product(cases, (False, True)):
                with sorts_split(split):
                    used, profile = peak(representation_profile, A, B, chunk)
                    assert used <= bound(A, B, chunk, len(profile.offsets))
                    del profile
                    # difference_set(A, B) gathers the pairs of A + (-B)
                    builds = ((sumset, B, 0),
                              (difference_set, sets_module._negated(B), 48))
                    for build, Y, per_b in builds if chunk == default else ():
                        used, sums = peak(build, A, B, chunk)
                        assert used <= (bound(A, Y, chunk, len(sums))
                                        + 80 * len(sums) + per_b * len(B))
                        del sums
        finally:
            tracemalloc.stop()

    @given(profile_pairs(), st.sampled_from([1, 7, 64]))
    @example((iset(*range(10)),) * 2, 7)  # the sum 9 has 10 pairs
    @example((iset(0, 1, 2, 2**32 - 2), iset(0, 1, 2)), 1)
    @example((iset(0), iset(-2**63, -1, 0)), 7)
    @example((iset(0, 1, 2, 2**63), iset(0, 1, 2**64 - 2**63 - 1)), 1)
    @settings(max_examples=150)
    def test_chunked_profile_matches_the_definition(self, sets, chunk):
        """The profile built from many chunks, some holding only part of
        one sum's pairs, against the pair-by-pair oracle: the sums in
        increasing order, their counts and the offsets' dtype; as the
        program runs, and with every sort split over two threads."""
        A, B = sets
        oracle = representation_profile_by_definition(A, B)
        sums = sorted(oracle)
        for split in (False, True):
            with mock.patch.object(sets_module, "_CHUNK_ELEMENTS", chunk), \
                    sorts_split(split):
                profile = representation_profile(A, B)
            assert profile.base == sums[0]
            assert [profile.base + x for x in profile.offsets.tolist()] == sums
            assert profile.multiplicities.tolist() == [oracle[x] for x in sums]
            assert profile.offsets.dtype == (
                object if sums[-1] - sums[0] >= 2**63 else np.int64)
            assert profile.multiplicities.dtype == np.int64

    def test_both_sort_paths(self):
        # summed spans 2**63 - 1 keep the offsets in int64; 2**63 does not
        for span_b, dtype in ((2**62 - 1, np.int64), (2**62, object)):
            A = iset(-2**62, -1, 0)
            B = iset(0, 1, 2, span_b - 1, span_b)
            profile = representation_profile(A, B)
            assert profile.offsets.dtype == dtype
            oracle = representation_profile_by_definition(A, B)
            assert list(profile.counts.items()) == sorted(oracle.items())

    @given(st.sets(profile_values, min_size=1, max_size=12),
           st.sets(profile_values, min_size=1, max_size=12), st.booleans())
    @example({7}, {-3, 5, 9}, False)
    @example({-3, 5, 9}, {7}, False)
    @example({-2**62, 0, 2**62}, set(), True)
    @example({-2**62, -1, 0}, {0, 1, 2, 2**62 - 2, 2**62 - 1}, False)
    @example({-2**62, -1, 0}, {0, 1, 2, 2**62 - 1, 2**62}, False)
    @example({-2**64, 3, 2**64}, {-5, 2**62}, False)
    def test_array_fields_levels_and_energies(self, xs, ys, same):
        """The columnar profile against the pair-by-pair oracle: offsets,
        counts and their dtypes, the level sets at every t, and the
        energies (integer ones exact, fractional ones the exactly rounded
        sum, bit for bit)."""
        A = IntegerSet.of(xs)
        B = A if same or not ys else IntegerSet.of(ys)
        profile = representation_profile(A, B)
        oracle = representation_profile_by_definition(A, B)
        sums = sorted(oracle)
        wide = sums[-1] - sums[0] >= 2**63
        assert profile.offsets.dtype == (object if wide else np.int64)
        assert profile.base == sums[0] == A.min + B.min
        assert [profile.base + x for x in profile.offsets.tolist()] == sums
        assert profile.multiplicities.tolist() == [oracle[x] for x in sums]
        assert profile.source_sizes == (len(A), len(B))
        assert len(profile.counts) == len(oracle)
        top = max(oracle.values())
        assert profile.max_multiplicity() == top
        for t in range(1, top + 2):
            level = tuple(x for x in sums if oracle[x] >= t)
            assert level_set_size(profile, t) == len(level)
            if level:
                assert high_multiplicity_set(profile, t).elements == level
            else:
                with pytest.raises(ValueError, match="no sum value"):
                    high_multiplicity_set(profile, t)
        for e in (2, 3):
            value = energy(profile, e).value
            assert type(value) is int
            assert value == sum(c**e for c in oracle.values())
        for alpha in (1.5, 2.5):
            assert (energy(profile, alpha).value.hex()
                    == energy_by_definition(oracle, alpha).hex())

    def test_counts_is_a_read_only_view(self):
        profile = representation_profile(iset(0, 1, 3), iset(0, 1, 3))
        counts = profile.counts
        assert counts[4] == 2 and 6 in counts
        for missing in (5, -1, 7, 2**70, -2**70, 1.5, "4", None):
            assert missing not in counts
        with pytest.raises(KeyError):
            counts[2**64]
        with pytest.raises(TypeError):
            counts[4] = 1
        for name in ("base", "offsets", "multiplicities", "source_sizes"):
            with pytest.raises(AttributeError):
                setattr(profile, name, getattr(profile, name))
            with pytest.raises(AttributeError):
                delattr(profile, name)
        for array in (profile.offsets, profile.multiplicities):
            assert not array.flags.writeable
        wide = representation_profile(iset(-2**64, 0), iset(0, 2**64))
        assert wide.offsets.dtype == object
        assert wide.counts == {-2**64: 1, 0: 2, 2**64: 1}
        assert -1 not in wide.counts and 2**65 not in wide.counts

    def test_validation_of_counts_and_sums_beyond_int64(self):
        with pytest.raises(ValueError, match=f"^count 3 for {2**70} outside"):
            RepProfile(-2**70, np.array([0, 2**71], dtype=object),
                       np.array([1, 3]), (2, 2))
        with pytest.raises(ValueError, match=r"^representation counts"):
            RepProfile(0, np.array([0]), np.array([2**70], dtype=object),
                       (2, 2))
        with pytest.raises(ValueError, match=f"^count {4 - 2**70} for 0 outside"):
            RepProfile(0, np.arange(2),
                       np.array([4 - 2**70, 2**70], dtype=object), (2, 2))


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
        """Values within 30 of the centres: 0; -2**62 or 2**62 (uint64
        offsets); both, where the summed spans of A + A fall on either side
        of 2**64 - 1, where the Python-int keys start; and -2**63 and 2**63,
        spans about 2**64 (Python-int keys).  Both answers occur at
        every set of centres."""
        rng = random.Random(5)
        for centres in ((0,), (-2**62,), (2**62,), (-2**62, 2**62),
                        (-2**63, 2**63)):
            answers = set()
            for _ in range(50):
                A = IntegerSet.of(rng.choice(centres) + x for x in
                                  rng.sample(range(-30, 31), rng.randint(1, 8)))
                sidon = is_sidon(A)
                assert sidon == pairwise_sums_distinct(A)
                answers.add(sidon)
            assert answers == {True, False}

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
            assert chunked_sumset_size(A, B, 64) == expected

    def test_symmetric_stream_path(self):
        rng = random.Random(29)
        A = random_integer_set(rng, 80, 0, 10**6)
        expected = len({x + y for x in A for y in A})
        assert chunked_sumset_size(A, A, 512) == expected

    def test_small_chunks_force_many_partitions(self):
        A = IntegerSet.of(range(0, 200, 3))
        B = IntegerSet.of(range(0, 50, 7))
        expected = len({a + b for a in A for b in B})
        assert chunked_sumset_size(A, B, 16) == expected

    def test_bigint_fallback(self):
        # values past 2**70 with small spans count as uint offsets from
        # the minima; summed spans past 2**64 - 1 take Python-int keys
        shift = 1 << 70
        A = IntegerSet.of(shift + x for x in (0, 1, 3, 7, 12))
        B = IntegerSet.of(shift * 3 + x for x in (0, 2, 9))
        for X in (A, IntegerSet.of([-shift, *A])):
            assert sumset_size(X, B) == len({a + b for a in X for b in B})

    def test_stream_path_near_the_int64_limits(self):
        # every |value| < 2**62 but the summed spans exceed 2**63: x - a
        # wraps in int64 unless the sets are shifted and the span guarded
        A = IntegerSet.of([-(2**62 - 5), 0, 2**62 - 7])
        B = IntegerSet.of([-(2**62 - 9), 3, 2**62 - 11])
        assert sumset_size(A, B) == 9
        rng = random.Random(31)
        for _ in range(40):
            A = IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(6))
            B = IntegerSet.of(rng.randrange(-2**62, 2**62) for _ in range(6))
            expected = len({a + b for a in A for b in B})
            assert chunked_sumset_size(A, B, 4) == expected

    def test_stream_span_boundary(self, monkeypatch):
        # summed spans up to 2**64 - 2 keep uint keys, even with values
        # beyond 2**63; from 2**64 - 1 on every chunk gathers Python-int
        # keys; both count exactly
        gathered = gathered_arrays(monkeypatch)
        for total in (2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63,
                      2**64 - 3, 2**64 - 2, 2**64 - 1, 2**64):
            A = IntegerSet.of([-(2**61), -(2**61) + 1, 2**61 + 5])
            span_b = total - (A.max - A.min)
            B = IntegerSet.of([2**62, 2**62 + 7, 2**62 + span_b // 2 + 1,
                               2**62 + span_b])
            expected = len({a + b for a in A for b in B})
            gathered.clear()
            assert chunked_sumset_size(A, B, 3) == expected
            wide = total >= 2**64 - 1
            assert gathered
            assert [x.dtype == object for x in gathered] == \
                [wide] * len(gathered)

    def test_chunks_keep_their_invariant(self):
        # the chunks increase and are disjoint; each starts at an admissible
        # sum and holds at most chunk pairs or is one value wide; their
        # stops end each row below hi, and together they hold every pair
        rng = random.Random(41)
        multi = 0
        for _ in range(60):
            span = rng.choice([60, 10**4, 10**12, 2**62])
            A = random_integer_set(rng, rng.randint(1, 40), 0, span)
            B = (A if rng.random() < 0.3
                 else random_integer_set(rng, rng.randint(1, 40), 0, span))
            a, b = [x - A.min for x in A], [x - B.min for x in B]
            first = list(range(len(a))) if A == B else [0] * len(a)
            sums = sorted(a[i] + b[j] for i in range(len(a))
                          for j in range(first[i], len(b)))
            chunk = rng.choice([1, 2, 5, 17, 100])
            chunks = list(sets_module._chunks(np.array(a, dtype=np.uint64),
                                              np.array(b, dtype=np.uint64),
                                              np.array(first), chunk))
            previous, counted = 0, 0
            for lo, hi, stops in chunks:
                assert previous <= lo < hi
                assert lo in sums
                inside = bisect_left(sums, hi) - bisect_left(sums, lo)
                assert inside <= chunk or hi - lo == 1
                assert stops.tolist() == [
                    max(f, sum(ai + bj < hi for bj in b))
                    for ai, f in zip(a, first)]
                previous, counted = hi, counted + inside
            assert counted == len(sums)
            assert (chunked_sumset_size(A, B, chunk)
                    == sumset_size_by_definition(A, B))
            multi += len(chunks) > 1
        assert multi >= 40

    def test_each_chunk_gathers_the_pairs_i_le_j_of_a_set_with_itself(self):
        """``_each_chunk`` hands ``reduce`` |A|(|A|+1)/2 keys when A == B,
        an equal copy of A included, and |A||B| otherwise: in one chunk and
        in many, with uint keys and with Python-int keys."""
        rng = random.Random(61)
        for scale in (1, 2**60):
            A, B = (IntegerSet.of(scale * x for x in random_integer_set(
                rng, n, 0, 10**4)) for n in (60, 45))
            twin = IntegerSet.of(list(A))
            cases = ((A, A, 60 * 61 // 2), (A, twin, 60 * 61 // 2),
                     (A, B, 60 * 45), (B, A, 60 * 45))
            for (X, Y, pairs), chunk in itertools.product(cases, (1 << 22, 64)):
                with mock.patch.object(sets_module, "_CHUNK_ELEMENTS", chunk):
                    keys = list(sets_module._each_chunk(
                        X, Y, lambda keys, lo: len(keys)))
                assert sum(keys) == pairs
                assert (len(keys) > 1) == (chunk == 64)

    def test_one_probe_per_chunk_on_the_paper_set(self, monkeypatch):
        # the depth-2 set (1,710,325 pairs i <= j) in chunks of 2**12 pairs
        # gives the one-chunk count with fewer than two _rows_below calls
        # per chunk
        depth2 = sidon_seed_construction(REFERENCE_SEED, 2,
                                         tour=REFERENCE_TOUR)
        assert sumset_size(depth2, depth2) == 609_213
        probes = probe_calls(monkeypatch)
        gathered = gathered_arrays(monkeypatch)
        assert chunked_sumset_size(depth2, depth2, 2**12) == 609_213
        assert len(gathered) > 1 and len(probes) < 2 * len(gathered)

    def test_too_full_probes_at_least_halve(self, monkeypatch):
        # 820 pairs of a dense cluster lie just over one chunk of 800, far
        # below an outlier; a too-full probe is retried at no more than
        # half its width, so the probes stay within the bit length of the
        # sum span
        probes = probe_calls(monkeypatch)
        for top in (2**62, 2**40):
            A = IntegerSet.of([*range(40), top])
            probes.clear()
            assert (chunked_sumset_size(A, A, 800)
                    == sumset_size_by_definition(A, A))
            assert len(probes) <= (2 * top).bit_length()

    def test_gathers_stay_within_a_chunk(self, monkeypatch):
        # no sum has more than min(|A|, |B|) pairs, so with at least that
        # many per chunk no chunk may gather more than chunk pairs
        gathered = gathered_arrays(monkeypatch)
        rng = random.Random(43)
        for _ in range(20):
            A = random_integer_set(rng, rng.randint(20, 200), 0, 10**9)
            B = random_integer_set(rng, rng.randint(20, 200), 0, 10**9)
            chunk = rng.randint(min(len(A), len(B)), 400)
            gathered.clear()
            assert (chunked_sumset_size(A, B, chunk)
                    == sumset_size_by_definition(A, B))
            assert len(gathered) > 1 and max(map(len, gathered)) <= chunk

    def test_key_width_at_the_uint32_limit(self, monkeypatch):
        # one chunk [0, width) holds every sum, the largest being width - 1;
        # keys are uint32 up to width 2**32, and uint32 keys at 2**32 + 1
        # would fold the sums 0 and 2**32 into one
        gathered = gathered_arrays(monkeypatch)
        for width, key in ((2**32 - 1, np.uint32), (2**32, np.uint32),
                           (2**32 + 1, np.uint64)):
            top = width - 1
            pairs = [(iset(-7, -6, -2, top - 16), iset(2**50, 2**50 + 2,
                                                      2**50 + 9))]
            if top % 2 == 0:
                pairs.append((iset(3, 4, 7, top // 2 + 3),) * 2)
            for A, B in pairs:
                assert chunk_bounds(A, B, 1 << 22) == [(0, width)]
                gathered.clear()
                assert sumset_size(A, B) == sumset_size_by_definition(A, B)
                assert dtypes(gathered) == [key]

    def test_keys_wrap_below_the_chunk(self, monkeypatch):
        # a chunk starting past 2**64 - 2**33 pairs a_0 = 0 with the far
        # end of B: a_0 - lo wraps in uint64 before the cast to uint32;
        # the keys are the offsets from lo
        gathered = gathered_arrays(monkeypatch)
        far = 2**64 - 2**33 + 3**20
        A = iset(0, 1, 3, 2**32 + 5)
        B = iset(0, 2, 7, far, far + 1, far + 4)
        for chunk in (1, 2, 3, 5):
            bounds = chunk_bounds(A, B, chunk)
            narrow = [(lo, hi) for lo, hi in bounds if hi - lo <= 2**32]
            assert any(lo > 2**64 - 2**33 for lo, _ in narrow)
            gathered.clear()
            assert (chunked_sumset_size(A, B, chunk)
                    == sumset_size_by_definition(A, B))
            keys = [x for x in gathered if x.dtype == np.uint32]
            assert len(keys) == len(narrow)
            for (lo, hi), x in zip(narrow, keys):
                assert len(x) and int(x.max()) < hi - lo

    def test_one_call_mixes_key_widths(self, monkeypatch):
        # narrow chunks among the sums near 0, 2**40 and 2**41 get uint32
        # keys; the sum of the two minima, 2**40 below the next, is a chunk
        # of its own whose width the first probes leave above 2**32, so it
        # gets uint64 keys
        gathered = gathered_arrays(monkeypatch)
        A = iset(-2**40, 0, 1, 3, 2**40, 2**40 + 2, 2**40 + 7)
        B = iset(-2**40, 0, 2, 9, 2**41 + 1, 2**41 + 4)
        for X, Y in ((A, B), (A, A), (B, B)):
            for chunk in (1, 2, 3, 4, 7):
                bounds = chunk_bounds(X, Y, chunk)
                narrow = sum(hi - lo <= 2**32 for lo, hi in bounds)
                assert 0 < narrow < len(bounds)
                gathered.clear()
                assert (chunked_sumset_size(X, Y, chunk)
                        == sumset_size_by_definition(X, Y))
                assert dtypes(gathered).count(np.uint32) == narrow
                assert (dtypes(gathered).count(np.uint64)
                        >= len(bounds) - narrow)

    def test_key_width_on_the_paper_sets(self, monkeypatch):
        # summed spans: coprime t=3 and the depth-2 set stay below 2**32,
        # two random 15-digit sets span about 2**51
        gathered = gathered_arrays(monkeypatch)
        rng = random.Random(53)
        depth2 = sidon_seed_construction(REFERENCE_SEED, 2,
                                         tour=REFERENCE_TOUR)
        cases = [(coprime_construction(3)[:2], np.uint32),
                 ((depth2, depth2), np.uint32),
                 ((random_integer_set(rng, 300, 10**14, 10**15 - 1),
                   random_integer_set(rng, 300, 10**14, 10**15 - 1)),
                  np.uint64)]
        for (A, B), key in cases:
            gathered.clear()
            assert sumset_size(A, B) == sumset_size_by_definition(A, B)
            assert dtypes(gathered) == [key]

    def test_chunk_elements_validation(self):
        assert chunked_sumset_size(iset(0, 1), iset(0, 1), 1) == 3

    @given(st.integers(2**64 - 3, 2**64 + 1), st.data())
    @settings(max_examples=60)
    def test_summed_spans_at_the_uint64_limit(self, total, data):
        span_a = data.draw(st.integers(1, total - 1))
        span_b = total - span_a
        lo_a = data.draw(st.integers(-2**64, 2**64))
        lo_b = data.draw(st.integers(-2**64, 2**64))
        A = IntegerSet.of([lo_a, lo_a + span_a] + data.draw(
            st.lists(st.integers(lo_a, lo_a + span_a), max_size=4)))
        B = IntegerSet.of([lo_b, lo_b + span_b] + data.draw(
            st.lists(st.integers(lo_b, lo_b + span_b), max_size=4)))
        chunk = data.draw(chunk_sizes)
        assert chunked_sumset_size(A, B, chunk) == \
            sumset_size_by_definition(A, B)

    @given(st.sets(int64_edges, min_size=1, max_size=8),
           st.sets(int64_edges, min_size=1, max_size=8), chunk_sizes)
    @settings(max_examples=80)
    def test_values_at_the_int64_limits(self, xs, ys, chunk):
        A, B = IntegerSet.of(xs), IntegerSet.of(ys)
        expected = sumset_size_by_definition(A, B)
        assert chunked_sumset_size(A, B, chunk) == expected
        assert chunked_sumset_size(A, A, chunk) == \
            sumset_size_by_definition(A, A)

    @given(int_sets, st.integers(-2**70, 2**70), chunk_sizes)
    def test_singletons(self, A, x, chunk):
        X = IntegerSet((x,))
        assert chunked_sumset_size(A, X, chunk) == len(A)
        assert chunked_sumset_size(X, A, chunk) == len(A)
        assert chunked_sumset_size(X, X, chunk) == 1

    @given(small_sets)
    def test_symmetric_with_one_pair_per_chunk(self, A):
        assert chunked_sumset_size(A, A, 1) == \
            sumset_size_by_definition(A, A)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(1, 40), st.integers(1, 40), st.integers(1, 10**4),
           st.sampled_from([1, 2, 3]), chunk_sizes)
    def test_arithmetic_progressions(self, start_a, start_b, k, l, step,
                                     ratio, chunk):
        # many pairs share each sum; equal steps meet the |A|+|B|-1 floor
        A = IntegerSet.of(range(start_a, start_a + k * step, step))
        B = IntegerSet.of(range(start_b, start_b + l * ratio * step,
                                ratio * step))
        expected = sumset_size_by_definition(A, B)
        if ratio == 1:
            assert expected == k + l - 1
        assert chunked_sumset_size(A, B, chunk) == expected
        assert chunked_sumset_size(A, A, chunk) == 2 * k - 1

    @given(st.sets(st.integers(2**64, 2**64 + 10**6), min_size=1, max_size=10),
           st.sets(st.integers(-2**80, 2**80), min_size=1, max_size=6),
           chunk_sizes)
    @settings(max_examples=60)
    def test_bigints_past_2_64(self, xs, ys, chunk):
        # large values with a small span stay on the uint64 path; wide
        # spans gather Python-int keys
        A, B = IntegerSet.of(xs), IntegerSet.of(ys)
        for X, Y in ((A, A), (A, B), (B, B)):
            assert chunked_sumset_size(X, Y, chunk) == \
                sumset_size_by_definition(X, Y)

    def test_peak_memory(self):
        """Peak memory within the bound the README states: 16 bytes per
        pair of a chunk plus 64 per element of A and B, and for summed
        spans past 2**64 - 1, values below 2**88, 64 bytes per pair of a
        chunk of a quarter as many pairs plus 160 per element, measured
        with tracemalloc (numpy reports its buffers there, Python its
        ints); 64 KB covers fixed-size allocations.  Every case runs twice:
        as the program runs, and with every sort split over two threads,
        which adds nothing per key."""
        rng = random.Random(37)

        def peak(A, B, chunk):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            chunked_sumset_size(A, B, chunk)
            return tracemalloc.get_traced_memory()[1] - base - (1 << 16)

        def huge(n):
            return IntegerSet.of(rng.randrange(-2**80, 2**80)
                                 for _ in range(n))

        wide = random_integer_set(rng, 700, 10**14, 10**15)
        # span 2**63 - 1: far + far sums span 2**64 - 2, the widest in uint64
        far = IntegerSet.of([-(2**63), -1]
                            + [rng.randrange(-(2**63), 0) for _ in range(600)])
        cases = [(wide, far, 1 << 22), (wide, wide, 1 << 22),
                 (wide, far, 4096), (far, far, 8000),
                 (random_integer_set(rng, 800, 0, 10**6), iset(7), 1),
                 (iset(7), random_integer_set(rng, 5000, 0, 10**6), 64),
                 # uint32 keys over about 16 chunks
                 (random_integer_set(rng, 2000, 0, 10**6 - 1),
                  random_integer_set(rng, 2000, 0, 10**6 - 1), 1 << 18)]
        # Python-int keys: one chunk, many chunks, and a long A, where the
        # probes' Python ints per element of A dominate
        X, Y = huge(400), huge(300)
        bigint_cases = [(X, Y, 1 << 22), (X, X, 1 << 22), (X, Y, 1 << 14),
                        (huge(3000), huge(3), 1024)]

        def bound(A, B, chunk, per_pair, per_element):
            pairs = (len(A) * (len(A) + 1) // 2 if A == B
                     else len(A) * len(B))
            chunk_pairs = min(pairs, max(chunk, min(len(A), len(B))))
            return per_pair * chunk_pairs + per_element * (len(A) + len(B))

        tracemalloc.start()
        try:
            for split in (False, True):
                with sorts_split(split):
                    for A, B, chunk in cases:
                        assert peak(A, B, chunk) <= bound(A, B, chunk, 16, 64)
                    for A, B, chunk in bigint_cases:
                        assert (peak(A, B, chunk)
                                <= bound(A, B, max(1, chunk // 4), 64, 160))
        finally:
            tracemalloc.stop()


class TestSort:
    """``sets._sort``: one in-place sort, or a partition about the middle
    and the two halves sorted on two threads."""

    @given(sort_keys(), st.sampled_from([1, 2]))
    @settings(max_examples=150)
    def test_matches_np_sort(self, keys, cpus):
        """Every array of one key or more is split when two CPUs are
        usable, none with one; the result is np.sort's, dtype and all."""
        expected = np.sort(keys)
        with mock.patch.object(sets_module, "_SPLIT_SORT_MIN", 1), \
                mock.patch.object(sets_module, "_usable_cpus", lambda: cpus):
            sets_module._sort(keys)
        assert keys.dtype == expected.dtype
        assert keys.tolist() == expected.tolist()

    def test_threads_only_for_large_arrays_and_two_cpus(self, monkeypatch):
        started = threads_started(monkeypatch)
        size = sets_module._SPLIT_SORT_MIN
        rng = np.random.default_rng(5)
        for n, cpus, threads in ((size - 1, 2, 0), (size, 1, 0), (size, 2, 1)):
            keys = rng.integers(0, 2**64, n, dtype=np.uint64)
            expected = np.sort(keys)
            started.clear()
            with mock.patch.object(sets_module, "_usable_cpus", lambda: cpus):
                sets_module._sort(keys)
            assert len(started) == threads
            assert np.array_equal(keys, expected)
        # Python ints hold the GIL through their comparisons: never split
        keys = np.array([int(x) for x in rng.integers(0, 9, size)], dtype=object)
        started.clear()
        with mock.patch.object(sets_module, "_usable_cpus", lambda: 2):
            sets_module._sort(keys)
        assert not started
        assert keys.tolist() == sorted(keys.tolist())

    def test_usable_cpus_follow_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert sets_module._usable_cpus() == len(os.sched_getaffinity(0))
        else:
            assert sets_module._usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_exception_in_either_half_reaches_the_caller(self, failing):
        """A failed sort of either half raises from ``_sort``, and the
        worker thread has ended by then."""
        caller = threading.get_ident()

        class Failing(np.ndarray):
            def sort(self, *args, **kwargs):
                if (threading.get_ident() == caller) == (failing == "caller"):
                    raise RuntimeError(f"the {failing} failed")
                super().sort(*args, **kwargs)

        keys = np.arange(101, dtype=np.int64)[::-1].copy().view(Failing)
        threads = threading.active_count()
        with sorts_split(), pytest.raises(RuntimeError,
                                          match=f"the {failing} failed"):
            sets_module._sort(keys)
        assert threading.active_count() == threads


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.txt"
        original = iset(-5, 0, 17, 123456789123456789)
        save_set(path, original)
        assert load_set(path) == original

    def test_save_creates_missing_directories(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "s.txt"
        save_set(path, iset(1, 2))
        assert load_set(path) == iset(1, 2)

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

    def test_bytes_that_are_not_utf8_diagnostic(self, tmp_path):
        """The first undecodable byte is named at its line, where lines end
        at \\n, \\r\\n or \\r as in text mode; a UTF-8 character that is
        no digit is still not a decimal integer."""
        path = tmp_path / "s.txt"
        for data, byte in ((b"1\n2\n\xff\n", "ff"),
                           (b"1\r\n2\r3\xfe\xff\n", "fe"),
                           (b"1\n\n-\xc3\n9\n", "c3")):
            path.write_bytes(data)
            with pytest.raises(SetFileError,
                               match=f":3: not UTF-8 text: byte 0x{byte}$"):
                load_set(path)
        path.write_bytes("1\n2\n\u00e9\n".encode())
        with pytest.raises(SetFileError,
                           match=":3: not a decimal integer: '\u00e9'$"):
            load_set(path)
        path.write_bytes(b"5\r7\r\n9\n")
        assert load_set(path).elements == (5, 7, 9)

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

    def test_equal_values_written_differently_are_duplicates(self, tmp_path):
        """A duplicate is a repeated value, not a repeated line: 0 and -0,
        and 7 and 007; the error names the line of the first."""
        path = tmp_path / "s.txt"
        for first, again in (("0", "-0"), ("7", "007"), ("-007", "-7")):
            path.write_text(f"3\n{first}\n\n{again}\n")
            with pytest.raises(SetFileError, match=f":4: duplicate value "
                               f"{int(first)} \\(first on line 2\\)$"):
                load_set(path)

    def test_shuffled_file_loads_its_integers(self, tmp_path):
        """10^4 values in random order, negatives and leading zeros among
        them, load to the set of their ``int``s, every element a plain
        Python int."""
        rng = random.Random(71)
        lines = [f"{'-' if x < 0 else ''}{'0' * rng.randrange(3)}{abs(x)}\n"
                 for x in rng.sample(range(-10**6, 10**6), 10**4)]
        path = tmp_path / "s.txt"
        path.write_text("".join(lines))
        loaded = load_set(path)
        assert loaded == IntegerSet.of(int(line) for line in lines)
        assert {type(x) for x in loaded} == {int}

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no digit limit for integer string conversion")
    def test_over_long_integer_diagnostic(self, tmp_path):
        path = tmp_path / "s.txt"
        limit = sys.get_int_max_str_digits()
        path.write_text(f"1\n-{'9' * (limit + 1)}\n")
        with pytest.raises(SetFileError, match=f":2: more than {limit} digits$"):
            load_set(path)

    def test_plain_files_skip_the_line_loop(self, tmp_path, monkeypatch):
        """Files of ASCII digits, '-', spaces, tabs and line ends, each
        nonblank line one value, load without the line-by-line loop: in
        any order, with any line end, with lines of spaces or tabs only,
        a file without a \\n or one longer than a slice."""
        def no_loop(path, data):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(sets_module, "_load_lines", no_loop)
        monkeypatch.setattr(sets_module, "_LOAD_SLICE_BYTES", 5)
        path = tmp_path / "s.txt"
        for data, want in ((b"7\n\n-2\n0\n", (-2, 0, 7)),
                           (b" 5\t\r\n-3 \r\r\n4", (-3, 4, 5)),
                           (b"007\n-0012\n-0\n", (-12, 0, 7)),
                           (b"3\r1\r2\r", (1, 2, 3)),
                           (b"1\n \n2\n", (1, 2)),
                           (b"4\n\t\t\r\n-4\n   \n", (-4, 4)),
                           (b"12\n \t \n9\n8\n   ", (8, 9, 12)),
                           (b"".join(b"%d\n" % x for x in range(99, -1, -1)),
                            tuple(range(100)))):
            path.write_bytes(data)
            assert load_set(path).elements == want

    @pytest.mark.parametrize("data", [
        b"1\n2\xc2\xa0\n", b"\xef\xbb\xbf7\n", b"1\x0b\n", b"1 2\n",
        b"1\t-2\n", b"5 -\n", b"- 5\n", b"--1\n", b"1-2\n", b"+1\n",
        b"1_0\n", b"1\n \n2 3\n", b"-0\n0\n", b"\n\r\n", b"", b"1\n\xff",
        b"1\n" + b"9" * 5000 + b"\n"])
    def test_other_files_go_through_the_line_loop(self, tmp_path, data):
        """Any other file, valid or not, is read by the loop, once, from
        the bytes already read."""
        path = tmp_path / "s.txt"
        path.write_bytes(data)
        with mock.patch.object(sets_module, "_load_lines",
                               wraps=sets_module._load_lines) as loop:
            try:
                load_set(path)
            except SetFileError:
                pass
        loop.assert_called_once_with(path, data)

    @settings(max_examples=300, deadline=None)
    @given(set_file_bytes())
    @example(b"1\n1")
    @example(b"5 -\n3")
    @example(b"3\n \t\n-3\n3")
    @example(b"2\r\xc2\xa07")
    def test_both_paths_give_one_answer(self, data):
        """On any set file, load_set gives the set the line loop gives from
        the same bytes, or raises a SetFileError with the same message."""
        def outcome(load, *args):
            try:
                return load(*args).elements
            except SetFileError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "s.txt")
            path.write_bytes(data)
            assert (outcome(load_set, path)
                    == outcome(sets_module._load_lines, path, data))

    def test_peak_memory(self, tmp_path):
        """Peak memory within the bound the README states, for values below
        2**60 in absolute value: the file's bytes plus 56 per line on the
        whole-file path and 160 per line through the line loop, measured
        with tracemalloc and counting the result.  A sorted and a shuffled
        file of 2 * 10**5 values run through each path; a trailing
        no-break space sends a file to the loop."""
        rng = random.Random(41)
        values = rng.sample(range(-10**12, 10**12), 2 * 10**5)
        path = tmp_path / "s.txt"
        tracemalloc.start()
        try:
            for order in (sorted(values), values):
                text = "".join(f"{x}\n" for x in order)
                for tail, per_line in (("", 56), ("\xa0", 160)):
                    path.write_text(text + tail, encoding="utf-8")
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    loaded = load_set(path)
                    peak = tracemalloc.get_traced_memory()[1] - base
                    assert len(loaded) == len(values)
                    del loaded
                    assert peak <= path.stat().st_size + per_line * len(values)
        finally:
            tracemalloc.stop()


def test_energy_value_is_plain_record():
    e = EnergyValue(2.0, 15)
    assert (e.alpha, e.value) == (2.0, 15)
