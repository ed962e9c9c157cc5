import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sumcross import (
    REFERENCE_SEED,
    REFERENCE_TOUR,
    REFERENCE_WALK_VALUES,
    CoprimeParams,
    EulerTour,
    IntegerSet,
    VectorSequence,
    assemble_increasing,
    construction_exponent,
    coprime_construction,
    default_encoding_base,
    difference_set,
    encode_vectors,
    eulerian_tour,
    extend_walk,
    is_dcd,
    seed_walk,
    sidon_seed_construction,
    sumset,
)

from helpers import (
    assemble_by_definition,
    check_vector_sequence,
    encode_by_definition,
    extend_walk_by_blocks,
)


def iset(*values):
    return IntegerSet.of(values)


TOY_SEED = IntegerSet((0, 1, 3))


class TestCoprimeConstruction:
    def test_t1_params(self):
        _, _, p = coprime_construction(1)
        assert (p.a, p.b, p.c, p.d) == (7, 8, 9, 11)
        assert (p.n, p.k, p.m, p.r) == (56, 99, 63, 88)

    def test_t1_shapes(self):
        A, B, p = coprime_construction(1)
        assert len(A) == 55 and A.max == 2673
        assert len(B) == 62
        assert A.max < p.k * p.n // 2
        assert is_dcd(A) and is_dcd(B)

    def test_t1_exact_sumset(self):
        A, B, p = coprime_construction(1)
        brute = {a + b for a in A for b in B}
        s = sumset(A, B)
        assert set(s.elements) == brute
        assert len(s) == 1635
        assert len(s) < 4 * p.b * p.c * p.d == 3168

    def test_t1_divisibility_and_range(self):
        A, B, p = coprime_construction(1)
        s = sumset(A, B)
        assert 0 <= s.min and s.max < p.a * p.b * p.c * p.d == 5544
        for x in s:
            assert any(x % q == 0 for q in (p.a, p.b, p.c, p.d))

    @pytest.mark.parametrize("t,expected_sumset", [
        (1, 1635), (2, 10215), (3, 30737), (4, 68490), (5, 128456)])
    def test_family_properties(self, t, expected_sumset):
        A, B, p = coprime_construction(t)
        assert len(A) == p.n - 1
        assert len(B) == p.m - 1
        assert is_dcd(A) and is_dcd(B)
        s = sumset(A, B)
        assert len(s) == expected_sumset
        assert len(s) < 4 * p.b * p.c * p.d
        assert s.max < p.a * p.b * p.c * p.d
        seeds = (p.a, p.b, p.c, p.d)
        assert all(any(x % q == 0 for q in seeds) for x in s)
        # near-tightness bookkeeping for the general lower bound
        assert len(s) / (len(A) * math.sqrt(len(B))) <= 15

    def test_every_element_is_a_designated_multiple(self):
        A, B, p = coprime_construction(2)
        assert all(x % p.k == 0 or x % p.n == 0 for x in A)
        assert all(x % p.r == 0 or x % p.m == 0 for x in B)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            coprime_construction(0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CoprimeParams(1, 2, 4, 9, 11, 8, 99, 18, 44)  # 2 and 4 share a factor
        with pytest.raises(ValueError):
            CoprimeParams(1, 8, 7, 9, 11, 56, 99, 72, 77)  # not increasing


class TestEulerTour:
    def test_two_vertices(self):
        assert eulerian_tour(2).visits == (1, 2, 1)

    def test_three_vertices_valid(self):
        tour = eulerian_tour(3)
        assert len(tour.visits) == 7
        steps = set(zip(tour.visits, tour.visits[1:]))
        assert steps == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}

    def test_deterministic(self):
        assert eulerian_tour(6) == eulerian_tour(6)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 9])
    def test_invariants_hold(self, s):
        tour = eulerian_tour(s)  # constructor validates everything
        assert tour.num_vertices == s
        assert tour.visits[0] == tour.visits[-1] == 1

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            eulerian_tour(1)

    def test_validation_catches_bad_tours(self):
        with pytest.raises(ValueError):
            EulerTour(3, (1, 2, 3, 1))  # wrong length
        with pytest.raises(ValueError):
            EulerTour(2, (2, 1, 2))  # wrong endpoints
        with pytest.raises(ValueError):
            EulerTour(3, (1, 2, 1, 2, 3, 2, 1))  # repeats (1,2)
        with pytest.raises(ValueError):
            EulerTour(3, (1, 2, 2, 1, 3, 2, 1))  # self-loop step


class TestReferenceFixture:
    def test_tour_is_valid(self):
        assert REFERENCE_TOUR.num_vertices == 7
        assert len(REFERENCE_TOUR.visits) == 43

    def test_walk_round_trip(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        assert walk.vectors.shape == (43, 1)
        assert walk.vectors[:, 0].tolist() == list(REFERENCE_WALK_VALUES)

    def test_walk_uses_every_nonzero_difference_once(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        diffs = np.diff(walk.vectors[:, 0]).tolist()
        expected = set(difference_set(REFERENCE_SEED, REFERENCE_SEED)) - {0}
        assert len(diffs) == len(set(diffs)) == 42
        assert set(diffs) == expected


class TestSeedWalk:
    def test_toy_walk_from_explicit_tour(self):
        tour = EulerTour(3, (1, 2, 3, 1, 3, 2, 1))
        walk = seed_walk(TOY_SEED, tour)
        values = tuple(walk.vectors[:, 0].tolist())
        assert values == (0, 1, 3, 0, 3, 1, 0)
        diffs = [values[i + 1] - values[i] for i in range(6)]
        assert sorted(diffs) == [-3, -2, -1, 1, 2, 3]

    def test_first_equals_last_equals_zero(self):
        for s in (3, 4, 5):
            seed = {3: TOY_SEED, 4: iset(0, 1, 3, 7), 5: iset(0, 1, 3, 7, 12)}[s]
            walk = seed_walk(seed, eulerian_tour(s))
            assert walk.vectors[0].tolist() == walk.vectors[-1].tolist() == [0]

    def test_rejects_non_sidon(self):
        with pytest.raises(ValueError):
            seed_walk(iset(0, 1, 2), eulerian_tour(3))

    def test_rejects_nonzero_min(self):
        with pytest.raises(ValueError):
            seed_walk(iset(1, 2, 4), eulerian_tour(3))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            seed_walk(TOY_SEED, eulerian_tour(4))


class TestExtendWalk:
    def test_toy_second_level(self):
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        q2 = extend_walk(walk, walk)
        assert q2.dim == 2
        assert len(q2) == 49
        # the type validates distinctness; re-check exhaustively anyway
        rows = q2.vectors.tolist()
        diffs = [tuple(x - y for x, y in zip(rows[i + 1], rows[i]))
                 for i in range(len(rows) - 1)]
        assert len(set(diffs)) == len(diffs) == 48

    def test_reference_second_level_size(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        q2 = extend_walk(walk, walk)
        assert len(q2) == 43 * 43

    def test_block_structure(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        q2 = extend_walk(walk, walk)
        L = len(walk)
        values = walk.vectors[:, 0].tolist()
        rows = q2.vectors.tolist()
        # block 1: constant first walk value; block i > 1 alternates
        # walk[i], walk[i-1] starting and ending with walk[i]
        first_block = [v[1] for v in rows[:L]]
        assert set(first_block) == {values[0]}
        second_block = [v[1] for v in rows[L:2 * L]]
        assert second_block[0] == second_block[-1] == values[1]
        assert set(second_block[::2]) == {values[1]}
        assert set(second_block[1::2]) == {values[0]}
        third_block = [v[1] for v in rows[2 * L:3 * L]]
        assert set(third_block[::2]) == {values[2]}
        assert set(third_block[1::2]) == {values[1]}
        # first coordinates repeat the base sequence in every block
        for block in range(L):
            segment = rows[block * L:(block + 1) * L]
            assert [v[0] for v in segment] == values

    def test_boundary_differences_have_zero_prefix(self):
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        q2 = extend_walk(walk, walk)
        L = len(walk)
        rows = q2.vectors.tolist()
        for block in range(1, L):
            before = rows[block * L - 1]
            after = rows[block * L]
            assert before[0] == after[0]  # only the new coordinate moves

    def test_third_level_toy(self):
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        q3 = extend_walk(extend_walk(walk, walk), walk)
        assert q3.dim == 3 and len(q3) == 343
        assert q3.vectors[0].tolist() == q3.vectors[-1].tolist()

    def test_rejects_even_lengths(self):
        even = VectorSequence(1, ((0,), (2,), (3,), (0,)), 3)
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        with pytest.raises(ValueError):
            extend_walk(even, walk)
        with pytest.raises(ValueError):
            extend_walk(walk, even)

    def test_rejects_multidimensional_walk(self):
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        q2 = extend_walk(walk, walk)
        with pytest.raises(ValueError):
            extend_walk(walk, q2)


class TestVectorSequenceType:
    def test_vectors_are_a_read_only_int64_array(self):
        rows = np.array([[0, 1], [2, 0], [0, 1]], dtype=np.int64)
        seq = VectorSequence(2, rows, 2)
        assert seq.vectors is rows  # kept without a copy
        assert seq.vectors.dtype == np.int64 and not rows.flags.writeable
        assert VectorSequence(1, ((0,), (1,), (0,)), 1).vectors.shape == (3, 1)

    def test_compares_by_identity(self):
        seq = VectorSequence(1, ((0,), (1,), (0,)), 1)
        assert seq == seq
        assert seq != VectorSequence(1, ((0,), (1,), (0,)), 1)

    def test_rejects_coordinates_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            VectorSequence(1, ((0,), (2**63,), (0,)), 2**64)

    def test_rejects_repeated_difference(self):
        with pytest.raises(ValueError):
            VectorSequence(1, ((0,), (1,), (2,), (1,), (0,)), 2)

    def test_names_the_first_gap_that_repeats(self):
        """Gaps 1, 3, 3, 1, -8: the second 3 comes before the second 1, so
        3 is named, though 1 is the smaller gap and occurs first."""
        with pytest.raises(ValueError, match=r"difference \(3,\)$"):
            VectorSequence(1, ((0,), (1,), (4,), (7,), (8,), (0,)), 8)

    def test_rejects_open_sequence(self):
        with pytest.raises(ValueError):
            VectorSequence(1, ((0,), (1,)), 1)

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            VectorSequence(1, ((0,), (5,), (0,)), 3)
        with pytest.raises(ValueError):
            VectorSequence(1, ((0,), (-1,), (0,)), 3)


@st.composite
def vector_sequence_inputs(draw):
    """(dim, rows, max_coord): up to 8 rows of coordinates in
    [-1, max_coord + 1], most of width dim and most closed.  A max_coord of
    2**62 validates over Python ints, since (2 * max_coord + 1)**dim is
    past 2**63."""
    dim = draw(st.integers(1, 3))
    max_coord = draw(st.sampled_from([1, 2, 3, 2**62]))
    coord = st.one_of(st.integers(0, min(max_coord, 3)),
                      st.sampled_from([-1, 0, max_coord, max_coord + 1]))
    widths = (st.integers(dim - 1, dim + 1) if draw(st.integers(0, 4)) == 0
              else st.just(dim))
    row = widths.flatmap(lambda w: st.tuples(*[coord] * w))
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.integers(0, 3)):
        rows.append(rows[0])
    return dim, rows, max_coord


@given(vector_sequence_inputs())
@example((1, [(0,), (1,), (3,), (0,)], 3))  # dim 1
@example((2, [(1, 2)], 3))  # one vector
@example((1, [(0,), (5,), (0,)], 5))  # coordinates 0 and max_coord
@example((1, [(0,), (-1,), (0,)], 3))  # a negative coordinate
@example((2, [(0, 0), (1,), (0, 0)], 3))  # one row of the wrong width
@example((2, [(0,), (1,), (0,)], 3))  # every row of the wrong width
@example((2, [(0, 0), (1, 0), (2, 2), (1, 0), (0, 0)], 2))  # repeats per coordinate only
@example((2, [(0, 0), (1, 1), (2, 2), (0, 0)], 2))  # a repeated difference row
@example((2, [(0, 0), (2**62, 1), (0, 0)], 2**62))  # Python-int codes
@example((1, [(0,), (2**62,), (0,), (2**62,), (0,)], 2**62))  # and a repeat
def test_checks_match_the_tuple_oracle(case):
    """VectorSequence accepts exactly what the tuple-by-tuple checks accept;
    when every row has one width, it raises their message too."""
    dim, rows, max_coord = case
    try:
        check_vector_sequence(dim, rows, max_coord)
    except ValueError as expected:
        with pytest.raises(ValueError) as raised:
            VectorSequence(dim, rows, max_coord)
        if len({len(r) for r in rows}) <= 1:
            assert str(raised.value) == str(expected)
    else:
        seq = VectorSequence(dim, rows, max_coord)
        assert seq.vectors.tolist() == [list(r) for r in rows]


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", [TOY_SEED, iset(0, 1, 4, 9),
                                      iset(0, 2, 7, 8, 11), iset(0, 1, 2**61)])
    def test_lifts_codes_and_sets_at_depths_one_to_three(self, seed):
        # iset(0, 1, 2**61) encodes in base 10**19: codes over Python ints
        walk = seed_walk(seed, eulerian_tour(len(seed)))
        values = walk.vectors[:, 0].tolist()
        base = default_encoding_base(seed)
        rows = [(v,) for v in values]
        seq = walk
        for depth in (1, 2, 3):
            if depth > 1:
                seq = extend_walk(seq, walk)
                rows = extend_walk_by_blocks(rows, values)
            assert seq.vectors.tolist() == [list(r) for r in rows]
            check_vector_sequence(depth, rows, seed.max)
            codes = encode_vectors(seq, base)
            assert codes == encode_by_definition(rows, base)
            A = assemble_increasing(codes, base, depth)
            assert list(A) == assemble_by_definition(codes, base, depth)
            assert A == sidon_seed_construction(seed, depth, base=base)

    def test_codes_on_both_sides_of_int64(self):
        # 49 vectors of dim 2: int64 while 50 * base**2 < 2**63
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        q2 = extend_walk(walk, walk)
        rows = q2.vectors.tolist()
        edge = math.isqrt((2**63 - 1) // 50)
        assert 50 * edge**2 < 2**63 <= 50 * (edge + 1)**2
        past = math.isqrt(2**63 // 49) + 1  # the largest element passes 2**63
        for base in (edge, edge + 1, past, 10**12):
            codes = encode_vectors(q2, base)
            assert all(type(c) is int for c in codes)
            assert codes == encode_by_definition(rows, base)
            A = assemble_increasing(codes, base, 2)
            assert list(A) == assemble_by_definition(codes, base, 2)
            assert (A.max >= 2**63) == (base >= past)


class TestEncodeAssemble:
    def test_positional_formula(self):
        seq = VectorSequence(2, ((3, 12), (0, 0), (3, 12)), 12)
        assert encode_vectors(seq, 100) == [1203, 0, 1203]

    def test_dim_one_is_identity(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        assert encode_vectors(walk, 100) == list(REFERENCE_WALK_VALUES)

    def test_base_must_clear_twice_the_coordinates(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        with pytest.raises(ValueError):
            encode_vectors(walk, 60)
        encode_vectors(walk, 61)  # smallest legal base works

    def test_codes_keep_distinct_consecutive_differences(self):
        walk = seed_walk(TOY_SEED, eulerian_tour(3))
        seq = walk
        for _ in range(2):
            seq = extend_walk(seq, walk)
        codes = encode_vectors(seq, 10)
        diffs = [codes[i + 1] - codes[i] for i in range(len(codes) - 1)]
        assert len(set(diffs)) == len(diffs)

    def test_assemble_reference_values(self):
        walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
        A = assemble_increasing(encode_vectors(walk, 100), 100, 1)
        assert A.elements[:3] == (100, 203, 312)
        assert len(A) == 43 and is_dcd(A)

    def test_assemble_rejects_out_of_range_codes(self):
        for codes, base, dim in (([0, 100], 10, 2), ([-1, 5], 10, 1),
                                 ([3, 2**70], 10, 1)):
            with pytest.raises(ValueError) as expected:
                assemble_by_definition(codes, base, dim)
            with pytest.raises(ValueError) as raised:
                assemble_increasing(codes, base, dim)
            assert str(raised.value) == str(expected.value)

    def test_assemble_refuses_non_integer_codes(self):
        # a float or fraction code raises, on both sides of int64, as in
        # IntegerSet
        for codes, base, dim in (([0.5, 1], 10, 1), ([1, 2.0], 10, 1),
                                 ([Fraction(1, 2), 1], 10, 1),
                                 ([0.5, 2**70], 10, 30)):
            with pytest.raises(TypeError):
                assemble_increasing(codes, base, dim)
        for codes in ([np.int32(0), np.int64(1)], np.array([0, 1], np.uint8)):
            assert assemble_increasing(codes, 10, 1).elements == (10, 21)

    def test_default_base(self):
        assert default_encoding_base(REFERENCE_SEED) == 100
        assert default_encoding_base(TOY_SEED) == 10
        assert default_encoding_base(iset(0, 2, 5)) == 100  # 2*5 = 10 needs > 10


class TestFullConstruction:
    def test_depth1_reference(self):
        A = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
        assert len(A) == 43 and is_dcd(A)
        exact = len({x + y for x in A for y in A})
        assert exact == 795
        assert exact <= 28 * 2 * 43 == 2408

    def test_depth2_reference(self):
        A = sidon_seed_construction(REFERENCE_SEED, 2, tour=REFERENCE_TOUR)
        assert len(A) == 1849 and is_dcd(A)

    def test_depth2_toy_full_pipeline(self):
        A = sidon_seed_construction(TOY_SEED, 2)
        assert len(A) == 49 and is_dcd(A)
        exact = len({x + y for x in A for y in A})
        assert exact == 752
        assert exact <= 6 * 6 * 2 * 49 == 3528

    def test_depth3_sizes_and_dcd(self):
        toy = sidon_seed_construction(TOY_SEED, 3)
        assert len(toy) == 343 and is_dcd(toy)
        ref = sidon_seed_construction(REFERENCE_SEED, 3, tour=REFERENCE_TOUR)
        assert len(ref) == 79507 and is_dcd(ref)

    def test_generated_tour_matches_reference_seed_sizes(self):
        # without the shipped tour the set differs but the shape must not
        A = sidon_seed_construction(REFERENCE_SEED, 1)
        assert len(A) == 43 and is_dcd(A)

    def test_validation(self):
        with pytest.raises(ValueError):
            sidon_seed_construction(iset(0, 1, 2), 1)  # not Sidon
        with pytest.raises(ValueError):
            sidon_seed_construction(TOY_SEED, 0)
        with pytest.raises(ValueError):
            sidon_seed_construction(iset(0, 1), 1)  # too small


class TestConstructionExponent:
    def test_reference_seed(self):
        value = construction_exponent(REFERENCE_SEED)
        assert value == pytest.approx(math.log(43 / 28) / math.log(43), abs=1e-12)
        assert value == pytest.approx(0.11406, abs=1e-5)

    def test_toy_seed(self):
        assert construction_exponent(TOY_SEED) == pytest.approx(
            math.log(7 / 6) / math.log(7), abs=1e-12)
        assert construction_exponent(TOY_SEED) == pytest.approx(0.0792, abs=1e-4)

    def test_ratio_monotonicity_at_fixed_difference_count(self):
        fixed = 43
        scores = [math.log(fixed / sums) / math.log(fixed) for sums in (30, 29, 28)]
        assert scores == sorted(scores)

    def test_rejects_singleton_and_non_sidon(self):
        with pytest.raises(ValueError):
            construction_exponent(iset(9))
        with pytest.raises(ValueError):
            construction_exponent(iset(0, 1, 2))

    def test_pair_seed_scores_zero(self):
        assert construction_exponent(iset(0, 1)) == 0.0


def test_measured_exponents_recorded_against_asymptotic_rate():
    # log |A+A| / log |A| sits below 2 - c only asymptotically; record the
    # measured trajectory and check it is sane and decreasing at toy scale
    walk_rates = []
    for depth in (1, 2):
        A = sidon_seed_construction(REFERENCE_SEED, depth, tour=REFERENCE_TOUR)
        exact = len({x + y for x in A for y in A})
        walk_rates.append(math.log(exact) / math.log(len(A)))
    assert walk_rates[1] < walk_rates[0] < 2.0


def test_random_small_sidon_seeds_round_trip():
    rng = random.Random(99)
    seeds = [iset(0, 1, 3), iset(0, 1, 4, 9), iset(0, 2, 7, 8, 11)]
    for seed in seeds:
        depth = rng.choice((1, 2))
        A = sidon_seed_construction(seed, depth)
        L = len(seed) * (len(seed) - 1) + 1
        assert len(A) == L**depth
        assert is_dcd(A)
