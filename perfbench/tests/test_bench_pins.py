"""Independent derivations of the values the benchmark's oracles pin, and
one checked round of every workload on seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

import workloads
from helpers import crossings_by_definition, intersections_by_definition
from sumcross import (REFERENCE_SEED, IntegerSet, build_sum_graph,
                      coprime_construction, sidon_seed_construction,
                      sumset_size)


def sumset_by_enumeration(A, B) -> int:
    return len({a + b for a in A for b in B})


def degree_histogram(A, B) -> dict:
    """Each translate a_1+b, ..., a_k+b is a path: its end vertices get
    degree 1 from it, its inner vertices degree 2."""
    ae = sorted(A)
    degree = Counter()
    for b in B:
        for i, a in enumerate(ae):
            degree[a + b] += 1 if i in (0, len(ae) - 1) else 2
    return dict(Counter(degree.values()))


def max_translate_pair_by_definition(A, B) -> int:
    """Two translates never cross themselves (a path's arcs only touch),
    so the crossings of the two-translate sum graph are the pair's."""
    return max(crossings_by_definition(build_sum_graph(A, IntegerSet((b, c))))
               for b, c in itertools.combinations(sorted(B), 2))


def crossings_by_difference(A, B) -> int:
    """Total crossings as the sum over translate pairs j < j' of f(delta),
    delta = b_j' - b_j, f(delta) = crossings between the path through A and
    the path through A + delta.  An arc (c, e) of A + delta crosses at most
    the arc of A holding c strictly inside (if that arc ends before e) and
    the arc of A holding e strictly inside (if that arc starts after c)."""
    p = np.array(sorted(A), dtype=np.int64)
    b = np.array(sorted(B), dtype=np.int64)
    upper = np.triu_indices(len(b), 1)
    deltas, mult = np.unique((b[None, :] - b[:, None])[upper],
                             return_counts=True)
    n = len(p)

    def holder(x):
        # index i of the arc (p[i], p[i+1]) with p[i] < x < p[i+1], else -1
        i = np.searchsorted(p, x, side="right") - 1
        inner = (i >= 0) & (i < n - 1)
        inner &= p[np.clip(i, 0, n - 1)] != x
        return np.where(inner, i, -1)

    total = 0
    for part in np.array_split(np.arange(len(deltas)),
                               max(1, len(deltas) // 256)):
        d = deltas[part][:, None]
        c, e = p[None, :-1] + d, p[None, 1:] + d
        i, j = holder(c), holder(e)
        first = (i >= 0) & (p[np.clip(i + 1, 0, n - 1)] < e)
        second = (j >= 0) & (p[np.clip(j, 0, n - 1)] > c)
        per_delta = first.sum(axis=1) + second.sum(axis=1)
        total += int((per_delta * mult[part]).sum())
    return total


def _pin_instances():
    A1, B1, _ = coprime_construction(1)
    D = sidon_seed_construction(REFERENCE_SEED, 1)
    return {"coprime_t1": (A1, B1), "seeded_depth1": (D, D)}


@pytest.mark.parametrize("key", ["coprime_t1", "seeded_depth1"])
def test_crossings_small_pins_by_definition(key):
    A, B = _pin_instances()[key]
    pins = workloads.PINS[key]
    graph = build_sum_graph(A, B)
    assert sumset_by_enumeration(A, B) == pins["sumsetSize"]
    assert (len(A) - 1) * len(B) == pins["edges"]
    assert crossings_by_definition(graph) == pins["crossings"]
    assert intersections_by_definition(graph) == pins["intersections"]
    assert degree_histogram(A, B) == pins["degreeHistogram"]
    assert (max_translate_pair_by_definition(A, B)
            == pins["maxTranslatePairCrossings"])


def test_crossings_by_difference_matches_definition():
    for A, B in _pin_instances().values():
        assert (crossings_by_difference(A, B)
                == crossings_by_definition(build_sum_graph(A, B)))


def test_check_coprime_pins():
    A, B, _ = coprime_construction(workloads.COPRIME_T)
    pins = workloads.PINS[f"coprime_t{workloads.COPRIME_T}"]
    assert sumset_by_enumeration(A, B) == pins["sumsetSize"]
    assert (len(A) - 1) * len(B) == pins["edges"]
    assert crossings_by_difference(A, B) == pins["crossings"]


def test_sort_oracle_matches_enumeration():
    rng = random.Random(3)
    for size in (1, 2, 40):
        A = rng.sample(range(10**14, 10**15), size)
        B = rng.sample(range(10**14, 10**15), size)
        for X, Y in ((A, B), (workloads.far_slice(A), workloads.far_slice(B))):
            X, Y = sorted(X), sorted(Y)
            assert (workloads.sumset_size_by_sort(X, Y)
                    == sumset_by_enumeration(X, Y))


def test_far_slice_sits_in_the_int64_wraparound_region(tmp_path):
    """The slice exists to catch the int64 wraparound of a chunked sumset
    counter: every |value| is below 2**62, so a guard on magnitude lets it
    through, yet span(A) + span(B) exceeds 2**63, so computing x - a for a
    sum x and an element a in int64 overflows.  Today's default path counts
    it exactly."""
    workloads.generate("sumset-wide", 1, tmp_path)
    A = workloads.read_set_file(tmp_path / "far_a.txt")
    B = workloads.read_set_file(tmp_path / "far_b.txt")
    assert len(A) == len(B) == workloads.FAR_SIZE
    for S in (A, B):
        assert max(abs(S[0]), abs(S[-1])) < 2**62
        assert S[-1] - S[0] > 2**62 + 2**61
    assert (A[-1] - A[0]) + (B[-1] - B[0]) >= 2**63
    assert (sumset_size(IntegerSet(tuple(A)), IntegerSet(tuple(B)))
            == workloads.sumset_size_by_sort(A, B))


def test_generation_is_seeded(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        workloads.generate("crossings-small", seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_passes_its_oracle(workload, tmp_path):
    inputs = tmp_path / "inputs"
    workloads.generate(workload, 7, inputs)
    want = json.loads(json.dumps(workloads.expected(workload, inputs)))
    for op in workloads.operations(workload, inputs, tmp_path / "out", want):
        op.check(op.run())


def test_wrong_results_are_caught(tmp_path):
    inputs = tmp_path / "inputs"
    workloads.generate("crossings-small", 7, inputs)
    op = workloads.operations("crossings-small", inputs, tmp_path / "out", {})[0]
    rc, stdout, stderr = op.run()
    stats = json.loads(stdout)
    stats["crossings"] += 1
    with pytest.raises(workloads.CheckFailed):
        op.check((rc, json.dumps(stats), stderr))
    with pytest.raises(workloads.CheckFailed):
        op.check((1, stdout, stderr))
