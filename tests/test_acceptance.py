"""Acceptance suite: the binding exit criteria for the package.

Each test prints one PASS line with its measured runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them live.  Budgets are
asserted at the limits stated below, tolerances are pinned in the asserts.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

from sumcross import (
    IntegerSet,
    REFERENCE_SEED,
    REFERENCE_TOUR,
    REFERENCE_WALK_VALUES,
    build_sum_graph,
    check_bipartite_crossing,
    check_crossing_lower,
    check_doubling_lower,
    check_energy_lower,
    check_intersection_lower,
    check_multiplicity_lower,
    construction_exponent,
    coprime_construction,
    count_crossings_fast,
    count_intersections,
    difference_set,
    encode_vectors,
    extend_walk,
    is_dcd,
    max_translate_pair_crossings,
    optimize_exponent,
    run_all_checks,
    seed_walk,
    sidon_seed_construction,
    sumset,
    sumset_size,
)
from sumcross.cli import main as cli_main
from helpers import (
    count_crossings_oracle,
    random_arcgraph,
    random_dcd_set,
    random_doubling_dcd_set,
    random_integer_set,
)

TOY_SEED = IntegerSet((0, 1, 3))


def _stamp(number, budget, started, label):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s (budget {budget}s)"
    print(f"PASS criterion {number}: {label} [{elapsed:.3f}s < {budget}s]")


def test_criterion_1_seed_statistics():
    # warm the code paths, then time the measured computation alone
    sumset(REFERENCE_SEED, REFERENCE_SEED)
    difference_set(REFERENCE_SEED, REFERENCE_SEED)
    started = time.perf_counter()
    sums = len(sumset(REFERENCE_SEED, REFERENCE_SEED))
    diffs = len(difference_set(REFERENCE_SEED, REFERENCE_SEED))
    elapsed = time.perf_counter() - started
    assert sums == 28
    assert diffs == 43
    assert elapsed < 1e-3
    print(f"PASS criterion 1: seed statistics 28/43 [{elapsed * 1e6:.0f}us < 1ms]")


def test_criterion_2_exponent_constants():
    started = time.perf_counter()
    exponent = construction_exponent(REFERENCE_SEED)
    assert exponent == math.log(43 / 28) / math.log(43)
    assert abs(exponent - 0.11406) <= 1e-5
    res = optimize_exponent()
    assert abs(res.f_star - 0.114058) <= 1e-5
    assert abs(res.x_star - 6.99618) <= 1e-3
    _stamp(2, 1.0, started, "exponent constants and optimizer")


def test_criterion_3_recursive_construction():
    started = time.perf_counter()
    # shipped fixture validates and round-trips exactly
    walk = seed_walk(REFERENCE_SEED, REFERENCE_TOUR)
    assert walk.vectors[:, 0].tolist() == list(REFERENCE_WALK_VALUES)

    a1 = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
    assert len(a1) == 43
    assert is_dcd(a1)
    exact1 = len({x + y for x in a1 for y in a1})  # independent enumeration
    assert exact1 <= 2408 == 2 * 28 * 43
    assert sumset_size(a1, a1) == exact1

    a2 = sidon_seed_construction(REFERENCE_SEED, 2, tour=REFERENCE_TOUR)
    assert len(a2) == 1849
    assert is_dcd(a2)
    codes = encode_vectors(extend_walk(walk, walk), 100)
    code_sums = {codes[i] + codes[j]
                 for i in range(len(codes)) for j in range(i, len(codes))}
    assert len(code_sums) <= 784 == 28 * 28
    exact2 = len({x + y for x in a2 for y in a2})
    assert exact2 <= min(2 * 28**2 * 43**2, len(a2) * (len(a2) + 1) // 2)
    _stamp(3, 30.0, started,
           f"recursive construction (|A+A| = {exact1} and {exact2})")


def test_criterion_4_coprime_construction():
    started = time.perf_counter()
    for t in range(1, 6):
        A, B, p = coprime_construction(t)
        assert len(A) == p.n - 1
        assert len(B) == p.m - 1
        assert is_dcd(A) and is_dcd(B)
        sums = sumset(A, B)
        assert 0 <= sums.min and sums.max < p.a * p.b * p.c * p.d
        seeds = (p.a, p.b, p.c, p.d)
        assert all(any(x % q == 0 for q in seeds) for x in sums)
        bound = 4 * p.b * p.c * p.d
        assert len(sums) < bound
        if t == 1:
            assert bound == 3168
    _stamp(4, 10.0, started, "coprime construction t = 1..5")


def test_criterion_5_crossing_engine():
    started = time.perf_counter()
    rng = random.Random(1234)
    checked = 0
    for _ in range(500):
        g = random_arcgraph(rng, max_n=60, max_m=300)
        oracle = count_crossings_oracle(g)
        assert count_crossings_fast(g) == oracle
        assert count_intersections(g) >= oracle
        checked += 1
    # generated sum graphs: random dcd instances plus both constructions
    graphs = []
    for _ in range(30):
        A = random_dcd_set(rng, rng.randint(2, 14))
        B = random_integer_set(rng, rng.randint(1, 12), 0, 400)
        graphs.append(build_sum_graph(A, B))
    A, B, _ = coprime_construction(1)
    graphs.append(build_sum_graph(A, B))
    a1 = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
    graphs.append(build_sum_graph(a1, a1))
    graphs.append(build_sum_graph(TOY_SEED, TOY_SEED))
    for g in graphs:
        oracle = count_crossings_oracle(g)
        assert count_crossings_fast(g) == oracle
        assert count_intersections(g) >= oracle
        checked += 1
    _stamp(5, 30.0, started, f"fast counter vs oracle on {checked} graphs")


def test_criterion_6_crossing_upper_suite():
    started = time.perf_counter()
    rng = random.Random(4321)
    for _ in range(100):
        A = random_dcd_set(rng, rng.randint(2, 40))
        B = random_integer_set(rng, rng.randint(1, 40), 0, 2000)
        g = build_sum_graph(A, B)
        crossings = count_crossings_fast(g)
        k, l = len(A), len(B)
        assert crossings <= (l * (l - 1) // 2) * (2 * k - 1)
        assert crossings <= l * l * k
        assert max_translate_pair_crossings(A, B) <= 2 * k - 1
    _stamp(6, 60.0, started, "crossing upper bounds on 100 dcd instances")


def _assert_clean(reports, instance_label):
    for r in reports:
        if r.mode == "assert":
            assert r.satisfied, (instance_label, r)


def test_criterion_7_theorem_assert_suite():
    started = time.perf_counter()
    rng = random.Random(20240)
    # constructions
    for t in range(1, 6):
        A, B, _ = coprime_construction(t)
        _assert_clean(run_all_checks(A, B), f"coprime t={t}")
    for seed in (TOY_SEED, REFERENCE_SEED):
        for depth in (1, 2):
            A = sidon_seed_construction(seed, depth)
            _assert_clean(run_all_checks(A, A), f"seeded depth={depth}")
    # random corpus
    for i in range(100):
        A = random_dcd_set(rng, rng.randint(2, 50))
        B = random_integer_set(rng, rng.randint(1, 50), 0, 3000)
        _assert_clean(run_all_checks(A, B), f"random {i}")
    # doubling-compliant instances
    for _ in range(20):
        A = random_doubling_dcd_set(rng, rng.randint(2, 30))
        B = random_integer_set(rng, rng.randint(1, 30), 0, 2000)
        r = check_doubling_lower(A, B)
        assert r.mode == "assert" and r.satisfied
    # hypothesis-satisfied bipartite and intersection cases
    gaps = list(range(1, 12))
    rng.shuffle(gaps)
    acc = [0]
    for gp in gaps:
        acc.append(acc[-1] + gp)
    dense = build_sum_graph(IntegerSet(tuple(acc)),
                            IntegerSet(tuple(range(300))))
    r = check_bipartite_crossing(dense, range(0, dense.num_vertices, 2))
    assert r.mode == "assert" and r.satisfied
    a1 = sidon_seed_construction(REFERENCE_SEED, 1, tour=REFERENCE_TOUR)
    g1 = build_sum_graph(a1, a1)
    r = check_intersection_lower(g1)
    assert r.mode == "assert" and r.satisfied
    _stamp(7, 300.0, started, "assert suite clean on the full corpus")


def test_criterion_8_report_suite():
    started = time.perf_counter()
    rng = random.Random(555)
    instances = []
    for _ in range(25):
        n = rng.randint(2, 30)
        instances.append((random_dcd_set(rng, n),
                          random_integer_set(rng, n, 0, 1000)))
    # the |B| = 1 edge regime must be part of the corpus
    instances.append((random_dcd_set(rng, 12), IntegerSet((5,))))
    saw_singleton_b = False
    for A, B in instances:
        if len(A) == len(B):
            r = check_energy_lower(A, B)
            assert r.ratio is not None and math.isfinite(r.ratio)
        r = check_multiplicity_lower(A, B)
        assert r.ratio is not None and math.isfinite(r.ratio)
        r = check_crossing_lower(A, B)
        assert r.lhs >= 0 and r.rhs >= 0
        if len(B) == 1:
            saw_singleton_b = True
            assert r.lhs == 0 and r.rhs > 0 and not r.satisfied
    assert saw_singleton_b
    _stamp(8, 60.0, started, "report suite emits finite ratios everywhere")


def test_criterion_9_reproduce_determinism(tmp_path):
    started = time.perf_counter()
    outdir = tmp_path / "repro"
    json_path = outdir / "table.json"
    assert cli_main(["reproduce-paper", "--outdir", str(outdir),
                     "--json", str(json_path)]) == 0
    first = json_path.read_bytes()
    first_manifest = (outdir / "reproduce-paper-manifest.json").read_bytes()
    assert cli_main(["reproduce-paper", "--outdir", str(outdir),
                     "--json", str(json_path)]) == 0
    assert json_path.read_bytes() == first
    assert (outdir / "reproduce-paper-manifest.json").read_bytes() == first_manifest
    table = json.loads(first)
    assert table["allMatch"] is True
    _stamp(9, 120.0, started, "reproduce-paper byte-identical across runs")


def test_package_republishes_each_module_all():
    import sumcross
    from sumcross import arcgraph, bounds, construct, sets, sidon

    modules = (arcgraph, bounds, construct, sets, sidon)
    for module in modules:
        for name in module.__all__:
            assert getattr(sumcross, name) is getattr(module, name), name
    # a fresh interpreter, since importing sumcross.cli here adds ``cli``
    code = ("import sumcross; print(' '.join(n for n in vars(sumcross)"
            " if not n.startswith('_')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    public = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert sorted(public) == sorted(
        {n for m in modules for n in m.__all__}
        | {"arcgraph", "bounds", "construct", "sets", "sidon"})
