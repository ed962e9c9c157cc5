import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (crossings_by_definition, intersections_by_definition,
                     set_file_bytes, sum_graph_by_definition,
                     translate_pair_crossings_by_definition)
from sumcross import (REFERENCE_SEED, ArcGraph, IntegerSet, coprime_construction,
                      crossing_stats, load_set, save_set, sidon_seed_construction)
from sumcross.cli import _json_with_runs, build_parser, main


def write_set(path, values):
    save_set(path, IntegerSet.of(values))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


class TestConstructCoprime:
    def test_writes_sets_and_sidecar(self, tmp_path):
        assert run("construct", "coprime", "--t", 1, "--outdir", tmp_path) == 0
        A = load_set(tmp_path / "coprime_t1_a.txt")
        B = load_set(tmp_path / "coprime_t1_b.txt")
        assert len(A) == 55 and len(B) == 62
        sidecar = json.loads((tmp_path / "coprime_t1.json").read_text())
        assert sidecar["sumsetSize"] == 1635
        assert sidecar["withinBound"] and sidecar["allSumsDivisible"]
        assert sidecar["params"]["n"] == 56

    def test_sidecar_golden_bytes(self, tmp_path):
        assert run("construct", "coprime", "--t", 1, "--outdir", tmp_path) == 0
        assert hashlib.sha256((tmp_path / "coprime_t1.json").read_bytes()
                              ).hexdigest() == ("c0b5401b30326a7a4ba1b4fa73b80ce7"
                                                "e3a9ca1372b077c148017febbd5d6f89")

    def test_manifest_lists_outputs_and_version(self, tmp_path):
        run("construct", "coprime", "--t", 1, "--outdir", tmp_path)
        manifest = json.loads(
            (tmp_path / "construct-coprime-manifest.json").read_text())
        assert manifest["command"] == "construct-coprime"
        assert manifest["parameters"] == {"t": 1}
        assert len(manifest["outputs"]) == 3
        assert manifest["toolVersion"]

    def test_bad_t_is_an_input_error(self, tmp_path, capsys):
        assert run("construct", "coprime", "--t", 0, "--outdir", tmp_path) == 2
        assert "error" in capsys.readouterr().err


class TestConstructSidonSeed:
    def test_reference_seed_with_reference_tour(self, tmp_path):
        assert run("construct", "sidon-seed", "--seed", "paper", "--k", 1,
                   "--paper-tour", "--outdir", tmp_path) == 0
        A = load_set(tmp_path / "sidon_seed_k1.txt")
        assert len(A) == 43
        assert A.elements[:3] == (100, 203, 312)
        sidecar = json.loads((tmp_path / "sidon_seed_k1.json").read_text())
        assert sidecar["size"] == 43 and sidecar["dcd"]
        assert sidecar["sumsetSize"] == 795
        assert sidecar["sumsetBound"] == 2408
        assert sidecar["withinBound"] is True
        assert sidecar["base"] == 100

    def test_sidecar_golden_bytes(self, tmp_path):
        assert run("construct", "sidon-seed", "--seed", "paper", "--k", 1,
                   "--paper-tour", "--outdir", tmp_path) == 0
        assert hashlib.sha256((tmp_path / "sidon_seed_k1.json").read_bytes()
                              ).hexdigest() == ("b5b5e75b892733f84c104b26e41fe19d"
                                                "76c397d5c489fcfcfa4ecd01dde92829")

    def test_seed_from_file(self, tmp_path):
        seed = write_set(tmp_path / "seed.txt", [0, 1, 3])
        assert run("construct", "sidon-seed", "--seed", seed, "--k", 2,
                   "--outdir", tmp_path) == 0
        A = load_set(tmp_path / "sidon_seed_k2.txt")
        assert len(A) == 49
        manifest = json.loads(
            (tmp_path / "construct-sidon-seed-manifest.json").read_text())
        assert seed in manifest["inputHashes"]

    def test_non_sidon_seed_rejected(self, tmp_path, capsys):
        seed = write_set(tmp_path / "seed.txt", [0, 1, 2])
        assert run("construct", "sidon-seed", "--seed", seed, "--k", 1,
                   "--outdir", tmp_path) == 2
        assert "Sidon" in capsys.readouterr().err

    def test_paper_tour_requires_reference_seed(self, tmp_path, capsys):
        seed = write_set(tmp_path / "seed.txt", [0, 1, 3])
        assert run("construct", "sidon-seed", "--seed", seed, "--k", 1,
                   "--paper-tour", "--outdir", tmp_path) == 2
        assert "paper" in capsys.readouterr().err

    def test_base_zero_is_an_input_error(self, tmp_path, capsys):
        # --base 0 is a base like any other, not a request for the default
        assert run("construct", "sidon-seed", "--seed", "paper", "--k", 1,
                   "--base", 0, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "sidon_seed_k1.txt").exists()


class TestAnalyze:
    def test_singleton_pair(self, tmp_path, capsys):
        single = write_set(tmp_path / "single.txt", [0])
        assert run("analyze", "--a", single, "--b", single,
                   "--outdir", tmp_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sumsetSize"] == 1
        assert out["energy2"] == 1 and out["energy15"] == 1.0
        assert out["multiplicityHistogram"] == {"1": 1}

    def test_json_and_csv_outputs(self, tmp_path):
        a = write_set(tmp_path / "a.txt", [0, 1, 3])
        out = tmp_path / "analysis.json"
        csv = tmp_path / "hist.csv"
        assert run("analyze", "--a", a, "--b", a, "--json", out, "--csv", csv,
                   "--outdir", tmp_path) == 0
        data = json.loads(out.read_text())
        assert data["sumsetSize"] == 6 and data["differenceSize"] == 7
        assert data["energy2"] == 15
        assert csv.read_text() == "multiplicity,count\n1,3\n2,3\n"

    def test_difference_size_matches_difference_set(self, tmp_path, capsys):
        rng = random.Random(60)
        cases = [(REFERENCE_SEED, REFERENCE_SEED),
                 (IntegerSet((5,)), IntegerSet((-3,)))]
        for _ in range(8):
            A = IntegerSet.of(rng.sample(range(-300, 300), rng.randint(1, 25)))
            B = IntegerSet.of(rng.sample(range(-300, 300), rng.randint(1, 25)))
            cases += [(A, B), (A, A)]
        cases.append((IntegerSet((-(2**62), 0, 2**62)),
                      IntegerSet((-(2**62), 7))))
        for A, B in cases:
            save_set(tmp_path / "a.txt", A)
            save_set(tmp_path / "b.txt", B)
            assert run("analyze", "--a", tmp_path / "a.txt", "--b",
                       tmp_path / "b.txt", "--outdir", tmp_path) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["differenceSize"] == len({a - b for a in A for b in B})

    def test_byte_stable_across_runs(self, tmp_path):
        a = write_set(tmp_path / "a.txt", [0, 1, 3, 7])
        out = tmp_path / "analysis.json"
        run("analyze", "--a", a, "--b", a, "--json", out, "--outdir", tmp_path)
        first = out.read_bytes()
        run("analyze", "--a", a, "--b", a, "--json", out, "--outdir", tmp_path)
        assert out.read_bytes() == first

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n3\n")
        good = write_set(tmp_path / "good.txt", [0])
        assert run("analyze", "--a", bad, "--b", good,
                   "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert ":2:" in err and "duplicate" in err

    def test_file_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3\r\n4\r\n\xff5\n")
        good = write_set(tmp_path / "good.txt", [0])
        assert run("analyze", "--a", good, "--b", bad,
                   "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:3: not UTF-8 text: byte 0xff\n"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no digit limit for integer string conversion")
    def test_over_long_integer_exit_code(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        bad = tmp_path / "bad.txt"
        bad.write_text(f"3\n{'7' * (limit + 1)}\n")
        good = write_set(tmp_path / "good.txt", [0])
        assert run("analyze", "--a", bad, "--b", good,
                   "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: more than {limit} digits\n"

    @pytest.mark.parametrize("command", ["analyze", "crossings", "check"])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, command):
        # a missing file and a directory both raise OSError: exit 2, one line
        good = write_set(tmp_path / "good.txt", [0, 1])
        which = ["all"] if command == "check" else []
        for path in (tmp_path / "missing.txt", tmp_path):
            assert run(command, *which, "--a", path, "--b", good,
                       "--outdir", tmp_path) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err


class TestCrossings:
    def test_stats_payload(self, tmp_path, capsys):
        a = write_set(tmp_path / "a.txt", [0, 1, 3])
        b = write_set(tmp_path / "b.txt", [0, 1])
        out = tmp_path / "stats.json"
        assert run("crossings", "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        stats = json.loads(out.read_text())
        assert list(stats) == ["crossings", "intersections",
                               "maxTranslatePairCrossings", "degreeSequence"]
        assert stats["crossings"] == 1
        assert stats["intersections"] == 1
        assert stats["maxTranslatePairCrossings"] == 1
        assert stats["degreeSequence"] == [3, 2, 1, 1, 1]


@st.composite
def small_pairs(draw):
    """(A, B) with |A| >= 2 and |B| >= 1, up to seven elements each: gaps
    of 1 to 4, so often repeated, or 2**62, from a start near 0 or near
    +-2**62, so that values and summed spans reach past int64."""
    def one_set(min_size):
        start = draw(st.one_of(st.integers(-20, 20),
                               st.integers(-2**62 - 20, -2**62 + 20),
                               st.integers(2**62 - 20, 2**62 + 20)))
        gaps = draw(st.lists(st.one_of(st.integers(1, 4), st.just(2**62)),
                             min_size=min_size - 1, max_size=6))
        return IntegerSet(tuple(itertools.accumulate(gaps, initial=start)))

    return one_set(2), one_set(1)


def main_output(*argv):
    """(exit code, stdout, stderr) of ``main`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(small_pairs(), st.randoms(use_true_random=False),
       st.sampled_from(["1.5", "seven", "+3", "0x10", "1e3", "- 3"]))
@example((IntegerSet((0, 2, 4, 6)), IntegerSet((-7,))), random.Random(1), "1.5")
@example((IntegerSet((-2**62, -2**62 + 1, -2**62 + 2, 2, 2**62 + 2)),
          IntegerSet((2**62 - 3, 2**62 - 2, 2**62))), random.Random(2), "+3")
def test_crossings_command_against_the_definitions(sets, rng, bad):
    """``crossings`` on set files written in shuffled line order prints the
    JSON of ``crossing_stats``, and its counts, like those in the contexts
    of ``check all``, are the quadratic oracles' on the sum graph built by
    definition.  A set file with a line that is no decimal integer exits 2
    with one ``error:`` line."""
    A, B = sets
    sums, edges = sum_graph_by_definition(A, B)
    graph = ArcGraph(len(sums), u=[u for u, _ in edges], v=[v for _, v in edges])
    crossings = crossings_by_definition(graph)
    degrees = Counter(itertools.chain.from_iterable(edges))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, f"{name}.txt") for name in ("a", "b", "bad")}
        lines = {}
        for name, S in (("a", A), ("b", B)):
            lines[name] = [f"{x}\n" for x in S]
            rng.shuffle(lines[name])
            paths[name].write_text("".join(lines[name]))
        files = ["--a", paths["a"], "--b", paths["b"], "--outdir", tmp]
        code, out, err = main_output("crossings", *files)
        assert (code, err) == (0, "")
        assert out == json.dumps(crossing_stats(A, B).as_dict(), indent=2) + "\n"
        stats = json.loads(out)
        assert stats["crossings"] == crossings
        assert stats["intersections"] == intersections_by_definition(graph)
        assert stats["maxTranslatePairCrossings"] == max(
            (translate_pair_crossings_by_definition(A, b, c)
             for i, b in enumerate(B) for c in B[i + 1:]), default=0)
        assert sorted(stats["degreeSequence"]) == sorted(degrees.values())
        assert len(degrees) == len(sums)

        check = Path(tmp, "check.json")
        assert main_output("check", "all", *files, "--json", check)[0] == 0
        contexts = [r["context"] for r in json.loads(check.read_text())]
        assert {c["crossings"] for c in contexts if "crossings" in c} == {crossings}

        which = rng.choice(["a", "b"])
        lines[which].insert(rng.randint(0, len(lines[which])), bad + "\n")
        paths["bad"].write_text("".join(lines[which]))
        files[files.index(paths[which])] = paths["bad"]
        code, out, err = main_output("crossings", *files)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(small_pairs())
@example((IntegerSet((0, 1, 2, 4)), IntegerSet((-7,))))
@example((IntegerSet((-2**62, -2**62 + 1, -2**62 + 2, 2**62 + 2)),
          IntegerSet((2**62 - 3, 2**62 - 2, 2**62))))
def test_analyze_command_against_the_definitions(sets):
    """``analyze`` on the drawn pair, and on A passed as both files (the
    chunk loop then gathers the pairs i <= j), against a Counter of the
    pair sums and the set of the differences."""
    A, B = sets
    with tempfile.TemporaryDirectory() as tmp:
        a = write_set(Path(tmp, "a.txt"), A)
        for Y, b in ((B, write_set(Path(tmp, "b.txt"), B)), (A, a)):
            code, out, err = main_output("analyze", "--a", a, "--b", b,
                                         "--outdir", tmp)
            assert (code, err) == (0, "")
            stats = json.loads(out)
            r = Counter(x + y for x in A for y in Y)
            assert stats["sumsetSize"] == len(r)
            assert stats["differenceSize"] == len({x - y for x in A for y in Y})
            assert stats["energy2"] == sum(c * c for c in r.values())
            assert stats["multiplicityHistogram"] == {
                str(c): n for c, n in sorted(Counter(r.values()).items())}


def test_one_element_a(tmp_path):
    """An A of one element has a sum graph without edges: ``crossings``
    exits 2 with one error line, and ``check all`` exits 0 with the three
    reports that need no sum graph."""
    a = write_set(tmp_path / "a.txt", [5])
    b = write_set(tmp_path / "b.txt", [0, 3, 7])
    files = ("--a", a, "--b", b, "--outdir", tmp_path)
    assert main_output("crossings", *files) == (
        2, "", "error: A must have at least two elements\n")
    check = tmp_path / "check.json"
    code, _, err = main_output("check", "all", *files, "--json", check)
    assert (code, err) == (0, "")
    assert {r["name"] for r in json.loads(check.read_text())} == {
        "doubling_lower_ge", "heavy_subset_ge", "sumset_lower_ge"}


@pytest.mark.parametrize("command", [
    ("crossings", "--a", "A", "--b", "B"),
    ("analyze", "--a", "A", "--b", "B"),
    ("sidon", "search", "--size", 3, "--max", 5),
    ("sidon", "optimize"),
])
def test_printed_json_is_the_json_file(tmp_path, capsys, command):
    a = write_set(tmp_path / "a.txt", [0, 1, 3, 7])
    b = write_set(tmp_path / "b.txt", [-2, 0, 5])
    argv = [{"A": a, "B": b}.get(arg, arg) for arg in command]
    out = tmp_path / "out.json"
    assert run(*argv, "--json", out, "--outdir", tmp_path) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@st.composite
def degree_lists(draw):
    """Nonempty lists of ints, as ``crossings`` writes its degree sequence:
    one element, one run, two values alternating, unsorted, negative,
    past 2**63, or nonincreasing with long runs."""
    values = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    shape = draw(st.sampled_from(["any", "one", "run", "alternate", "sorted"]))
    if shape == "one":
        return [draw(values)]
    if shape == "run":
        return [draw(values)] * draw(st.integers(1, 40))
    if shape == "alternate":
        return [draw(values), draw(values)] * draw(st.integers(1, 20))
    if shape == "sorted":
        return sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=80)),
                      reverse=True)
    return draw(st.lists(values, min_size=1, max_size=20))


_JSON_SCALARS = st.one_of(st.text(), st.floats(), st.none(), st.booleans(),
                          st.integers())


@given(st.dictionaries(st.text().filter(lambda k: k != "degreeSequence"),
                       st.one_of(_JSON_SCALARS,
                                 st.lists(_JSON_SCALARS, max_size=3),
                                 st.dictionaries(st.text(), _JSON_SCALARS,
                                                 max_size=3)),
                       max_size=4),
       degree_lists())
@example({"crossings": 0}, [7])
@example({"crossings": 1, "ratio": 0.5, "name": "x", "none": None}, [3, 3, 1])
@example({"flag": True, "list": [1, [2]], "object": {"k": None}}, [1, 0, 1])
@example({}, [2**63, 2**63, -2**64, 5, 5])
def test_runs_encoder_is_json_dumps(head, degrees):
    """The runs encoder writes the bytes of ``json.dumps(indent=2)`` for
    the payloads of ``crossings``: a nonempty list of ints last."""
    payload = {**head, "degreeSequence": degrees}
    assert _json_with_runs(payload) == json.dumps(payload, indent=2)


class TestCheck:
    def test_passing_instance_exits_zero(self, tmp_path, capsys):
        a = write_set(tmp_path / "a.txt", [0, 1, 3, 7])
        b = write_set(tmp_path / "b.txt", [0, 2, 9])
        out = tmp_path / "reports.json"
        assert run("check", "all", "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        reports = json.loads(out.read_text())
        assert all(r["satisfied"] for r in reports if r["mode"] == "assert")
        assert {"name", "lhs", "rhs", "mode", "satisfied", "ratio",
                "context"} == set(reports[0])

    def test_assert_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        from sumcross import bounds as bounds_mod
        from sumcross import cli as cli_mod
        broken = bounds_mod.BoundReport(
            "synthetic_ge", 0.0, 1.0, "assert", False, 0.0, {})
        monkeypatch.setattr(cli_mod, "run_all_checks",
                            lambda A, B: [broken])
        a = write_set(tmp_path / "a.txt", [0, 1])
        assert run("check", "all", "--a", a, "--b", a,
                   "--outdir", tmp_path) == 1
        err = capsys.readouterr().err
        assert "synthetic_ge" in err

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError])
    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch,
                                        error):
        # an exception other than ValueError or OSError is a fault of the
        # program: exit 3 with its traceback, not 1 (a failed bound)
        from sumcross import cli as cli_mod

        def broken(A, B):
            raise error("synthetic internal error")

        monkeypatch.setattr(cli_mod, "run_all_checks", broken)
        a = write_set(tmp_path / "a.txt", [0, 1])
        assert run("check", "all", "--a", a, "--b", a,
                   "--outdir", tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith(f"{error.__name__}: synthetic internal error\n")


@pytest.mark.parametrize("argv", [
    "analyze --a {a} --b {a}", "crossings --a {a} --b {a}",
    "check all --a {a} --b {a}", "reproduce-paper", "construct coprime --t 1",
    "construct sidon-seed --seed paper --k 1"])
def test_counter_fault_exits_three(tmp_path, capsys, monkeypatch, argv):
    """A fault deep inside the pair-sum chunk loop, which every counting
    command reaches, exits 3 with its traceback: nothing on stdout and no
    file written, set files included."""
    from sumcross import sets as sets_module

    def broken(A, B, reduce):
        raise RuntimeError("synthetic counter fault")

    a = write_set(tmp_path / "a.txt", [0, 1, 3, 7])
    monkeypatch.setattr(sets_module, "_each_chunk", broken)
    assert main([*argv.format(a=a).split(), "--outdir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: synthetic counter fault\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_fault_after_the_set_is_built_writes_no_set_file(tmp_path, capsys,
                                                         monkeypatch):
    """``construct sidon-seed`` saves its set only after the exact |A+A|
    count, so a fault in that count leaves no set file behind."""
    from sumcross import cli as cli_mod

    def broken(A, B):
        raise RuntimeError("synthetic count fault")

    monkeypatch.setattr(cli_mod, "sumset_size", broken)
    assert run("construct", "sidon-seed", "--seed", "paper", "--k", 1,
               "--outdir", tmp_path) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("RuntimeError: synthetic count fault\n")
    assert list(tmp_path.iterdir()) == []


# (command, instance, SHA-256 of its --json file)
GOLDEN_JSON = [
    ("check", "coprime_t1",
     "4abda535e2b40ea7ac1c3a03e14ea8f4df2d991d69df899dbdc9bdaf72abc20c"),
    ("check", "seeded_depth1",
     "a75de357995fe7006b823e86b069387db2fbaafb0c191cf48a923f5e2dd5c69b"),
    ("analyze", "seeded_depth1",
     "08ccdbdc4f95351955930bd4f5faa29ace34344fe000d3d3c4262487673fc5ae"),
    ("analyze", "coprime_t1",
     "209d4f217cf6aac6080e24e97ef5ddf10ef5e6aab025a30f706afe5a830cc69e"),
    ("check", "coprime_t3",
     "c5088432c099c593525cb69e8649d9faa574c00a024de4582c7ea0ea25e17624"),
    ("crossings", "coprime_t1",
     "87d4e296d449714835e0f778380ca63d8fb28f08479107229b7e622dccce5e77"),
    ("crossings", "coprime_t3",
     "e229c849ee39bb69999aed0c606f79a33024d55cd7cdcb44a3571f083dd6a929"),
    ("crossings", "seeded_depth1",
     "1d7d57227e6d43b9022084268e0994bc119f53ccb688cee5c308a161efbe756c"),
]


class TestGoldenBytes:
    """SHA-256 of JSON outputs pinned from an earlier release, so that a
    faster path can never change a byte.  Seeded depth 1 has A == B, so its
    reports carry the float energy15; coprime t=3 is the instance of the
    check-coprime benchmark.  The ``crossings`` digests pin each
    construction's degree sequence with its counts."""

    @staticmethod
    def instance(tmp_path, name):
        if name.startswith("coprime_t"):
            A, B, _ = coprime_construction(int(name[len("coprime_t"):]))
        else:
            A = B = sidon_seed_construction(REFERENCE_SEED, 1)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_set(a, A)
        save_set(b, B)
        return a, b

    @pytest.mark.parametrize("command, name, digest", GOLDEN_JSON)
    def test_json_digest(self, tmp_path, capsys, command, name, digest):
        a, b = self.instance(tmp_path, name)
        out = tmp_path / "out.json"
        argv = ["check", "all"] if command == "check" else [command]
        assert run(*argv, "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        if name == "seeded_depth1" and command == "check":
            assert '"energy15"' in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["coprime_t1", "seeded_depth1"])
    def test_crossings_prints_its_json_file(self, tmp_path, capsys, name):
        a, b = self.instance(tmp_path, name)
        out = tmp_path / "out.json"
        assert run("crossings", "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestSidonCli:
    def test_search(self, tmp_path, capsys):
        assert run("sidon", "search", "--size", 3, "--max", 3,
                   "--outdir", tmp_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert [0, 1, 3] in out["sets"]
        assert out["count"] == len(out["sets"])

    def test_optimize(self, tmp_path, capsys):
        assert run("sidon", "optimize", "--outdir", tmp_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["xStar"] - 6.99618) < 1e-3
        assert abs(out["fStar"] - 0.114058) < 1e-5
        assert out["iterations"] > 0


class TestReproduce:
    def test_all_rows_match(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert run("reproduce-paper", "--json", out, "--outdir", tmp_path) == 0
        table = json.loads(out.read_text())
        assert table["allMatch"] is True
        names = {row["name"] for row in table["rows"]}
        assert {"seed_sumset_size", "seed_difference_size",
                "construction_exponent", "optimum_location", "optimum_value",
                "depth1_sumset_size", "depth2_sumset_size",
                "coprime_t1_sumset_size"} <= names
        by_name = {row["name"]: row for row in table["rows"]}
        assert by_name["seed_sumset_size"]["actual"] == 28
        assert by_name["seed_difference_size"]["actual"] == 43
        assert by_name["depth1_sumset_size"]["actual"] == 795
        assert by_name["depth2_sumset_size"]["actual"] == 609213
        assert by_name["depth2_code_sum_count"]["actual"] == 784
        assert by_name["coprime_t1_sumset_size"]["actual"] == 1635

    def test_manifest_written(self, tmp_path):
        run("reproduce-paper", "--outdir", tmp_path)
        manifest = json.loads(
            (tmp_path / "reproduce-paper-manifest.json").read_text())
        assert manifest["command"] == "reproduce-paper"
        assert manifest["inputHashes"] == {}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# name: (argv, digest of exit code, stdout, stderr and files)
GOLDEN_RUNS = {
    "coprime-default": (
        "construct coprime --t 1",
        "c60eaf8b745fb84c5c47919b1cb8cbc2c77d94f52d1e18d43bb80d4044071a4d"),
    # save_set creates the missing d/, so this run writes x.txt and exits 0
    "coprime-missing-out-dir": (
        "construct coprime --t 1 --out-a ./d/x.txt --json ./d//c.json "
        "--manifest d/m.json",
        "66be7c2b3bd121eafdc55ef205577aa0008a1423751694dc9be317d57f549511"),
    "coprime-paths": (
        "construct coprime --t 1 --out-a ./d/x.txt --json ./d//c.json "
        "--manifest d/m.json --outdir d",
        "d6bc0da0fc99d94ab186486e85a04ae57e263f3314057d206d88bab0f6cd949a"),
    "coprime-bad-t": (
        "construct coprime --t 0",
        "a9db7ec5fbcb954ba517ecbfd85f0aad7eabd4ae8e45056fe220b369c8e9f87b"),
    "sidon-seed-paper": (
        "construct sidon-seed --seed paper --k 1 --paper-tour",
        "d176b646d838637cd446b67899535fdccfcb8870e5fa062c07c2e7cbcf15034a"),
    "sidon-seed-file": (
        "construct sidon-seed --seed seed.txt --k 2 --outdir o",
        "0ba7ae779033ae427102ede90852782023f69a44ad49e0c22aaba107f72b5c1f"),
    "analyze-json-csv": (
        "analyze --a a.txt --b b.txt --json ./o//an.json --csv o/h.csv",
        "75d89f4ddb1ca7650644a66f7f1452f3df78aec22306571fa920ce9da977683b"),
    "analyze-missing-file": (
        "analyze --a missing.txt --b b.txt",
        "682b1b50af31863e948d1df5ae69fbaa6893452fc00786ecb1c4a690d1c9f6ec"),
    "crossings": (
        "crossings --a a.txt --b b.txt --json cr.json --outdir o",
        "63640cf2d450d76e74bbfee2afa3999a3e434b3640fce55ee917f28ebb87f162"),
    "check": (
        "check all --a a.txt --b b.txt --json ./o2//ch.json --manifest "
        "o2/m.json",
        "334360c9a8e843757294d89b646a0b8f10807bba3bc316379b4e86a02fec1187"),
    "sidon-search": (
        "sidon search --size 3 --max 3 --json s.json",
        "0d83dc6faf56cfb88391bfad1c6c3602414cce58fd687b257e67d7c77416eea6"),
    "sidon-optimize": (
        "sidon optimize --json o/opt.json",
        "bf13aefc9cdf796e09b9d2a6481c0400539586a2601c147215718fb3b0677018"),
    "reproduce-default": (
        "reproduce-paper",
        "5a667267f09ad9a397779905002fe03942aeed4933700b2bc82ad3f34a3f32a2"),
    "reproduce-json": (
        "reproduce-paper --json ./d//t.json --outdir o",
        "f84bc7fd950e155a6fb3a92150839660836f689f9a98a80a39a5e9de302468db"),
}


def _write_inputs(root):
    save_set(root / "a.txt", IntegerSet.of([0, 1, 3, 7]))
    save_set(root / "b.txt", IntegerSet.of([0, 2, 9]))
    save_set(root / "seed.txt", IntegerSet.of([0, 1, 3]))


class TestGoldenRuns:
    """Every subcommand run from inside a fresh directory with relative
    paths, so that manifests hold no absolute path.  One digest covers the
    exit code, stdout, stderr and every file under the directory: set
    files, sidecars, CSV and manifests.  Pinned before the CLI's output
    code was shared between subcommands."""

    @staticmethod
    def digest(rc, out, err, root) -> str:
        files = {p.relative_to(root).as_posix():
                 hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        record = {"exit": rc, "stdout": out, "stderr": err, "files": files}
        return hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_run_digest(self, tmp_path, capsys, monkeypatch, name):
        argv, expected = GOLDEN_RUNS[name]
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        rc = main(argv.split())
        out, err = capsys.readouterr()
        assert self.digest(rc, out, err, tmp_path) == expected


# every subcommand, run from a directory holding _write_inputs' files
SUBCOMMANDS = [
    "construct coprime --t 1",
    "construct sidon-seed --seed paper --k 1",
    "analyze --a a.txt --b b.txt",
    "crossings --a a.txt --b b.txt",
    "check all --a a.txt --b b.txt",
    "sidon search --size 3 --max 3",
    "sidon optimize",
    "reproduce-paper",
]
# the parser and each subparser with a --help of its own
HELP_PATHS = [[], ["construct"], ["construct", "coprime"],
              ["construct", "sidon-seed"], ["analyze"], ["crossings"], ["check"],
              ["sidon"], ["sidon", "search"], ["sidon", "optimize"],
              ["reproduce-paper"]]


def _help_text(parse, path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse([*path, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


class TestOneParserPerProcess:
    """``main`` parses every call with the parser ``build_parser`` makes on
    the first one: later calls construct no ``ArgumentParser``, and nothing
    one call parses, fails on or prints reaches the next."""

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        assert main(["sidon", "search", "--size", "3", "--max", "3"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in SUBCOMMANDS:
            assert main(argv.split()) == 0, argv
        assert built == []
        assert build_parser() is build_parser()

    def test_json_of_one_call_is_not_the_next_ones(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        files = ["--a", "a.txt", "--b", "b.txt"]
        manifest = tmp_path / "crossings-manifest.json"
        assert main(["crossings", *files, "--json", "x.json"]) == 0
        assert json.loads(manifest.read_text())["outputs"] == ["x.json"]
        Path("x.json").unlink()
        assert main(["crossings", *files]) == 0
        assert json.loads(manifest.read_text())["outputs"] == []
        assert not Path("x.json").exists()

    def test_outdir_of_one_call_is_not_the_next_ones(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        files = ["--a", "a.txt", "--b", "b.txt"]
        assert main(["crossings", *files, "--outdir", "d"]) == 0
        assert Path("d", "crossings-manifest.json").exists()
        Path("d", "crossings-manifest.json").unlink()
        assert main(["crossings", *files]) == 0
        assert Path("crossings-manifest.json").exists()
        assert not Path("d", "crossings-manifest.json").exists()

    def test_exits_leave_the_parser_as_it_was(self, tmp_path, capsys):
        a, b = TestGoldenBytes.instance(tmp_path, "seeded_depth1")
        with pytest.raises(SystemExit) as exc:
            main(["check", "all", "--a", str(a)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sumcross check ")
        assert err.endswith("error: the following arguments are required: --b\n")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = tmp_path / "out.json"
        assert run("check", "all", "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        digests = {(c, n): d for c, n, d in GOLDEN_JSON}
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == digests["check", "seeded_depth1"])

    def test_help_is_the_same_on_every_call(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        first = [_help_text(main, path) for path in HELP_PATHS]
        later = [_help_text(main, path) for path in HELP_PATHS]
        fresh = [_help_text(build_parser.__wrapped__().parse_args, path)
                 for path in HELP_PATHS]
        assert first == later == fresh
        assert len(set(first)) == len(HELP_PATHS)


@pytest.mark.parametrize("argv", [
    *(f"{command} --outdir a.txt --json j.json" for command in SUBCOMMANDS),
    "check all --a a.txt --b b.txt --json a.txt/r.json"])
def test_unwritable_output_path_writes_nothing(tmp_path, capsys, monkeypatch,
                                               argv):
    """A run that exits 2 on an unwritable output path writes no file and
    prints nothing: ``--outdir`` is made before any work, and ``check``
    prints its verdict only after its files are written."""
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def _set_file_values(data: bytes):
    """The values of a set file by its README rules, or None if it is
    not one: UTF-8, lines split at \\n, \\r\\n or \\r, blank lines
    skipped, every other line an ASCII decimal integer (optional leading
    -) within int()'s digit limit, no value twice, at least one value."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = [line.strip() for line in text.replace("\r\n", "\n")
             .replace("\r", "\n").split("\n")]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    values = []
    for line in filter(None, lines):
        digits = line.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            return None
        if limit and len(digits) > limit:
            return None
        values.append(int(line))
    return values if values and len(set(values)) == len(values) else None


@settings(max_examples=60, deadline=None)
@given(set_file_bytes(), set_file_bytes())
@example(b"-0\r\n007\r7\n", b"1\n2\n")  # 0 and -0 are one value
@example(b"1\n\xed\xa0\x80\n", b"1\n2\n")  # a lone surrogate is no UTF-8
@example(b"\t5\r\n3\r\n", b"-100000000000000000000\n\n8\xff")
def test_any_set_file_bytes(a_bytes, b_bytes):
    """``analyze``, ``crossings`` and ``check all``, one after another in
    this process, on set files of random lines, line ends and trailing
    bytes: each exits 0 exactly when both files are set files (and, for
    ``crossings``, A has two elements), 1 only for a failed bound of
    ``check``, and otherwise 2 with one ``error:`` line on stderr."""
    values = [_set_file_values(a_bytes), _set_file_values(b_bytes)]
    valid = None not in values
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "a.txt").write_bytes(a_bytes)
        Path(tmp, "b.txt").write_bytes(b_bytes)
        files = ["--a", Path(tmp, "a.txt"), "--b", Path(tmp, "b.txt"),
                 "--outdir", tmp]
        for argv, ok in ((["analyze"], valid),
                         (["crossings"], valid and len(values[0]) >= 2),
                         (["check", "all"], valid)):
            code, out, err = main_output(*argv, *files)
            allowed = ({0, 1} if argv[0] == "check" else {0}) if ok else {2}
            assert code in allowed, (argv, code, err)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
            if argv == ["analyze"] and ok:
                assert json.loads(out)["sumsetSize"] == len(
                    {x + y for x in values[0] for y in values[1]})
