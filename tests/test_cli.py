import hashlib
import json
import random
import sys

import pytest

from sumcross import (REFERENCE_SEED, IntegerSet, coprime_construction,
                      load_set, save_set, sidon_seed_construction)
from sumcross.cli import main


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

    @pytest.mark.parametrize("command, name, digest", [
        ("check", "coprime_t1",
         "4abda535e2b40ea7ac1c3a03e14ea8f4df2d991d69df899dbdc9bdaf72abc20c"),
        ("check", "seeded_depth1",
         "d3128a820d356c5d98769103f69e7f9eb787c7ff1b42fa0de3a9f7916911e151"),
        ("analyze", "coprime_t1",
         "254a79cd0fffbacc580128ab6b97bd2afb1244b65d8e47c589c36141d9f5a60f"),
        ("check", "coprime_t3",
         "c5088432c099c593525cb69e8649d9faa574c00a024de4582c7ea0ea25e17624"),
        ("crossings", "coprime_t1",
         "87d4e296d449714835e0f778380ca63d8fb28f08479107229b7e622dccce5e77"),
        ("crossings", "coprime_t3",
         "e229c849ee39bb69999aed0c606f79a33024d55cd7cdcb44a3571f083dd6a929"),
        ("crossings", "seeded_depth1",
         "1d7d57227e6d43b9022084268e0994bc119f53ccb688cee5c308a161efbe756c"),
    ])
    def test_json_digest(self, tmp_path, capsys, command, name, digest):
        a, b = self.instance(tmp_path, name)
        out = tmp_path / "out.json"
        argv = ["check", "all"] if command == "check" else [command]
        assert run(*argv, "--a", a, "--b", b, "--json", out,
                   "--outdir", tmp_path) == 0
        if name == "seeded_depth1" and command == "check":
            assert '"energy15"' in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
