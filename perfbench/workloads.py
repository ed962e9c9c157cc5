"""The four benchmark workloads: seeded input generation, the timed
operations, and the oracle every result is checked against.

A workload's inputs are set files written by ``generate``.  Every instance
is translated by a seeded offset and written in seeded line order, so each
seed gives different files while every count the oracles pin stays the
same: crossing, intersection and degree counts depend only on the order of
the positions, and |A+B| does not change under translation.

Operations call the package only through ``sumcross.cli.main(argv)`` and
``sumcross.sets.sumset_size(A, B)`` with default arguments; sumset-wide
reads its set files with ``sumcross.sets.load_set`` before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# check-coprime runs the coprime pair at t=3 (379 x 398, 150,444 edges,
# about 1.4 s per check), so that one run repeats it often enough for a
# steady low quantile.  t=5 takes 12 s per check.
COPRIME_T = 3

# Counts pinned per instance, each derived independently in
# tests/test_bench_pins.py.
PINS = {
    "coprime_t1": {
        "sumsetSize": 1635,
        "edges": 3348,
        "crossings": 84866,
        "intersections": 124744,
        "maxTranslatePairCrossings": 104,
        "degreeHistogram": {1: 32, 2: 615, 3: 24, 4: 490, 5: 25, 6: 274,
                            7: 13, 8: 79, 9: 14, 10: 32, 11: 7, 12: 13,
                            13: 8, 14: 8, 15: 1},
    },
    "coprime_t3": {
        "sumsetSize": 30737,
        "edges": 150444,
        "crossings": 27323659,
    },
    "seeded_depth1": {
        "sumsetSize": 694,
        "edges": 1806,
        "crossings": 33966,
        "intersections": 42723,
        "maxTranslatePairCrossings": 81,
        "degreeHistogram": {1: 2, 2: 31, 3: 53, 4: 411, 5: 1, 6: 7, 7: 17,
                            8: 129, 9: 1, 10: 2, 11: 7, 12: 23, 15: 2,
                            16: 6, 19: 1, 20: 1},
    },
}

# SHA-256 of reproduce_paper.json written by `sumcross reproduce-paper`
# without --heavy; the output is required to stay byte-identical.
REPRODUCE_SHA256 = (
    "1cc9e611dd36fc6a317c39a6a9f9f5084d78b5078fa3ef8d9fe507b110169b10")

# sumset-wide: two random sets of 15-digit values, plus a slice of each
# moved next to -2**62 and +2**62.
WIDE_SIZE = 1600
FAR_SIZE = 1000
_WIDE_LO, _WIDE_HI = 10**14, 10**15
# The far slice keeps every |value| below 2**62 while the span of each set
# is close to 2**63, so x - a overflows int64 for sums x near one end and
# elements a near the other: the wraparound that breaks a chunked int64
# counter which guards on magnitude instead of span.
_FAR_SHIFT = 2**62 - 2**50

# Translation offsets for the pinned instances stay small enough that
# every value remains a single-digit Python int (below 2**30).
_OFFSET = 10**6


class CheckFailed(Exception):
    """An operation returned a result the oracle rejects."""


@dataclass
class Operation:
    """One timed call.  ``run`` is timed; ``check`` runs after the clock
    stops, raises CheckFailed on a wrong result and returns the number of
    bytes the CLI wrote (0 for library calls)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], int]


# ---------------------------------------------------------------------------
# Set files.


def write_set_file(path: Path, values, rng: random.Random,
                   offset: int = 0) -> None:
    """One decimal value per line, translated by ``offset``, in shuffled
    order (the loader sorts)."""
    lines = [f"{v + offset}\n" for v in values]
    rng.shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")


def read_set_file(path: Path) -> list[int]:
    """Plain parse for the oracles, independent of sumcross.sets."""
    text = path.read_text(encoding="utf-8").split()
    return sorted(int(x) for x in text)


def _write_translated(inputs: Path, stem: str, values,
                      rng: random.Random) -> None:
    write_set_file(inputs / f"{stem}.txt", values, rng,
                   rng.randrange(-_OFFSET, _OFFSET))


def far_slice(values: list[int]) -> list[int]:
    """The first FAR_SIZE sorted values; the lower half moved next to
    -2**62 and the upper half next to +2**62."""
    part = sorted(values)[:FAR_SIZE]
    half = len(part) // 2
    return ([v - 2**62 for v in part[:half]]
            + [v + _FAR_SHIFT for v in part[half:]])


# ---------------------------------------------------------------------------
# Input generation (timed as setup_s).


def generate(workload: str, seed: int, inputs: Path) -> None:
    from sumcross.construct import (REFERENCE_SEED, coprime_construction,
                                    sidon_seed_construction)

    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "check-coprime":
        A, B, _ = coprime_construction(COPRIME_T)
        _write_translated(inputs, "a", A, rng)
        _write_translated(inputs, "b", B, rng)
    elif workload == "crossings-small":
        A, B, _ = coprime_construction(1)
        _write_translated(inputs, "coprime_a", A, rng)
        _write_translated(inputs, "coprime_b", B, rng)
        D = sidon_seed_construction(REFERENCE_SEED, 1)
        _write_translated(inputs, "seeded_a", D, rng)
        _write_translated(inputs, "seeded_b", D, rng)
    elif workload == "sumset-wide":
        A = rng.sample(range(_WIDE_LO, _WIDE_HI), WIDE_SIZE)
        B = rng.sample(range(_WIDE_LO, _WIDE_HI), WIDE_SIZE)
        write_set_file(inputs / "wide_a.txt", A, rng)
        write_set_file(inputs / "wide_b.txt", B, rng)
        write_set_file(inputs / "far_a.txt", far_slice(A), rng)
        write_set_file(inputs / "far_b.txt", far_slice(B), rng)
    elif workload == "reproduce-light":
        pass  # reproduce-paper takes no input; the seed changes nothing
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Oracles computed outside the measured process.


def sumset_size_by_sort(A: list[int], B: list[int]) -> int:
    """|A+B| from copies of A and B translated to minimum 0.  Each span is
    below 2**63, so every sum fits in uint64 and a sort-and-diff counts
    the distinct sums exactly."""
    import numpy as np

    a = np.array([x - A[0] for x in A], dtype=np.uint64)
    b = np.array([x - B[0] for x in B], dtype=np.uint64)
    if a.size and int(a[-1]) + int(b[-1]) >= 2**64:
        raise ValueError("spans too wide for the uint64 oracle")
    sums = (a[:, None] + b[None, :]).ravel()
    sums.sort()
    return int(1 + np.count_nonzero(sums[1:] != sums[:-1]))


def expected(workload: str, inputs: Path) -> dict:
    if workload == "sumset-wide":
        return {pair: sumset_size_by_sort(read_set_file(inputs / f"{pair}_a.txt"),
                                          read_set_file(inputs / f"{pair}_b.txt"))
                for pair in ("wide", "far")}
    return {}


# ---------------------------------------------------------------------------
# Operations.


def _cli(argv: list[str]):
    """Run ``sumcross.cli.main`` in-process with its output captured."""
    from sumcross import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _collect(outdir: Path, stdout: str, stderr: str) -> tuple[int, dict]:
    """The bytes the CLI printed plus those of the files it wrote, and the
    files' contents.  The files are removed, so that a later round cannot
    pass on a stale copy."""
    files = {}
    for path in outdir.iterdir():
        files[path.name] = path.read_bytes()
        path.unlink()
    nbytes = len(stdout.encode()) + len(stderr.encode())
    return nbytes + sum(len(data) for data in files.values()), files


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _require_exit_0(rc, stderr: str) -> None:
    _require(rc == 0, f"exit code {rc}: {stderr.strip()[-300:]}")


def _check_reports(pins: dict, outdir: Path):
    def check(result) -> int:
        rc, stdout, stderr = result
        nbytes, files = _collect(outdir, stdout, stderr)
        _require_exit_0(rc, stderr)
        seen_crossings = False
        for r in json.loads(files["reports.json"]):
            if r["mode"] == "assert":
                _require(r["satisfied"], f"assert report {r['name']} failed")
            ctx = r["context"]
            for key in ("sumsetSize", "edges", "crossings"):
                if key in ctx:
                    _require(ctx[key] == pins[key],
                             f"{r['name']}: {key} {ctx[key]} != {pins[key]}")
            seen_crossings |= "crossings" in ctx
        _require(seen_crossings, "no report carries the crossing count")
        return nbytes
    return check


def _check_crossings(pins: dict, outdir: Path):
    def check(result) -> int:
        rc, stdout, stderr = result
        nbytes, _ = _collect(outdir, stdout, stderr)
        _require_exit_0(rc, stderr)
        stats = json.loads(stdout)
        for key in ("crossings", "intersections", "maxTranslatePairCrossings"):
            _require(stats[key] == pins[key],
                     f"{key} {stats[key]} != {pins[key]}")
        degrees = stats["degreeSequence"]
        _require(degrees == sorted(degrees, reverse=True),
                 "degree sequence not nonincreasing")
        _require(dict(Counter(degrees)) == pins["degreeHistogram"],
                 "degree sequence differs")
        return nbytes
    return check


def _check_reproduce(outdir: Path):
    def check(result) -> int:
        rc, stdout, stderr = result
        nbytes, files = _collect(outdir, stdout, stderr)
        _require_exit_0(rc, stderr)
        digest = hashlib.sha256(files["reproduce_paper.json"]).hexdigest()
        _require(digest == REPRODUCE_SHA256,
                 f"reproduce_paper.json sha256 {digest}")
        return nbytes
    return check


def _check_count(want: int):
    def check(result) -> int:
        _require(result == want, f"sumset_size {result} != {want}")
        return 0
    return check


def operations(workload: str, inputs: Path, outdir: Path,
               want: dict) -> list[Operation]:
    """The operations of one round, in order."""

    def out(name: str) -> Path:
        path = outdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def cli_op(name: str, argv: list[str], check) -> Operation:
        return Operation(name, lambda: _cli(argv), check)

    if workload == "check-coprime":
        d = out("check")
        return [cli_op(
            f"check all coprime t={COPRIME_T}",
            ["check", "all", "--a", str(inputs / "a.txt"),
             "--b", str(inputs / "b.txt"), "--json", str(d / "reports.json"),
             "--outdir", str(d)],
            _check_reports(PINS[f"coprime_t{COPRIME_T}"], d))]
    if workload == "crossings-small":
        ops = []
        for stem, pin in (("coprime", "coprime_t1"), ("seeded", "seeded_depth1")):
            d = out(stem)
            ops.append(cli_op(
                f"crossings {pin}",
                ["crossings", "--a", str(inputs / f"{stem}_a.txt"),
                 "--b", str(inputs / f"{stem}_b.txt"), "--outdir", str(d)],
                _check_crossings(PINS[pin], d)))
        return ops
    if workload == "sumset-wide":
        from sumcross import sets  # looked up per call, so tracing sees it

        ops = []
        for pair in ("wide", "far"):
            A = sets.load_set(inputs / f"{pair}_a.txt")
            B = sets.load_set(inputs / f"{pair}_b.txt")
            ops.append(Operation(f"sumset_size {pair}",
                                 lambda A=A, B=B: sets.sumset_size(A, B),
                                 _check_count(want[pair])))
        return ops
    if workload == "reproduce-light":
        d = out("reproduce")
        return [cli_op("reproduce-paper", ["reproduce-paper", "--outdir", str(d)],
                       _check_reproduce(d))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("check-coprime", "crossings-small", "sumset-wide",
             "reproduce-light")

# The reference kernels (calibrate.py) each workload's times are scaled by,
# matched to the kind of work that dominates it: crossings-small is
# interpreter-bound loops, sumset-wide fills large hash tables, and the
# other two do both.  Set-up (interpreter start, imports, generation)
# does both too.
REFERENCE = {"check-coprime": ("loop", "sort"),
             "crossings-small": ("loop",),
             "sumset-wide": ("sort",),
             "reproduce-light": ("loop", "sort")}
SETUP_REFERENCE = ("loop", "sort")
