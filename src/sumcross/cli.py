"""Command line entry point.

Subcommands: construct (coprime | sidon-seed), analyze, crossings, check,
sidon (search | optimize), reproduce-paper.  Every run emits machine-readable
JSON plus a run manifest, and outputs are byte-stable across repeated runs.

Exit codes: 0 ok, 1 assert-mode bound violation or reference mismatch,
2 malformed input or a file that cannot be read or written (a one-line
``error:`` message on stderr, no traceback), 3 an internal error: any other
exception, ``MemoryError`` included, with its traceback on stderr.  Exits 2
on a bad ``--outdir`` and 3 write no file: ``--outdir`` is made before any
work (and may stay empty); an I/O error mid-write can leave earlier files.

``main(argv)`` may be called many times in one process.  Its parser is built
on the first call and reused; a one-shot ``sumcross`` process builds it once
either way.  The subcommand handlers are bound at that first build, so a test
patches what a handler calls, never the handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import sys
import traceback
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__
from .arcgraph import build_sum_graph, crossing_stats, max_translate_pair_crossings
from .bounds import reports_to_jsonable, run_all_checks
from .construct import (
    REFERENCE_SEED,
    REFERENCE_TOUR,
    REFERENCE_WALK_VALUES,
    CoprimeParams,
    coprime_construction,
    construction_exponent,
    default_encoding_base,
    seed_walk,
    sidon_seed_construction,
)
from .sets import (
    IntegerSet,
    _negated,
    energy,
    is_dcd,
    load_set,
    representation_profile,
    save_set,
    sumset_size,
)
from .sidon import objective_f, optimize_exponent, seed_stats, sidon_search

# Above this pair count, construct sidecars skip the exact sumset size
# unless --heavy is given.
_LIGHT_PAIR_LIMIT = 1 << 26


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def _json_with_runs(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, for a payload whose
    last value is a nonempty list of ints, such as the ``crossings`` degree
    sequence.  The other keys go through ``json.dumps``; the list is
    spliced in one run of equal adjacent values at a time, which is right
    in any order and fast when the list is sorted."""
    *_, (key, values) = payload.items()
    text = json.dumps({**payload, key: []}, indent=2)
    body = "".join([("    " + str(v) + ",\n") * len(list(run))
                    for v, run in itertools.groupby(values)])
    return text[:-len("[]\n}")] + "[\n" + body[:-2] + "\n  ]\n}"


def _write_outputs(args, command: str, parameters: dict, payload, *,
                   inputs: Sequence[str] = (), outputs: Sequence[str] = (),
                   default_json: Path | None = None,
                   encode=functools.partial(json.dumps, indent=2)) -> str:
    """Encode ``payload`` once with ``encode``, whose text is that of
    ``json.dumps(payload, indent=2)``, write it to ``--json`` (else
    ``default_json``, if given), then the run manifest.  A defaulted JSON
    path is listed normalised by ``Path``, a ``--json`` without default as
    given.  Returns the JSON text, for the commands that print it."""
    text = encode(payload)
    json_path = Path(args.json or default_json) if default_json else args.json
    if json_path:
        _write_text(Path(json_path), text)
        outputs = [*outputs, str(json_path)]
    manifest = args.manifest or Path(args.outdir) / f"{command}-manifest.json"
    _write_text(Path(manifest), json.dumps({
        "command": command,
        "parameters": parameters,
        "inputHashes": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                        for p in sorted(inputs)},
        "outputs": sorted(outputs),
        "toolVersion": __version__,
    }, indent=2))
    return text


def _coprime_sums(A: IntegerSet, B: IntegerSet,
                  p: CoprimeParams) -> tuple[int, int, int, bool]:
    """|A+B|, min(A+B), max(A+B), and whether each sum is divisible by one
    of p.a, p.b, p.c, p.d: read from the representation profile."""
    profile = representation_profile(A, B)
    offsets, base = profile.offsets, profile.base
    divisible = np.logical_or.reduce(
        [(offsets % q + base % q) % q == 0 for q in (p.a, p.b, p.c, p.d)])
    return len(offsets), base, base + int(offsets[-1]), bool(divisible.all())


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_construct_coprime(args) -> int:
    outdir = Path(args.outdir)
    A, B, p = coprime_construction(args.t)
    size, low, high, divisible = _coprime_sums(A, B, p)
    out_a = Path(args.out_a) if args.out_a else outdir / f"coprime_t{args.t}_a.txt"
    out_b = Path(args.out_b) if args.out_b else outdir / f"coprime_t{args.t}_b.txt"
    save_set(out_a, A)
    save_set(out_b, B)
    sidecar = {
        "params": dataclasses.asdict(p),
        "aSize": len(A),
        "bSize": len(B),
        "maxA": A.max,
        "maxB": B.max,
        "aDcd": is_dcd(A),
        "bDcd": is_dcd(B),
        "sumsetSize": size,
        "sumsetBound": 4 * p.b * p.c * p.d,
        "withinBound": size < 4 * p.b * p.c * p.d,
        "rangeBound": p.a * p.b * p.c * p.d,
        "withinRange": 0 <= low and high < p.a * p.b * p.c * p.d,
        "allSumsDivisible": divisible,
    }
    _write_outputs(args, "construct-coprime", {"t": args.t}, sidecar,
                   outputs=[str(out_a), str(out_b)],
                   default_json=outdir / f"coprime_t{args.t}.json")
    print(f"wrote {out_a} ({len(A)} elements), {out_b} ({len(B)} elements)")
    return 0


def cmd_construct_sidon_seed(args) -> int:
    outdir = Path(args.outdir)
    seed = REFERENCE_SEED if args.seed == "paper" else load_set(args.seed)
    if args.paper_tour and seed != REFERENCE_SEED:
        raise ValueError("--paper-tour requires --seed paper")
    tour = REFERENCE_TOUR if args.paper_tour else None
    base = default_encoding_base(seed) if args.base is None else args.base
    A = sidon_seed_construction(seed, args.k, base=base, tour=tour)
    pairs = len(A) * len(A)
    heavy_ok = args.heavy or pairs <= _LIGHT_PAIR_LIMIT
    exact = sumset_size(A, A) if heavy_ok else None
    stats = seed_stats(seed)
    bound = stats.sums**args.k * 2 * len(A)
    sidecar = {
        "seed": list(seed.elements),
        "depth": args.k,
        "base": base,
        "walkLength": stats.diffs,
        "size": len(A),
        "dcd": is_dcd(A),
        "sumsetSize": exact,
        "sumsetBound": bound,
        "withinBound": (exact <= bound) if exact is not None else None,
    }
    out = Path(args.out) if args.out else outdir / f"sidon_seed_k{args.k}.txt"
    save_set(out, A)
    _write_outputs(args, "construct-sidon-seed",
                   {"seed": args.seed, "k": args.k, "base": base,
                    "paperTour": bool(args.paper_tour),
                    "heavy": bool(args.heavy)},
                   sidecar, inputs=[] if args.seed == "paper" else [args.seed],
                   outputs=[str(out)],
                   default_json=outdir / f"sidon_seed_k{args.k}.json")
    print(f"wrote {out} ({len(A)} elements)")
    return 0


def cmd_analyze(args) -> int:
    A, B = load_set(args.a), load_set(args.b)
    profile = representation_profile(A, B)
    histogram = {r: n for r, n in
                 enumerate(profile.multiplicity_histogram().tolist()) if n}
    result = {
        "aSize": len(A),
        "bSize": len(B),
        "sumsetSize": len(profile.offsets),
        "differenceSize": sumset_size(A, _negated(B)),
        "energy2": energy(profile, 2).value,
        "energy15": energy(profile, 1.5).value,
        "multiplicityHistogram": {str(r): n for r, n in histogram.items()},
    }
    if args.csv:
        _write_text(Path(args.csv), "\n".join(
            ["multiplicity,count", *(f"{r},{n}" for r, n in histogram.items())]))
    print(_write_outputs(args, "analyze", {"a": args.a, "b": args.b}, result,
                         inputs=[args.a, args.b],
                         outputs=[args.csv] if args.csv else []))
    return 0


def cmd_crossings(args) -> int:
    stats = crossing_stats(load_set(args.a), load_set(args.b)).as_dict()
    print(_write_outputs(args, "crossings", {"a": args.a, "b": args.b}, stats,
                         inputs=[args.a, args.b], encode=_json_with_runs))
    return 0


def cmd_check(args) -> int:
    reports = run_all_checks(load_set(args.a), load_set(args.b))
    _write_outputs(args, "check",
                   {"a": args.a, "b": args.b, "which": args.which},
                   reports_to_jsonable(reports), inputs=[args.a, args.b])
    failures = [r for r in reports if r.mode == "assert" and not r.satisfied]
    for r in reports:
        flag = "ok" if r.satisfied else ("FAIL" if r.mode == "assert" else "miss")
        print(f"{flag:4} {r.mode:6} {r.name:28} lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    if failures:
        print("assert-mode failures:", file=sys.stderr)
        print(json.dumps(reports_to_jsonable(failures), indent=2),
              file=sys.stderr)
        return 1
    return 0


def cmd_sidon_search(args) -> int:
    sets = sidon_search(args.size, args.max)
    result = {
        "size": args.size,
        "maxElement": args.max,
        "count": len(sets),
        "sets": [list(s.elements) for s in sets],
    }
    print(_write_outputs(args, "sidon-search",
                         {"size": args.size, "max": args.max}, result))
    return 0


def cmd_sidon_optimize(args) -> int:
    res = optimize_exponent()
    result = {"xStar": res.x_star, "fStar": res.f_star,
              "iterations": res.iterations}
    print(_write_outputs(args, "sidon-optimize", {}, result))
    return 0


# ---------------------------------------------------------------------------
# reproduce-paper: recompute every published reference value and compare.


_COMPARISONS = {"eq": operator.eq, "le": operator.le, "lt": operator.lt}


def _row(name: str, expected, actual, comparison: str = "eq",
         tolerance: float | None = None) -> dict:
    if comparison == "abs":
        match = abs(actual - expected) <= tolerance
    else:
        match = _COMPARISONS[comparison](actual, expected)
    return {"name": name, "expected": expected, "actual": actual,
            "comparison": comparison, "tolerance": tolerance, "match": match}


def _reference_rows(heavy: bool) -> list[dict]:
    rows = []
    seed = REFERENCE_SEED
    stats = seed_stats(seed)
    rows.append(_row("seed_sumset_size", 28, stats.sums))
    rows.append(_row("seed_difference_size", 43, stats.diffs))
    rows.append(_row("construction_exponent", 0.11406,
                     construction_exponent(seed), "abs", 1e-5))
    opt = optimize_exponent()
    rows.append(_row("optimum_location", 6.99618, opt.x_star, "abs", 1e-3))
    rows.append(_row("optimum_value", 0.114058, opt.f_star, "abs", 1e-5))
    rows.append(_row("objective_at_seed_size", stats.score,
                     objective_f(len(seed)), "abs", 1e-12))

    # the shipped tour and its value walk
    walk = seed_walk(seed, REFERENCE_TOUR)
    rows.append(_row("tour_fixture_length", 43, len(REFERENCE_TOUR.visits)))
    rows.append(_row("walk_fixture_roundtrip", True,
                     walk.vectors[:, 0].tolist() == list(REFERENCE_WALK_VALUES)))

    graph = build_sum_graph(seed, seed)
    rows.append(_row("sum_graph_edges", (len(seed) - 1) * len(seed),
                     graph.num_edges))
    rows.append(_row("translate_pair_crossings", 2 * len(seed) - 1,
                     max_translate_pair_crossings(seed, seed), "le"))

    for depth in (1, 2, 3) if heavy else (1, 2):
        A = sidon_seed_construction(seed, depth, tour=REFERENCE_TOUR)
        rows.append(_row(f"depth{depth}_size", stats.diffs**depth, len(A)))
        rows.append(_row(f"depth{depth}_distinct_gaps", True, is_dcd(A)))
        if depth <= 2:
            # the codes c_i = a_i - i*base**depth; {c_i + c_j} is S + S
            shift = default_encoding_base(seed)**depth
            S = IntegerSet.of(a - i * shift for i, a in enumerate(A, start=1))
            rows.append(_row(f"depth{depth}_code_sum_count",
                             stats.sums**depth, sumset_size(S, S), "le"))
        bound = min(stats.sums**depth * 2 * len(A),
                    len(A) * (len(A) + 1) // 2)
        exact = sumset_size(A, A)
        rows.append(_row(f"depth{depth}_sumset_size", bound, exact, "le"))

    for t in range(1, 6):
        A, B, p = coprime_construction(t)
        rows.append(_row(f"coprime_t{t}_a_size", p.n - 1, len(A)))
        rows.append(_row(f"coprime_t{t}_b_size", p.m - 1, len(B)))
        rows.append(_row(f"coprime_t{t}_sumset_size", 4 * p.b * p.c * p.d,
                         sumset_size(A, B), "lt"))
        if t == 1:
            _, _, high, divisible = _coprime_sums(A, B, p)
            rows.append(_row("coprime_t1_max_a", 2673, A.max))
            rows.append(_row("coprime_t1_in_range", True,
                             high < p.a * p.b * p.c * p.d))
            rows.append(_row("coprime_t1_sums_divisible", True, divisible))
    return rows


def cmd_reproduce(args) -> int:
    rows = _reference_rows(args.heavy)
    table = {"rows": rows, "allMatch": all(r["match"] for r in rows),
             "heavy": bool(args.heavy)}
    out_json = Path(args.json or Path(args.outdir) / "reproduce_paper.json")
    _write_outputs(args, "reproduce-paper", {"heavy": bool(args.heavy)},
                   table, default_json=out_json)
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        status = "ok  " if r["match"] else "FAIL"
        print(f"{status} {r['name']:{width}} expected "
              f"{r['comparison']} {r['expected']}  actual {r['actual']}")
    print(f"-> {out_json} ({'all match' if table['allMatch'] else 'MISMATCH'})")
    return 0 if table["allMatch"] else 1


# ---------------------------------------------------------------------------
# Parser wiring.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every ``main`` call:
    callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="sumcross",
        description="sumset growth, arc-graph crossing counts, and the "
                    "constructions and bounds around them")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand writes JSON and a run manifest
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", default=None, help="JSON output path")
    common.add_argument("--outdir", default=".", help="directory for outputs")
    common.add_argument("--manifest", default=None,
                        help="run manifest path (default: <command>-manifest.json)")
    pair = argparse.ArgumentParser(add_help=False, parents=[common])
    pair.add_argument("--a", required=True, help="set file for A")
    pair.add_argument("--b", required=True, help="set file for B")

    construct = sub.add_parser("construct", help="generate a set family")
    fam = construct.add_subparsers(dest="family", required=True)

    cop = fam.add_parser("coprime", parents=[common], help="coprime pair (A, B)")
    cop.add_argument("--t", type=int, required=True)
    cop.add_argument("--out-a", default=None)
    cop.add_argument("--out-b", default=None)
    cop.set_defaults(func=cmd_construct_coprime)

    sid = fam.add_parser("sidon-seed", parents=[common],
                         help="Sidon-seeded recursive set")
    sid.add_argument("--seed", required=True,
                     help="'paper' for the built-in 7-element seed, or a set file")
    sid.add_argument("--k", type=int, required=True, help="recursion depth")
    sid.add_argument("--base", type=int, default=None)
    sid.add_argument("--paper-tour", action="store_true",
                     help="use the published tour instead of the generated one")
    sid.add_argument("--heavy", action="store_true",
                     help="compute the exact sumset size even at depth 3")
    sid.add_argument("--out", default=None)
    sid.set_defaults(func=cmd_construct_sidon_seed)

    ana = sub.add_parser("analyze", parents=[pair],
                         help="sumset statistics for a pair of set files")
    ana.add_argument("--csv", default=None,
                     help="write the multiplicity histogram as CSV")
    ana.set_defaults(func=cmd_analyze)

    cro = sub.add_parser("crossings", parents=[pair],
                         help="crossing statistics of the sum graph")
    cro.set_defaults(func=cmd_crossings)

    chk = sub.add_parser("check", parents=[pair], help="run the bound checkers")
    chk.add_argument("which", choices=["all"])
    chk.set_defaults(func=cmd_check)

    sidon = sub.add_parser("sidon", help="Sidon search and seed optimization")
    mode = sidon.add_subparsers(dest="mode", required=True)
    sea = mode.add_parser("search", parents=[common])
    sea.add_argument("--size", type=int, required=True)
    sea.add_argument("--max", type=int, required=True)
    sea.set_defaults(func=cmd_sidon_search)
    opt = mode.add_parser("optimize", parents=[common])
    opt.set_defaults(func=cmd_sidon_optimize)

    rep = sub.add_parser(
        "reproduce-paper", parents=[common],
        help="recompute all published reference values and compare")
    rep.add_argument("--heavy", action="store_true",
                     help="include the depth-3 exact sumset count")
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        Path(args.outdir).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed input (SetFileError is a ValueError) or unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a fault of the program, not of its input, never read as a verdict
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
