"""One benchmark process; run.py starts one per step so that each step's
time and peak memory belong to it alone.

    worker.py setup   --workload W --seed N --inputs DIR
    worker.py oracle  --workload W --inputs DIR --out FILE
    worker.py measure --workload W --inputs DIR --expected FILE --outdir DIR
                      --seconds S --trace 0|1 --out FILE [--spans FILE]

``measure`` repeats rounds of the workload's operations until the next
round would end after ``--seconds``.  After each round it times the
workload's reference kernels (calibrate.py), so that run.py can put every
round at one machine speed.  With ``--trace 1`` the rounds
alternate untraced and traced, so one process gives both the per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402


def _import_package() -> None:
    import sumcross

    home = Path(sumcross.__file__).resolve()
    if SRC.resolve() not in home.parents:
        raise SystemExit(f"imported sumcross from {home}, not from {SRC}")


def cmd_setup(args) -> None:
    _import_package()
    workloads.generate(args.workload, args.seed, Path(args.inputs))


def cmd_oracle(args) -> None:
    want = workloads.expected(args.workload, Path(args.inputs))
    Path(args.out).write_text(json.dumps(want), encoding="utf-8")


def _run_round(ops, log_errors: bool) -> dict:
    results = []
    for op in ops:
        error, nbytes = None, 0
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if error is None:
            try:
                nbytes = op.check(result)
            except Exception as exc:  # CheckFailed, or output that won't parse
                error = f"{type(exc).__name__}: {exc}"
        if error is not None and log_errors:
            print(f"FAILED {op.name}: {error}", file=sys.stderr)
        results.append({"name": op.name, "seconds": seconds, "error": error,
                        "output_bytes": nbytes})
    return {"wall_s": sum(r["seconds"] for r in results), "ops": results}


def cmd_measure(args) -> None:
    _import_package()
    import numpy

    want = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    ops = workloads.operations(args.workload, Path(args.inputs),
                               Path(args.outdir), want)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    min_rounds = 4 if tracer else 3

    rounds = []
    start = perf_counter()
    while True:
        gc.collect()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        try:
            rnd = _run_round(ops, log_errors=len(rounds) < 3)
        finally:
            if traced:
                tracer.uninstall()
        rnd["traced"] = traced
        rnd["reference_s"] = calibrate.reference_time(
            workloads.REFERENCE[args.workload])
        rounds.append(rnd)
        typical = statistics.median(r["wall_s"] + r["reference_s"]
                                    for r in rounds)
        if (len(rounds) >= min_rounds
                and perf_counter() - start + typical > args.seconds):
            break

    report = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        traced = [i for i, r in enumerate(rounds) if r["traced"]]
        output_bytes = {i: sum(op["output_bytes"] for op in rounds[i]["ops"])
                        for i in traced}
        report["layer_metrics"] = tracer.layer_metrics(traced, output_bytes)
        report["absent"] = tracer.absent
        Path(args.spans).write_text(json.dumps(tracer.span_records()),
                                    encoding="utf-8")
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="step", required=True)
    for name, func in (("setup", cmd_setup), ("oracle", cmd_oracle),
                       ("measure", cmd_measure)):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        p.add_argument("--inputs", required=True)
        p.set_defaults(func=func)
        if name == "setup":
            p.add_argument("--seed", type=int, required=True)
        if name in ("oracle", "measure"):
            p.add_argument("--out", required=True)
        if name == "measure":
            p.add_argument("--expected", required=True)
            p.add_argument("--outdir", required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--spans", default=None)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
