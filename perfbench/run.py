"""Run one sumcross benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check-coprime --seed 1 --seconds 28 --trace 0

Steps, each in its own single-threaded subprocess (see worker.py):

1. setup, five times: start an interpreter, import sumcross, generate the
   workload's inputs from the seed and write its set files.  setup_s is
   the median of the five wall times, each at reference speed.
2. oracle: the expected results that need computing (sumset-wide's exact
   counts), outside every timed figure.
3. measure: rounds of the workload's operations for --seconds.  wall_s is
   the median round time at reference speed, peak_rss_mb the ru_maxrss of
   this process.

A time at reference speed is the measured time divided by the time of the
workload's reference kernels, run right after it, times the kernels'
nominal time (calibrate.py).  It cancels the drift of a shared host's
speed between runs; the raw times are in the results file.

The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics and the tracing overhead with --trace 1.
A results file with the run's environment goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import metric_unit
from workloads import REFERENCE, SETUP_REFERENCE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE_DIR = ROOT / "src" / "sumcross"
SETUP_REPEATS = 5
# Every step shares one deadline so that a run ends within 180 s.
DEADLINE_S = 170.0

class StepFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # worker.py puts this checkout's src first
    return env


def _step(argv: list[str], deadline: float) -> float:
    """Run one worker step; return its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT,
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise StepFailed(f"worker {argv[0]} ran past the deadline")
    elapsed = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise StepFailed(f"worker {argv[0]} exited with {proc.returncode}")
    return elapsed


def _source_facts() -> dict:
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "src_sumcross_lines": lines}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, work: Path, deadline: float) -> dict:
    # Workers run in ROOT and get paths relative to it, so what the CLI
    # writes (manifests name their inputs) is the same in every checkout.
    rel = work.relative_to(ROOT)
    common = ["--workload", args.workload]
    inputs = rel / "inputs0"
    setup_times, setup_reference = [], []
    for k in range(SETUP_REPEATS):
        setup_times.append(_step(["setup", *common, "--seed", str(args.seed),
                                  "--inputs", str(rel / f"inputs{k}")], deadline))
        setup_reference.append(calibrate.reference_time(SETUP_REFERENCE))
    expected = rel / "expected.json"
    _step(["oracle", *common, "--inputs", str(inputs), "--out", str(expected)],
          deadline)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    spans = results_dir / f"{args.workload}-seed{args.seed}-spans.json"
    _step(["measure", *common, "--inputs", str(inputs),
           "--expected", str(expected), "--outdir", str(rel / "out"),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(rel / "measure.json")]
          + (["--spans", str(spans.relative_to(ROOT))] if args.trace else []),
          deadline)
    report = json.loads((work / "measure.json").read_text(encoding="utf-8"))

    rounds = report["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(op["error"] is not None for op in ops)
    untraced = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    reference = statistics.median(r["reference_s"] for r in untraced)
    nominal = calibrate.nominal_time(REFERENCE[args.workload])

    def at_reference_speed(rs: list[dict]) -> float:
        return nominal * statistics.median(r["wall_s"] / r["reference_s"]
                                           for r in rs)

    wall_at_ref = at_reference_speed(untraced)
    setup_at_ref = (calibrate.nominal_time(SETUP_REFERENCE)
                    * statistics.median(t / ref for t, ref
                                        in zip(setup_times, setup_reference)))
    if args.trace:
        traced = at_reference_speed([r for r in rounds if r["traced"]])
        metrics = {name: _metric(value, metric_unit(name))
                   for name, value in report["layer_metrics"].items()}
        overhead = traced - wall_at_ref
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics["trace.overhead_share"] = _metric(overhead / wall_at_ref,
                                                  "ratio")
        if report["absent"]:
            print(f"absent layer functions: {', '.join(report['absent'])}",
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": _metric(wall_at_ref, "s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
            "setup_s": _metric(setup_at_ref, "s"),
        }

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        **_source_facts(),
        "metrics": metrics,
        "attempted": len(ops),
        "failed": failed,
        "fail_rate": failed / len(ops),
        "reference_kernels": list(REFERENCE[args.workload]),
        "raw_wall_s": wall,
        "raw_reference_s": reference,
        "raw_setup_s": statistics.median(setup_times),
        "setup_times_s": setup_times,
        "setup_reference_s": setup_reference,
        "rounds": rounds,
        "absent": report.get("absent", []),
        "spans_file": str(spans.relative_to(ROOT)) if args.trace else None,
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # fixed-width, so that paths the CLI records have the same length
    work = BENCH / "work" / f"{args.workload}-{os.getpid():08d}"
    try:
        result = run(args, work, deadline)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
