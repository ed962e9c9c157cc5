"""Spans around the public functions of each sumcross layer.

``Tracer.install`` replaces each function named in ``SPANNED`` and
``COUNTED`` with a wrapper, under the function's name in every loaded
``sumcross`` module that holds it: modules import their siblings by name
(``bounds`` imports ``has_parallel_edges``) and call them through module
globals, so patching only the defining module would miss those calls.
``uninstall`` puts the originals back, so untraced rounds run the
unmodified package.

Spans (name, start, end, parent, round) are kept in memory.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.  A sampler thread reads the
resident set size every 20 ms and charges it to the layer of the
innermost open span; that gives each layer's RSS high-water mark.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "sumcross"

# Functions timed with a span, by layer (the sumcross module defining them).
SPANNED = {
    "sets": ("load_set", "sumset", "sumset_size", "representation_profile"),
    "arcgraph": ("build_sum_graph", "count_crossings_fast",
                 "has_parallel_edges", "count_intersections",
                 "max_translate_pair_crossings", "degree_sequence"),
    "bounds": ("run_all_checks",),
    "construct": ("coprime_construction", "sidon_seed_construction",
                  "extend_walk", "encode_vectors"),
    "sidon": ("optimize_exponent",),
    "cli": ("main",),
}
# Functions only counted: a span per call would cost more than the call.
COUNTED = {"sidon": ("objective_f",)}

# Layers whose RSS high-water mark is reported.
RSS_LAYERS = ("sets", "arcgraph")

_SAMPLE_INTERVAL_S = 0.02


def _pairs(args) -> int:
    return len(args[0]) * len(args[1])


# Counts taken from each call's arguments and result.
_COUNTERS = {
    "sets.sumset": lambda a, r: {"sets.pairs": _pairs(a),
                                 "sets.distinct_sums": len(r)},
    "sets.sumset_size": lambda a, r: {"sets.pairs": _pairs(a),
                                      "sets.distinct_sums": r},
    "sets.representation_profile": lambda a, r: {
        "sets.pairs": _pairs(a), "sets.distinct_sums": len(r.counts)},
    "arcgraph.build_sum_graph": lambda a, r: {
        "arcgraph.edges": r.num_edges, "arcgraph.vertices": r.num_vertices},
    "arcgraph.count_crossings_fast": lambda a, r: {"arcgraph.crossings": r},
    "arcgraph.has_parallel_edges": lambda a, r: {
        "arcgraph.has_parallel_edges_calls": 1},
    "bounds.run_all_checks": lambda a, r: {
        "bounds.reports_assert": sum(x.mode == "assert" for x in r),
        "bounds.reports_report": sum(x.mode == "report" for x in r)},
    "construct.sidon_seed_construction": lambda a, r: {
        "construct.sidon_seed_construction_calls": 1},
    "sidon.objective_f": lambda a, r: {"sidon.objective_evals": 1},
}


def self_time_metric(qualname: str) -> str:
    """Metric name of a spanned function's self time."""
    return "cli.self_s" if qualname == "cli.main" else f"{qualname}_s"


# Count metrics, in report order.  sets.distinct_ratio is distinct sums
# over pairs (its base, sets.pairs); cli.output_bytes is measured by the
# runner, which captures what the CLI writes.
COUNT_METRICS = (
    "sets.pairs", "sets.distinct_sums", "sets.distinct_ratio",
    "arcgraph.edges", "arcgraph.vertices", "arcgraph.crossings",
    "arcgraph.has_parallel_edges_calls",
    "bounds.reports_assert", "bounds.reports_report",
    "construct.sidon_seed_construction_calls",
    "sidon.objective_evals",
    "cli.output_bytes",
)


def metric_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("_share", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [self_time_metric(f"{layer}.{fn}")
             for layer, fns in SPANNED.items() for fn in fns]
    names += [f"{layer}.rss_hwm_mb" for layer in RSS_LAYERS]
    return names + list(COUNT_METRICS)


class _RssSampler:
    """Reads /proc/self/statm; charges each reading to the layer on top of
    the tracer's span stack."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def read_mb(self) -> float:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page_mb

    def _loop(self) -> None:
        while not self._stop.wait(_SAMPLE_INTERVAL_S):
            self._tracer.charge_rss(self.read_mb())

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [qualname, start, end, parent, round, layer]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.rss_hwm_mb: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sampler: _RssSampler | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for layer, fns in table.items():
                try:
                    home = importlib.import_module(f"{PACKAGE}.{layer}")
                except ImportError:
                    self.absent += [f"{layer}.{fn}" for fn in fns]
                    continue
                for fn in fns:
                    original = getattr(home, fn, None)
                    if not callable(original):
                        self.absent.append(f"{layer}.{fn}")
                        continue
                    wrapper = self._wrap(f"{layer}.{fn}", original, spanned)
                    for module in modules:
                        if module.__dict__.get(fn) is original:
                            setattr(module, fn, wrapper)
                            self._patches.append((module, fn, original))
        try:
            self._sampler = _RssSampler(self)
        except OSError:
            self._sampler = None  # no /proc: no per-layer RSS

    def uninstall(self) -> None:
        if self._sampler is not None:
            self._sampler.close()
            self._sampler = None
        for module, fn, original in reversed(self._patches):
            setattr(module, fn, original)
        self._patches = []

    def _wrap(self, qualname: str, original, spanned: bool):
        counter = _COUNTERS.get(qualname)
        layer = qualname.split(".")[0]
        tracer = self

        def count(args, result):
            if counter is None:
                return
            try:
                counts = counter(args, result)
            except (AttributeError, TypeError, IndexError):
                # the result or arguments changed shape: report, don't fail
                if f"{qualname} counts" not in tracer.absent:
                    tracer.absent.append(f"{qualname} counts")
                return
            tracer.counts[tracer.round].update(counts)

        if not spanned:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                count(args, result)
                return result
            return counted

        def spanned_call(*args, **kwargs):
            stack = tracer._stack
            span = [qualname, 0.0, 0.0, stack[-1] if stack else None,
                    tracer.round, layer]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            tracer._sample()
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._sample()
                stack.pop()
            count(args, result)
            return result

        spanned_call.__wrapped__ = original
        return spanned_call

    # -- RSS -----------------------------------------------------------------

    def _sample(self) -> None:
        if self._sampler is not None:
            self.charge_rss(self._sampler.read_mb())

    def charge_rss(self, mb: float) -> None:
        try:
            top = self._stack[-1]
        except IndexError:
            return
        layer = self.spans[top][5]
        if mb > self.rss_hwm_mb[layer]:
            self.rss_hwm_mb[layer] = mb

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per round, the summed self time of each spanned function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rnd, layer in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_round: dict[int, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, rnd, layer) in enumerate(self.spans):
            per_round[rnd][self_time_metric(name)] += end - start - child_time[i]
        return per_round

    def layer_metrics(self, traced_rounds: list[int],
                      output_bytes: dict[int, int]) -> dict[str, float]:
        """Median over the traced rounds of every per-round figure, plus
        the RSS high-water marks over all of them."""
        times = self.self_times()
        metrics = {}
        for name in metric_names():
            if name.endswith("rss_hwm_mb"):
                metrics[name] = self.rss_hwm_mb.get(name.split(".")[0], 0.0)
                continue
            if name == "sets.distinct_ratio":
                metrics[name] = None  # filled in below, from two counts
                continue
            if name == "cli.output_bytes":
                values = [output_bytes.get(r, 0) for r in traced_rounds]
            elif name.endswith("_s"):
                values = [float(times[r][name]) for r in traced_rounds]
            else:
                values = [self.counts[r][name] for r in traced_rounds]
            metrics[name] = statistics.median_low(values)
        pairs = metrics["sets.pairs"]
        metrics["sets.distinct_ratio"] = (
            metrics["sets.distinct_sums"] / pairs if pairs else 0.0)
        return metrics

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "round": r}
                for n, s, e, p, r, _ in self.spans]
