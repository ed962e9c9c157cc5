"""The tracer's wrappers, self times, counts and absent-function handling."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import tracing
from sumcross import arcgraph, bounds, cli, save_set, coprime_construction


@pytest.fixture
def pair_files(tmp_path):
    A, B, _ = coprime_construction(1)
    save_set(tmp_path / "a.txt", A)
    save_set(tmp_path / "b.txt", B)
    return tmp_path


def _check(files):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", "all", "--a", str(files / "a.txt"),
                         "--b", str(files / "b.txt"), "--outdir", str(files)])


def test_wrappers_reach_importing_modules_and_are_removed():
    original = arcgraph.has_parallel_edges
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arcgraph.has_parallel_edges is not original
        assert bounds.has_parallel_edges is arcgraph.has_parallel_edges
        assert bounds.has_parallel_edges.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert arcgraph.has_parallel_edges is original
    assert bounds.has_parallel_edges is original


def test_traced_round_metrics(pair_files):
    tracer = tracing.Tracer()
    tracer.round = 1
    tracer.install()
    try:
        assert _check(pair_files) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = tracer.layer_metrics([1], {1: 123})
    assert list(metrics) == tracing.metric_names()
    assert metrics["arcgraph.has_parallel_edges_calls"] == 2
    assert metrics["arcgraph.crossings"] == 84866
    assert metrics["arcgraph.edges"] == 3348
    assert metrics["bounds.reports_assert"] + metrics["bounds.reports_report"] == 15
    assert metrics["cli.output_bytes"] == 123
    assert metrics["sets.distinct_ratio"] == (metrics["sets.distinct_sums"]
                                              / metrics["sets.pairs"])

    # self times partition the root span: they sum to the cli.main duration
    root = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in root] == ["cli.main"]
    self_times = tracer.self_times()[1]
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) == pytest.approx(root[0][2] - root[0][1])


def test_missing_function_or_count_is_reported_absent(monkeypatch, pair_files):
    monkeypatch.setitem(tracing.SPANNED, "arcgraph",
                        tracing.SPANNED["arcgraph"] + ("no_such_counter",))
    monkeypatch.setitem(tracing.SPANNED, "no_such_layer", ("anything",))
    monkeypatch.setitem(tracing._COUNTERS, "arcgraph.build_sum_graph",
                        lambda args, result: result.no_such_attribute)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _check(pair_files) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["arcgraph.no_such_counter", "no_such_layer.anything",
                             "arcgraph.build_sum_graph counts"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = tracing.metric_names() + ["trace.overhead_s",
                                         "trace.overhead_share"]
    assert list(per_layer) == reported
    assert all(per_layer[n] == tracing.metric_unit(n) for n in reported)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "peak_rss_mb", "setup_s"]
