"""Self-tests of the benchmark: span reduction, tolerant instrumentation,
and a short pass of every workload.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0]


def test_self_time_of_nested_span_tree():
    spans = [
        span("cli.run", "cli", 0.0, 10.0, -1),
        span("filters.a", "filters", 1.0, 4.0, 0),
        span("_linalg.cached_expm", "linalg", 2.0, 3.0, 1),
        span("filters.b", "filters", 5.0, 9.0, 0),
        span("filters.c", "filters", 5.5, 6.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    m = tracing.layer_metrics(spans, {})
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["filters.self_s"] == pytest.approx(6.0)
    assert m["filters.calls"] == 3
    assert m["linalg.self_s"] == pytest.approx(1.0)
    assert m["linalg.cached_expm_calls"] == 1
    assert m["linalg.expm_hit_ratio"] == 1.0


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return x + 1
    work.__module__ = "fakepkg.a"
    a.work = work
    b.work = work                # ``from .a import work`` in another module
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b, work


def test_missing_names_are_tolerated(fake_package):
    a, b, work = fake_package
    tracer = tracing.Tracer()
    layers = {"fakepkg.a": "sim", "fakepkg.gone": "filters"}
    named = [("fakepkg.a", "removed_function", "linalg", "scipy.linalg.expm"),
             ("fakepkg.gone", "expm", "linalg", "scipy.linalg.expm")]
    with tracing.instrument(tracer, package="fakepkg", layers=layers, named=named):
        assert a.work is not work and b.work is a.work
        assert b.work(1) == 2
    assert a.work is work and b.work is work
    m = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert m["sim.calls"] == 1
    assert m["filters.calls"] == 0
    assert m["linalg.expm_calls"] == 0
    assert m["linalg.expm_hit_ratio"] == 0.0


def test_missing_program_fails_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "twin_mc", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_pass_emits_every_metric(workload, trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    result, report, _ = run.measure(workload, 3, 0.0, bool(trace), scale=0.01)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["attempted"] >= 2 * len(report["ops"])
    json.dumps(result, allow_nan=False)
