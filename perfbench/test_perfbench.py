"""Smoke tests of the benchmark harness at a tiny size.

The tiny workload is one 12 s radar bundle with a 2x2x16 cube, so a
traced and an untraced run take a few seconds each. The full-size
workloads run only through ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys
import types

import layers
import run
import spans


def _tiny_workload() -> run.Workload:
    bundle = run.Bundle(
        "tiny", "radar", 3, 12.0,
        settings=["synth.antennas=2", "synth.chirps=2", "synth.samples=16"],
    )
    return run.Workload("tiny", "smoke test", [bundle])


def _fake_package(monkeypatch) -> types.ModuleType:
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "def _private(x):\n    return x\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.outer = core.outer  # as after "from fakepkg.core import outer"
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return user


def test_tracer_wraps_every_namespace_and_reports_absent(monkeypatch):
    user = _fake_package(monkeypatch)
    tracer = spans.Tracer(counters={"core.inner": lambda a, k, r: {"seen": a[0]}})
    absent = tracer.install("fakepkg", expected=["core.outer", "core.gone", "gone.fn"])
    assert absent == ["core.gone", "gone.fn"]
    assert user.outer(3) == 8
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("core.outer", None), ("core.inner", 0)]
    summary = spans.summarize(tracer.spans)
    assert summary["core.inner"]["counts"] == {"seen": 3}
    assert "core._private" not in summary
    total_self = sum(e["self_ms"] for e in summary.values())
    root = tracer.spans[0]
    assert abs(total_self - (root["end"] - root["start"]) / 1e6) < 1e-6


def test_failing_counter_is_reported_not_raised(monkeypatch):
    user = _fake_package(monkeypatch)
    tracer = spans.Tracer(counters={"core.outer": lambda a, k, r: {"n": r.missing}})
    tracer.install("fakepkg")
    assert user.outer(1) == 4
    assert "core.outer" in tracer.counter_errors


def test_benchmark_json_lists_the_harness_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == layers.PER_LAYER[metric["name"]]
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == run.END_TO_END[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert run.make_workload(workload["name"], 1).why == workload["why"]


def test_reference_s_rescales_to_the_calibration_speed():
    ref = run.CAL_REF_S
    assert run.reference_s(3.0, ref, ref) == 3.0
    # A host half as fast doubles both the op and its calibrations.
    assert abs(run.reference_s(6.0, 2 * ref, 2 * ref) - 3.0) < 1e-12
    assert abs(run.reference_s(3.0, ref / 2, ref * 2) - 3.0) < 1e-12


def test_tiny_untraced_and_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    plain = run.Run(_tiny_workload(), seed=3, seconds=0, trace=False).execute()
    traced = run.Run(_tiny_workload(), seed=3, seconds=0, trace=True).execute()
    for result in (plain, traced):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 2
    # One set-up and one op, each between two calibrations.
    assert len(plain["extra"]["calibration_s"]) == 4
    final = run.final_line([plain])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in final["metrics"].values())
    assert set(traced["metrics"]) == set(layers.PER_LAYER)
    assert traced["metrics"]["cli.import_ms"] > 0
    assert traced["metrics"]["radar.selection_hit_ratio"] == 1.0
    # A function renamed away by a later change reads 0 instead of failing.
    absent = set(traced["extra"]["absent"])
    assert "radar.process_radar" in absent or traced["metrics"]["radar.process_radar.ms"] > 0
    # Untraced and traced ops wrote byte-identical reports.
    assert plain["report_sha256"] == traced["report_sha256"]
    trace_file = os.path.join(str(tmp_path), "results", "tiny.trace.json")
    with open(trace_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {p["role"] for p in doc["processes"]} == {"setup", "op"}
