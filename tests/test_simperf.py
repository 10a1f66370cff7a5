"""Tests for the simulator perf gate and the ``perf`` CLI command."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.simperf import (
    GATE_WORKLOAD,
    divergent_cells,
    run_gate_workload,
    run_perf,
)
from repro.runtime.lang import reset_cids


def test_unknown_backend_rejected():
    with pytest.raises(KeyError):
        run_perf(smoke=True, mem_backends=["bogus"])


def test_run_perf_report_shape():
    report = run_perf(smoke=True, min_speedup=2.0, reps=1)
    assert report["workload"] == GATE_WORKLOAD
    for key in ("sim_cycles", "dense_wall_s", "event_wall_s",
                "dense_cycles_per_s", "event_cycles_per_s", "event_speedup",
                "identical", "backends", "gate"):
        assert key in report, key
    assert report["identical"] is True
    assert report["sim_cycles"] > 0
    assert set(report["backends"]) == {"mesi"}
    assert divergent_cells(report) == []
    gate = report["gate"]
    assert gate["workload"] == GATE_WORKLOAD
    assert gate["min_speedup"] == 2.0
    assert gate["speedup"] == report["event_speedup"]
    assert gate["passed"] is report["ok"]


def test_event_ticks_identical_across_reps():
    """The event engine's tick count is deterministic: every rep counts
    the same (or the cell reads not identical), and a fresh run agrees."""
    report = run_perf(smoke=True, reps=2)
    cell = report["backends"]["mesi"]
    assert cell["identical"] is True
    reset_cids()
    _cycles, event_fp, ticks = run_gate_workload(smoke=True)
    assert cell["event_ticks"] == ticks > 0
    assert 0 < cell["ticks_per_core_cycle"] < 1
    # the tick count is the engine's work, not part of the fingerprint
    # both engines must agree on
    reset_cids()
    _cycles, dense_fp, dense_ticks = run_gate_workload(smoke=True,
                                                       dense_loop=True)
    assert dense_ticks > ticks
    assert dense_fp == event_fp


def test_run_perf_backend_axis():
    report = run_perf(smoke=True, mem_backends="mesi,sisd", reps=1)
    assert set(report["backends"]) == {"mesi", "sisd"}
    for cell in report["backends"].values():
        assert cell["identical"] is True
    # flattened columns mirror the primary (first listed) backend
    assert report["event_wall_s"] == report["backends"]["mesi"]["event_wall_s"]
    assert report["mem_backends"] == ["mesi", "sisd"]
    # no speedup bound: only the identical cross-check gates
    assert "min_speedup" not in report["gate"]
    assert report["ok"] is True


def test_perf_command_writes_report(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    assert main(["perf", "--smoke", "--perf-reps", "1", "--min-speedup", "0",
                 "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "dense loop vs event engine" in out
    assert GATE_WORKLOAD in out
    report = json.loads(out_path.read_text())
    assert report["smoke"] is True
    assert report["identical"] is True


def test_perf_command_gate_failure(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    # an impossible speedup requirement on the gate workload must fail
    assert main(["perf", "--smoke", "--perf-reps", "1",
                 "--min-speedup", "1000000", "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert GATE_WORKLOAD in err  # the failing workload is named
    report = json.loads(out_path.read_text())
    assert report["gate"]["passed"] is False
    assert report["ok"] is False


def test_perf_command_unknown_backend(tmp_path, capsys):
    assert main(["perf", "--smoke", "--mem-backend", "bogus",
                 "-o", str(tmp_path / "b.json")]) == 2
