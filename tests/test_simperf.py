"""Tests for the simulator perf harness and the ``perf`` CLI command."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.simperf import (
    GATE_WORKLOAD,
    WORKLOADS,
    divergent_cells,
    run_perf,
)


def test_workload_registry():
    assert GATE_WORKLOAD in WORKLOADS
    assert {"litmus", "fig15-hot", "cilk_fib"} <= set(WORKLOADS)


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_perf(workloads=["no-such-workload"], smoke=True)


def test_unknown_backend_rejected():
    with pytest.raises(KeyError):
        run_perf(workloads=["litmus"], smoke=True, mem_backends=["bogus"])


def test_run_perf_report_shape():
    report = run_perf(workloads=["litmus"], smoke=True, min_speedup=2.0,
                      reps=1)
    w = report["workloads"]["litmus"]
    for key in ("sim_cycles", "dense_wall_s", "event_wall_s",
                "dense_cycles_per_s", "event_cycles_per_s", "event_speedup",
                "identical", "backends", "gate"):
        assert key in w, key
    assert w["identical"] is True
    assert w["sim_cycles"] > 0
    assert w["gate"]["passed"] is True
    assert set(w["backends"]) == {"mesi"}
    assert divergent_cells(report) == []
    # the gate workload was not requested: the gate records a skip and
    # does not fail the partial sweep
    assert report["gate"]["skipped"] is True
    assert report["failures"] == []
    assert report["ok"] is True


def test_run_perf_backend_axis():
    report = run_perf(workloads=["litmus"], smoke=True,
                      mem_backends="mesi,sisd", reps=1)
    w = report["workloads"]["litmus"]
    assert set(w["backends"]) == {"mesi", "sisd"}
    for cell in w["backends"].values():
        assert cell["identical"] is True
    # flattened columns mirror the primary (first listed) backend
    assert w["event_wall_s"] == w["backends"]["mesi"]["event_wall_s"]
    assert report["mem_backends"] == ["mesi", "sisd"]


def test_perf_command_writes_report(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    assert main(["perf", "--smoke", "--workloads", "litmus",
                 "--perf-reps", "1", "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "dense loop vs event engine" in out
    assert "litmus" in out
    report = json.loads(out_path.read_text())
    assert report["smoke"] is True
    assert report["workloads"]["litmus"]["identical"] is True


def test_perf_command_gate_failure(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    # an impossible speedup requirement on the gate workload must fail
    assert main(["perf", "--smoke", "--workloads", GATE_WORKLOAD,
                 "--perf-reps", "1", "--min-speedup", "1000000",
                 "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert GATE_WORKLOAD in err  # the failing workload is named
    report = json.loads(out_path.read_text())
    assert report["gate"]["passed"] is False
    assert report["failures"] == [GATE_WORKLOAD]
    assert report["ok"] is False


def test_perf_command_unknown_workload(tmp_path, capsys):
    assert main(["perf", "--smoke", "--workloads", "bogus",
                 "-o", str(tmp_path / "b.json")]) == 2


def test_perf_command_unknown_backend(tmp_path, capsys):
    assert main(["perf", "--smoke", "--workloads", "litmus",
                 "--mem-backend", "bogus",
                 "-o", str(tmp_path / "b.json")]) == 2
