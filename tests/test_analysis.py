"""Tests for the analysis drivers and report formatting."""

import pytest

from repro.algorithms.workloads import build_wsq_workload
from repro.analysis.report import (
    StreamAggregator,
    failure_counts,
    format_table,
    progress_line,
    render_failure_counts,
)
from repro.analysis.speedup import (
    RunPoint,
    measure,
    normalized_series,
    ratio,
    traditional_vs_scoped,
)
from repro.isa.instructions import FenceKind
from repro.sim.config import SimConfig


def test_measure_runs_and_checks():
    point = measure(
        lambda env: build_wsq_workload(env, iterations=6, workload_level=1),
        SimConfig(),
        label="T",
    )
    assert point.cycles > 0
    assert 0.0 <= point.fence_stall_fraction <= 1.0
    assert point.others_fraction == 1.0 - point.fence_stall_fraction


def test_traditional_vs_scoped_driver():
    trad, scoped, speedup = traditional_vs_scoped(
        lambda env, scope: build_wsq_workload(
            env, scope=scope, iterations=10, workload_level=2
        ),
        FenceKind.CLASS,
    )
    assert trad.label == "T" and scoped.label == "S"
    assert speedup == trad.cycles / scoped.cycles
    assert speedup >= 1.0


def test_normalized_series():
    base = RunPoint("T", 1000, 400, 0.4)
    other = RunPoint("S", 800, 80, 0.1)
    rows = normalized_series([base, other], base)
    assert rows[0]["normalized_time"] == 1.0
    assert rows[1]["normalized_time"] == 0.8
    assert abs(rows[0]["fence_stalls"] - 0.4) < 1e-9
    assert abs(rows[1]["others"] - 0.72) < 1e-9


def test_format_table_alignment():
    out = format_table(["a", "long_header"], [[1, 2], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len(lines) == 5


def test_normalized_series_zero_cycle_baseline():
    """A degenerate zero-cycle baseline must not divide by zero."""
    base = RunPoint("T", 0, 0, 0.0)
    rows = normalized_series([base, RunPoint("S", 800, 80, 0.1)], base)
    assert all(r["normalized_time"] == 0.0 for r in rows)
    assert all(r["fence_stalls"] == 0.0 for r in rows)


def test_ratio_edge_cases():
    assert ratio(1500, 1000) == 1.5
    assert ratio(1500, 0) is None     # zero-cycle baseline
    assert ratio(None, 1000) is None  # missing cell
    assert ratio(1500, None) is None
    assert ratio(0, 1000) == 0.0


def test_progress_line_rendering():
    empty = progress_line(0, 10, width=10)
    assert empty.startswith("[..........]")
    full = progress_line(10, 10, ok=8, failed=2, cached=3, width=10)
    assert full.startswith("[##########]")
    assert "10/10" in full and "ok=8" in full and "failed=2" in full and "cached=3" in full
    half = progress_line(5, 10, width=10)
    assert half.count("#") == 5 and half.count(".") == 5
    assert "0/0" in progress_line(0, 0)  # no jobs: no crash


def test_stream_aggregator_counts_and_summary():
    agg = StreamAggregator(4)
    agg.add(True, cached=True)
    agg.add(True)
    agg.add(False, label="chaos:wsq/storm#3")
    assert (agg.done, agg.ok, agg.failed, agg.cached) == (3, 2, 1, 1)
    assert "3/4" in agg.line()
    summary = agg.summary()
    assert "2 ok" in summary and "1 failed" in summary
    assert "chaos:wsq/storm#3" in summary


def test_stream_aggregator_truncates_failure_list():
    agg = StreamAggregator(30)
    for i in range(15):
        agg.add(False, label=f"job{i}")
    assert "+5 more" in agg.summary()


def test_stream_aggregator_throughput_and_eta():
    """jobs/sec and ETA come from the injectable clock, not sleeping."""
    now = [100.0]
    agg = StreamAggregator(10, clock=lambda: now[0])
    assert agg.jobs_per_s() is None and agg.eta_s() is None
    assert "job/s" not in agg.line()  # no rate before the first job
    now[0] = 102.0
    for _ in range(4):
        agg.add(True)
    assert agg.jobs_per_s() == pytest.approx(2.0)  # 4 jobs in 2 s
    assert agg.eta_s() == pytest.approx(3.0)       # 6 left at 2/s
    line = agg.line()
    assert "4/10" in line
    assert "2.0 job/s" in line and "eta 0:03" in line


def test_stream_aggregator_eta_reaches_zero():
    now = [0.0]
    agg = StreamAggregator(2, clock=lambda: now[0])
    now[0] = 90.0
    agg.add(True)
    agg.add(True)
    assert agg.eta_s() == 0
    assert "eta 0:00" in agg.line()
    # sub-second completions still report a finite, positive rate
    assert agg.jobs_per_s() > 0


def test_failure_counts_include_clean_groups():
    """Groups with zero failures still appear -- truncated sweeps must
    report the scenarios they covered, not just the ones that failed."""
    counts = failure_counts([
        ("latency", True), ("latency", True),
        ("storm", False), ("storm", True), ("storm", False),
    ])
    assert counts == {"latency": 0, "storm": 2}
    rendered = render_failure_counts(counts)
    assert "latency=0" in rendered and "storm=2" in rendered


def test_assemble_figure_handles_missing_cells():
    """A crashed cell renders as n/a instead of poisoning the table."""
    from repro.campaign import figure_jobs, assemble_figure

    jobs = figure_jobs("fig14", 0.3)
    results = [{"cycles": 1000} for _ in jobs]
    results[1] = None  # one cell lost to a worker crash
    table = assemble_figure("fig14", jobs, results)
    assert "n/a" in table
    assert "1.000" in table  # intact cells still compute their ratio

def test_stream_aggregator_zero_elapsed_clock_is_guarded():
    """An all-cached sweep can land every job inside one timer tick:
    the rate and ETA must come back None, never a division by zero."""
    agg = StreamAggregator(5, clock=lambda: 42.0)  # clock never advances
    for _ in range(3):
        agg.add(True, cached=True)
    assert agg.jobs_per_s() is None
    assert agg.eta_s() is None
    line = agg.line()  # must not raise on the None rate/eta pair
    assert "3/5" in line and "job/s" not in line


def test_stream_aggregator_all_cached_instant_completion():
    """Finishing everything on a frozen clock reports eta 0, no rate."""
    agg = StreamAggregator(4, clock=lambda: 7.0)
    for _ in range(4):
        agg.add(True, cached=True)
    assert agg.eta_s() == 0.0          # done: no phantom wait
    assert agg.jobs_per_s() is None    # rate undefined at zero elapsed
    assert "4/4" in agg.line()


def test_stream_aggregator_notes_surface_in_summary():
    agg = StreamAggregator(2)
    agg.add(True)
    agg.note("downgrade: pool 8 -> 4")
    agg.note("retry: litmus:sb 1/2")
    summary = agg.summary()
    assert "2 event(s)" in summary
    assert "pool 8 -> 4" in summary and "retry: litmus:sb" in summary
    # overflow keeps the line bounded
    for i in range(9):
        agg.note(f"e{i}")
    assert "(+6 more)" in agg.summary()
