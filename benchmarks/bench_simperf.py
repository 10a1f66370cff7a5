"""Simulator perf regression: the two execution engines head to head.

Not a paper figure -- this benchmark guards the simulator itself.  It
times the :mod:`repro.analysis.simperf` gate workload (``fig15-hot``)
under the dense reference loop and the event engine, reports wall
time / simulated-cycles-per-second / speedup, and fails if the event
engine regresses below 3x over the dense loop, or if the two engines'
results ever diverge.

``REPRO_SCALE`` < 1 maps to the harness's smoke sizing, same as the CI
``perf-smoke`` job (``python -m repro perf --smoke``).
"""

from conftest import SCALE

from repro.analysis.report import format_table
from repro.analysis.simperf import GATE_WORKLOAD, run_perf

MIN_GATE_SPEEDUP = 3.0


def test_fastpath_perf_regression(benchmark, report):
    perf = run_perf(smoke=SCALE < 1.0, min_speedup=MIN_GATE_SPEEDUP)

    report(format_table(
        ["workload", "sim cycles", "dense s", "event s", "speedup",
         "identical"],
        [(GATE_WORKLOAD, perf["sim_cycles"], perf["dense_wall_s"],
          perf["event_wall_s"], f"{perf['event_speedup']}x",
          "yes" if perf["identical"] else "DIVERGED")],
        title="simulator perf -- dense loop vs event engine",
    ))

    assert perf["identical"], f"{GATE_WORKLOAD}: engine results diverged"
    assert perf["event_speedup"] >= MIN_GATE_SPEEDUP, (
        f"{GATE_WORKLOAD}: event engine only {perf['event_speedup']}x over "
        f"dense (required >= {MIN_GATE_SPEEDUP}x)"
    )
    assert perf["ok"]
