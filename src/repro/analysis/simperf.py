"""Perf-regression gate: the two execution engines head to head.

Times one workload, ``fig15-hot``, under the dense reference loop and
the event-driven engine (the default) and reports wall time, simulated
cycles per second and the speedup between them -- the number that
guards the event engine against performance regressions (the
equivalence *tests* guard it against correctness regressions; this
module additionally cross-checks a result fingerprint per
engine/backend so a perf run that silently diverged is flagged and
named in the exit status).

``fig15-hot`` is the Figure 15 radiosity cell (a traditional global
fence) with the figure's memory-latency axis pushed to 2000 cycles,
deep into the stall-dominated regime Figure 15's trend points at: the
dense loop's cost grows linearly with the latency while the event
engine's stays flat, which is the property the speedup gate checks.
(barnes, the figure's other latency-sensitive app, is
busy-polling-bound on this simulator -- some core makes progress on
most cycles -- so it measures scheduler overhead, not skipping.)
End-to-end wall time of what users run is the job of the repository
benchmark (``benchmarks/e2e``), not of this gate.

Timing protocol: both engines are timed ``reps`` times in interleaved
(dense, event) pairs and the *minimum* wall per engine is reported.  A
single-shot wall is hostage to scheduler noise; min-of-N of each side
is the standard estimator of the noise floor and is what the speedup
gate is judged on.

Wall-clock ratios move by about 20 % on the same code, so each
backend's cell also records ``event_ticks``, the event engine's
``Core.tick`` calls (deterministic: every rep must count the same, or
the cell reads ``identical: false``), and ``ticks_per_core_cycle``,
those ticks over the dense loop's, which ticks every core every cycle.
A change to the wake rule moves them exactly, whatever the timing noise.

``python -m repro perf`` drives this module and writes
``BENCH_simperf.json``; ``--smoke`` shrinks the workload for CI, and
``--mem-backend mesi,sisd`` adds a column set per backend.
"""

from __future__ import annotations

import time

from ..sim.config import MEM_BACKENDS, SimConfig

#: the one timed workload, and the cell the speedup gate applies to
GATE_WORKLOAD = "fig15-hot"
DESCRIPTION = "radiosity, global fence, fig15 latency axis at 2000 cycles"
GATE_MEM_LATENCY = 2000

#: timed repetitions per engine (min wall wins)
DEFAULT_REPS = 3

#: engine name -> SimConfig flags
ENGINES = {
    "dense": {"dense_loop": True},
    "event": {"dense_loop": False},
}


def run_gate_workload(smoke: bool, dense_loop: bool = False,
                      mem_backend: str = "mesi"):
    """Simulate ``fig15-hot``; return (simulated_cycles, fingerprint,
    ticks).

    The fingerprint is the result's stats summary, which both engines
    must agree on; ``ticks`` (:attr:`SimResult.ticks`) is the engine's
    own work and stays out of it.
    """
    from ..campaign.figures import _app_builders
    from ..isa.instructions import FenceKind
    from ..runtime.lang import Env

    scale = 0.25 if smoke else 1.0
    builder, _native = _app_builders(scale)["radiosity"]
    cfg = SimConfig(mem_latency=GATE_MEM_LATENCY, dense_loop=dense_loop,
                    mem_backend=mem_backend)
    env = Env(cfg)
    workload = builder(env, FenceKind.GLOBAL)
    result = env.run(workload.program)
    workload.check()
    return result.cycles, result.stats.summary(), result.ticks


def _timed(engine: str, smoke: bool, mem_backend: str):
    from ..runtime.lang import reset_cids

    reset_cids()
    t0 = time.perf_counter()
    cycles, fingerprint, ticks = run_gate_workload(smoke=smoke,
                                                   mem_backend=mem_backend,
                                                   **ENGINES[engine])
    wall = time.perf_counter() - t0
    return wall, cycles, fingerprint, ticks


def _measure_backend(smoke: bool, mem_backend: str, reps: int,
                     progress=None) -> dict:
    """One backend's cell: each engine min-of-reps."""
    walls = {"dense": [], "event": []}
    ticks = {"dense": set(), "event": set()}
    results = []
    # interleaved rep pairs so OS-level noise drifts hit both engines
    for _ in range(max(1, reps)):
        for engine in walls:
            wall, cycles, fp, n = _timed(engine, smoke, mem_backend)
            walls[engine].append(wall)
            ticks[engine].add(n)
            results.append((cycles, fp))
    dense_cycles = results[0][0]
    # every rep of an engine ticks the same: a spread is nondeterminism
    identical = (all(r == results[0] for r in results)
                 and all(len(t) == 1 for t in ticks.values()))
    event_ticks = max(ticks["event"])
    dense_ticks = max(ticks["dense"])
    dense_wall = min(walls["dense"])
    event_wall = min(walls["event"])
    cell = {
        "sim_cycles": dense_cycles,
        "dense_wall_s": round(dense_wall, 4),
        "event_wall_s": round(event_wall, 4),
        "dense_cycles_per_s": round(dense_cycles / dense_wall) if dense_wall else None,
        "event_cycles_per_s": round(dense_cycles / event_wall) if event_wall else None,
        "event_speedup": round(dense_wall / event_wall, 2) if event_wall else None,
        "event_ticks": event_ticks,
        "ticks_per_core_cycle": round(event_ticks / dense_ticks, 5),
        "identical": identical,
    }
    if progress is not None:
        progress(
            f"[perf] {GATE_WORKLOAD}[{mem_backend}]: dense "
            f"{cell['dense_wall_s']}s, event {cell['event_wall_s']}s "
            f"({cell['event_speedup']}x)"
            + ("" if identical else "  ** RESULTS DIVERGED **")
        )
    return cell


def run_perf(
    smoke: bool = False,
    min_speedup: float | None = None,
    progress=None,
    mem_backends: list[str] | tuple[str, ...] | str = ("mesi",),
    reps: int = DEFAULT_REPS,
) -> dict:
    """Time :data:`GATE_WORKLOAD` under both engines on every backend.

    The report is JSON-ready: a column set per backend, the primary
    (first listed) backend's columns flattened to the top level, and a
    ``gate`` verdict.  The ``identical`` cross-check applies to every
    backend; ``min_speedup`` (event vs dense) applies to the primary
    backend.  ``ok`` is False if the gate fails.
    """
    if isinstance(mem_backends, str):
        mem_backends = [b.strip() for b in mem_backends.split(",") if b.strip()]
    backends = list(mem_backends) or ["mesi"]
    for b in backends:
        if b not in MEM_BACKENDS:
            raise KeyError(f"unknown mem backend {b!r} (have {list(MEM_BACKENDS)})")

    cells = {}
    for backend in backends:
        if progress is not None:
            progress(f"[perf] {GATE_WORKLOAD}[{backend}] ...")
        cells[backend] = _measure_backend(smoke, backend, reps, progress)
    report: dict = {"smoke": smoke, "reps": reps, "mem_backends": backends,
                    "workload": GATE_WORKLOAD, "description": DESCRIPTION,
                    "backends": cells}
    report.update(cells[backends[0]])
    gate = {"workload": GATE_WORKLOAD,
            "identical": all(c["identical"] for c in cells.values())}
    gate["passed"] = gate["identical"]
    if min_speedup is not None:
        gate["min_speedup"] = min_speedup
        gate["speedup"] = report["event_speedup"]
        gate["passed"] = gate["passed"] and bool(
            gate["speedup"] is not None and gate["speedup"] >= min_speedup
        )
    report["gate"] = gate
    report["ok"] = gate["passed"]
    return report


def divergent_cells(report: dict) -> list[str]:
    """Every ``workload[backend]`` whose identical cross-check failed."""
    return [f"{GATE_WORKLOAD}[{backend}]"
            for backend, cell in report["backends"].items()
            if not cell["identical"]]
