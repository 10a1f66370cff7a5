"""Declarative campaign jobs and their runners.

A :class:`Job` is a picklable, JSON-serialisable description of one
unit of work -- ``(kind, params)`` -- with no live objects attached, so
it can cross a process boundary and be content-hashed for the result
cache.  :func:`execute_job` is the single entry point both the inline
path and the worker processes use: it resets per-process lazy state
(class-id assignment) and dispatches to the kind's runner, so a job's
result is a pure function of its parameters and the code version --
never of which jobs ran before it in the same process.

Job kinds:

* ``chaos``  -- one supervised fault-injection case
  (:func:`repro.chaos.runner.run_chaos_case`); result is the flattened
  :class:`~repro.chaos.runner.ChaosReport`.
* ``figure`` -- one cell of a Figure 12-16 table
  (:mod:`repro.campaign.figures`).
* ``litmus`` -- one corpus litmus test checked against its expected
  RMO observability.
* ``probe``  -- a chaos case that additionally digests the full
  monitor event stream (:func:`repro.chaos.runner.run_probe_case`);
  used by the determinism regression tests to prove in-process,
  subprocess and pool execution are byte-identical.
* ``verify`` -- one (litmus test, fence mode, engine) cell of the
  exhaustive model-checking matrix (:mod:`repro.verify`): DPOR allowed
  set, reference cross-check, simulator soundness and coverage.
* ``synth`` -- one fence-synthesis corpus entry: search the placement
  x mode lattice for the cheapest placement both oracles prove sound,
  then compare against the hand-written placement
  (:mod:`repro.synth`).
* ``app-synth`` -- whole-program synthesis for one ``apps/`` or
  ``algorithms/`` workload: delay-set-derived slots, kernel or
  chaos-campaign soundness oracle, anti-vacuity mutation battery
  (:mod:`repro.synth.programs`).
* ``selftest`` -- engine plumbing checks (crash/hang/error on demand;
  the ``*-once`` variants fault only until their marker file exists,
  which is how the retry tests stage a transient failure).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Job:
    """One schedulable, cacheable unit of campaign work."""

    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        p = self.params
        if self.kind == "chaos" or self.kind == "probe":
            return f"{self.kind}:{p['algo']}/{p['scenario']}#{p['seed']}"
        if self.kind == "figure":
            return _figure_label(p)
        if self.kind == "litmus":
            return f"litmus:{p['name']}"
        if self.kind == "verify":
            eng = p["engine"]
            if p.get("backend", "mesi") != "mesi":
                eng = f"{eng}@{p['backend']}"
            return f"verify:{p['name']}[{p['mode']}]@{eng}"
        if self.kind == "synth":
            return f"synth:{p['name']}"
        if self.kind == "app-synth":
            return f"app-synth:{p['name']}"
        return self.kind


def _figure_label(p: dict) -> str:
    """``fig15:pst/mem_latency=300/global/mesi``: names one figure cell."""
    parts = [p.get("bench") or p.get("app")]
    if "level" in p:
        parts += [f"level={p['level']}", "scoped" if p["scoped"] else "global"]
    if "label" in p:
        parts.append(p["label"])
    if "param" in p:
        parts += [f"{p['param']}={p['value']}", p["scope"] or "scoped"]
    elif p["figure"] == "fig14":
        parts.append(p["scope"])
    parts.append(p.get("backend") or p["mem_backend"])
    return f"{p['figure']}:" + "/".join(parts)


#: relative cost units per kind, roughly "one litmus corpus job = 1".
#: Chunking hints only -- they shape how many jobs share a worker
#: chunk, never what a job computes.
_KIND_COST = {
    "chaos": 12.0,
    "probe": 12.0,
    "figure": 8.0,
    "verify": 1.0,
    "litmus": 1.0,
    "synth": 8.0,  # lattice scan: many explorations + cost probes per job
    "app-synth": 24.0,  # chaos batteries + moderate-scale cost sweeps
    "selftest": 0.1,
}


def job_cost(job: Job) -> float:
    """Estimated relative wall-clock weight of one job.

    The persistent pool batches jobs until a chunk reaches its cost
    target, so tiny litmus/verify cells travel together while one
    chaos storm rung -- an order of magnitude heavier -- fills a chunk
    alone.  Estimates only feed chunk shaping; a wrong estimate costs
    balance, never correctness.
    """
    cost = _KIND_COST.get(job.kind, 1.0)
    if job.kind in ("chaos", "probe"):
        from ..chaos.runner import SCENARIOS

        scenario = SCENARIOS.get(job.params.get("scenario", ""))
        if scenario is not None:
            cost *= scenario.cost
        cost *= max(job.params.get("base_budget", 400_000) / 400_000, 0.1)
    elif job.kind == "figure":
        from .figures import cell_cost

        cost = cell_cost(job.params)
    elif job.kind == "verify" and job.params.get("engine") == "dense":
        cost *= 3.0  # the dense reference loop pays per-cycle ticks
    return cost


def job_affinity(job: Job):
    """Jobs with equal non-``None`` affinity share simulations.

    App figure cells return their :func:`repro.campaign.figures.cell_key`
    and verify cells their :func:`repro.verify.runner.case_run_key`; the
    chunk planner keeps such jobs in one worker, whose warm memo then
    serves every one after the first.  Everything else returns ``None``
    and is chunked on cost alone.
    """
    if job.kind == "figure":
        from .figures import cell_key

        return cell_key(job.params)
    if job.kind == "verify":
        from ..verify.runner import case_run_key

        return case_run_key(job.params)
    return None


def follower_cost(job: Job) -> float:
    """What a job adds to the chunk of the first job sharing its affinity.

    A figure cell reads its leader's measured point and costs nothing.
    A verify cell shares only the offset pairs its sweeps have in common
    with its leader's (the seed-0 grid; later seeds draw grids keyed on
    the cell's own fence mode), so it is charged in full.
    """
    return 0.0 if job.kind == "figure" else job_cost(job)


# ------------------------------------------------------------- warm worker state
#: per-process memo for pure, param-keyed intermediate products (parsed
#: litmus tests, DPOR explorations, litmus runs, measured figure
#: points).  Persistent pool workers keep this warm across the jobs of a
#: campaign; entries are keyed by the full defining content, so within
#: one process a hit can never be stale -- the campaign's code cannot
#: change under a running worker, and a new campaign (new fingerprint)
#: starts new workers.
_WARM: dict[str, dict] = {}


def warm_slot(name: str) -> dict:
    """The named per-process warm-cache dict (created on first use).

    A hit is only as fresh as the code that filled the entry.  Code
    that patches the simulator inside a running process (a test, a
    mutation check) must :func:`clear_warm_state` first, or it reads
    results simulated without its patch; the test suite clears the
    memos before every test.
    """
    return _WARM.setdefault(name, {})


def clear_warm_state() -> None:
    """Drop every warm memo.

    Tests call it to measure cold paths, and before every test (an
    autouse fixture), so no test reads a run another test simulated,
    perhaps under a patched simulator.
    """
    _WARM.clear()


# --------------------------------------------------------------------- builders
def chaos_jobs(
    algos=None,
    scenarios=None,
    n_seeds: int = 20,
    seed_base: int = 0,
    base_budget: int = 400_000,
    escalations: int = 3,
    mem_backend: str = "mesi",
) -> list[Job]:
    """The chaos sweep cross product: scenario-major, then algorithm, then seed."""
    from ..chaos.runner import ALGORITHMS, SCENARIOS

    algos = list(ALGORITHMS) if algos is None else list(algos)
    scenarios = list(SCENARIOS) if scenarios is None else list(scenarios)
    for name in algos:
        if name not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {name!r} (have {sorted(ALGORITHMS)})")
    for name in scenarios:
        if name not in SCENARIOS:
            raise KeyError(f"unknown scenario {name!r} (have {sorted(SCENARIOS)})")
    return [
        Job("chaos", {
            "algo": algo, "scenario": scenario, "seed": seed_base + s,
            "base_budget": base_budget, "escalations": escalations,
            "mem_backend": mem_backend,
        })
        for scenario in scenarios
        for algo in algos
        for s in range(n_seeds)
    ]


def litmus_jobs(
    model: str = "rmo",
    offsets: list[int] | None = None,
    mem_backend: str = "mesi",
) -> list[Job]:
    """One job per litmus-corpus entry."""
    from ..litmus.corpus import CORPUS

    offsets = offsets or [0, 1, 40, 150, 320]
    return [
        Job("litmus", {
            "name": entry.name, "source": entry.source, "model": model,
            "offsets": list(offsets), "expect_observable": entry.observable_rmo,
            "mem_backend": mem_backend,
        })
        for entry in CORPUS
    ]


def verify_jobs(
    modes: list[str] | None = None,
    engines: list[str] | None = None,
    seeds: int | None = None,
    smoke: bool = False,
    backends: list[str] | None = None,
) -> list[Job]:
    """The verification matrix: corpus x fence mode x engine x backend.

    The coherence backend is an explicit job parameter (default
    ``mesi``), so it participates in the result-cache content hash:
    switching ``--mem-backend`` can never serve a payload swept on a
    different backend.
    """
    from ..litmus.corpus import CORPUS
    from ..verify.modes import BACKENDS, FENCE_MODES
    from ..verify.runner import DEFAULT_SEEDS, ENGINES

    modes = list(FENCE_MODES) if modes is None else list(modes)
    engines = list(ENGINES) if engines is None else list(engines)
    backends = ["mesi"] if backends is None else list(backends)
    for mode in modes:
        if mode not in FENCE_MODES:
            raise KeyError(f"unknown fence mode {mode!r} (have {list(FENCE_MODES)})")
    for engine in engines:
        if engine not in ENGINES:
            raise KeyError(f"unknown engine {engine!r} (have {list(ENGINES)})")
    for backend in backends:
        if backend not in BACKENDS:
            raise KeyError(f"unknown backend {backend!r} (have {list(BACKENDS)})")
    if seeds is None:
        seeds = 1 if smoke else DEFAULT_SEEDS
    return [
        Job("verify", {
            "name": entry.name, "source": entry.source, "mode": mode,
            "engine": engine, "seeds": seeds, "smoke": smoke,
            "backend": backend,
        })
        for entry in CORPUS
        for mode in modes
        for engine in engines
        for backend in backends
    ]


def synth_jobs(
    names: list[str] | None = None,
    modes: list[str] | None = None,
    offsets: list[int] | None = None,
    smoke: bool = False,
    mem_backend: str = "mesi",
) -> list[Job]:
    """One fence-synthesis job per synthesis-corpus entry.

    The mode lattice and the offset grid are job parameters (not
    ambient configuration), so changing either busts the result-cache
    key and a cached payload can never describe a different search.
    """
    from ..synth.corpus import SYNTH_CORPUS, synth_entry
    from ..synth.cost import PROBE_OFFSETS, SMOKE_PROBE_OFFSETS
    from ..synth.sites import MODES

    names = [e.name for e in SYNTH_CORPUS] if names is None else list(names)
    for name in names:
        synth_entry(name)  # raises KeyError on an unknown test
    modes = list(MODES) if modes is None else list(modes)
    for mode in modes:
        if mode not in MODES:
            raise KeyError(f"unknown fence mode {mode!r} (have {list(MODES)})")
    if offsets is None:
        offsets = list(SMOKE_PROBE_OFFSETS if smoke else PROBE_OFFSETS)
    return [
        Job("synth", {
            "name": name, "modes": list(modes), "offsets": list(offsets),
            "smoke": smoke, "mem_backend": mem_backend,
        })
        for name in names
    ]


def app_synth_jobs(
    names: list[str] | None = None,
    scenarios: list[str] | None = None,
    seeds: list[int] | None = None,
    base_budget: int = 600_000,
    smoke: bool = False,
) -> list[Job]:
    """One whole-program synthesis job per app corpus entry.

    The chaos-oracle battery (scenarios x seeds) is part of the job
    parameters so a cached payload always names the exact rejection
    sample it was judged by; ``smoke`` shrinks the battery to one cell
    and skips the moderate-scale cost sweeps.
    """
    from ..chaos.runner import SCENARIOS
    from ..synth.programs import (
        CHAOS_SCENARIOS,
        CHAOS_SEEDS,
        app_entry,
        app_names,
    )

    names = app_names() if names is None else list(names)
    for name in names:
        app_entry(name)  # raises KeyError on an unknown app
    if scenarios is None:
        scenarios = ["drain"] if smoke else list(CHAOS_SCENARIOS)
    for name in scenarios:
        if name not in SCENARIOS:
            raise KeyError(f"unknown scenario {name!r} (have {sorted(SCENARIOS)})")
    if seeds is None:
        seeds = [0] if smoke else list(CHAOS_SEEDS)
    return [
        Job("app-synth", {
            "name": name, "scenarios": list(scenarios), "seeds": list(seeds),
            "base_budget": base_budget, "smoke": smoke,
        })
        for name in names
    ]


def probe_jobs(
    cases: list[tuple[str, str, int]],
    base_budget: int = 400_000,
    mem_backend: str = "mesi",
) -> list[Job]:
    """Determinism probes over (algo, scenario, seed) cases."""
    return [
        Job("probe", {"algo": a, "scenario": sc, "seed": s,
                      "base_budget": base_budget, "mem_backend": mem_backend})
        for a, sc, s in cases
    ]


# ---------------------------------------------------------------------- runners
def _run_chaos_job(params: dict, heartbeat=None) -> dict:
    from ..chaos.runner import run_chaos_case

    report = run_chaos_case(
        params["algo"], params["scenario"], params["seed"],
        base_budget=params.get("base_budget", 400_000),
        escalations=params.get("escalations", 3),
        on_attempt=None if heartbeat is None else (lambda _attempt: heartbeat()),
        mem_backend=params.get("mem_backend", "mesi"),
    )
    return asdict(report)


def _run_figure_job(params: dict, heartbeat=None) -> dict:
    from .figures import run_figure_cell

    return run_figure_cell(params)


def _run_litmus_job(params: dict, heartbeat=None) -> dict:
    from ..litmus.dsl import parse_litmus, run_litmus
    from ..sim.config import MemoryModel

    # parse products are pure functions of the source text; persistent
    # pool workers running many offsets/modes of the same test parse once
    memo = warm_slot("litmus-parse")
    test = memo.get(params["source"])
    if test is None:
        test = memo[params["source"]] = parse_litmus(params["source"])
    run = run_litmus(
        test, MemoryModel(params["model"]), list(params["offsets"]),
        mem_backend=params.get("mem_backend", "mesi"),
    )
    expected = params["expect_observable"]
    return {
        "name": test.name,
        "registers": run.register_names,
        "outcomes": sorted(list(o) for o in run.outcomes),
        "condition": test.condition,
        "condition_observed": run.condition_observed,
        # the outcome tuples satisfying the exists clause: on a
        # forbidden-but-observed mismatch these are the offending
        # tuples the error message must name
        "condition_outcomes": sorted(list(o) for o in run.matching_outcomes()),
        "expect_observable": expected,
        "ok": run.condition_observed == expected,
    }


def _run_verify_job(params: dict, heartbeat=None) -> dict:
    from ..verify.runner import verify_case

    return verify_case(params)


def _run_synth_job(params: dict, heartbeat=None) -> dict:
    from ..synth.report import run_synth_case

    return run_synth_case(params, on_progress=heartbeat)


def _run_app_synth_job(params: dict, heartbeat=None) -> dict:
    from ..synth.programs import run_app_synth_case

    scenarios = tuple(params.get("scenarios") or ("drain",))
    seeds = tuple(params.get("seeds") or (0,))
    return run_app_synth_case(
        params["name"],
        scenarios=scenarios,
        seeds=seeds,
        base_budget=params.get("base_budget", 600_000),
        measure_costs=not params.get("smoke", False),
        on_progress=heartbeat,
    )


def _run_probe_job(params: dict, heartbeat=None) -> dict:
    from ..chaos.runner import run_probe_case

    return run_probe_case(
        params["algo"], params["scenario"], params["seed"],
        base_budget=params.get("base_budget", 400_000),
        mem_backend=params.get("mem_backend", "mesi"),
    )


def _run_selftest_job(params: dict, heartbeat=None) -> dict:
    mode = params.get("mode", "ok")
    if mode == "crash":
        os._exit(17)
    if mode == "hang":
        while True:  # killed by the engine's job timeout
            time.sleep(0.05)
    if mode == "error":
        raise RuntimeError("selftest error job")
    if mode in ("crash-once", "hang-once"):
        # transient-failure stand-ins for the retry tests: fault on the
        # first execution (marker file absent), succeed on the re-run.
        # The marker makes the job impure, so these are test-only and
        # must never meet a result cache.
        marker = params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            if mode == "crash-once":
                os._exit(17)
            while True:  # killed by the engine's job timeout
                time.sleep(0.05)
        return {"mode": mode, "echo": params.get("echo")}
    return {"mode": mode, "echo": params.get("echo")}


_RUNNERS = {
    "app-synth": _run_app_synth_job,
    "chaos": _run_chaos_job,
    "figure": _run_figure_job,
    "litmus": _run_litmus_job,
    "probe": _run_probe_job,
    "synth": _run_synth_job,
    "verify": _run_verify_job,
    "selftest": _run_selftest_job,
}


def execute_job(job: Job, heartbeat=None) -> dict:
    """Run one job in the current process; returns its result payload.

    Resets lazily assigned class ids first so the result is independent
    of whatever ran earlier in this process -- the property that lets a
    pool worker, a fresh subprocess and the inline path all produce the
    identical payload for the same job.
    """
    from ..runtime.lang import reset_cids

    runner = _RUNNERS.get(job.kind)
    if runner is None:
        raise KeyError(f"unknown job kind {job.kind!r} (have {sorted(_RUNNERS)})")
    reset_cids()
    return runner(job.params, heartbeat=heartbeat)
