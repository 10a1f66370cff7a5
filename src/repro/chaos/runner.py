"""Seed-sweep driver: scenarios x algorithms x seeds.

One *case* = one algorithm harness run under one fault scenario with
one seed.  The case is rebuilt from scratch for every supervised
attempt (fresh :class:`~repro.runtime.lang.Env`, fresh workload handle,
fresh fault engine and checker) so escalation rungs are exact
deterministic replays.  After the run the case is judged three ways:

1. the :class:`~repro.chaos.invariants.OrderingChecker` that shadowed
   every core must report zero violations,
2. the workload's own ``check()`` (linearizability/accounting) must
   pass,
3. the supervisor must not have classified the run as
   deadlock/livelock/budget.

Scenario presets target the degraded paths the paper's safety argument
leans on: the ``scope`` scenario shrinks the FSB/FSS/mapping table *and*
forces the overflow counter, so entry sharing, mapping overflow and
counter mode all trigger; ``branch`` forces mispredictions to exercise
the FSS' restore; ``storm`` layers everything at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algorithms.workloads import (
    build_harris_workload,
    build_lamport_workload,
    build_msn_workload,
    build_treiber_workload,
    build_wsq_workload,
)
from ..isa.instructions import FenceKind
from ..runtime.lang import Env
from ..sim.config import SimConfig
from .faults import ChaosEngine, FaultPlan
from .invariants import DelayPairChecker, OrderingChecker, address_base_map
from .supervisor import run_supervised


@dataclass(frozen=True)
class Scenario:
    """A named fault mix plus the config it needs."""

    name: str
    description: str
    plan: FaultPlan                      # template; seed filled per case
    config: dict = field(default_factory=dict)   # SimConfig overrides
    emit_branches: bool = False
    #: relative wall-clock weight vs the latency baseline; a campaign
    #: chunk-shaping hint only (repro.campaign.jobs.job_cost), never
    #: part of what the scenario simulates
    cost: float = 1.0


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "latency",
            "memory-latency spikes and jitter",
            FaultPlan(mem_spike_prob=0.05, mem_spike_cycles=700, mem_jitter=7),
            cost=1.4,
        ),
        Scenario(
            "branch",
            "forced branch mispredictions (FSS' restore path)",
            FaultPlan(branch_flip_prob=0.3),
            config={"use_branch_predictor": True},
            emit_branches=True,
            cost=0.9,
        ),
        Scenario(
            "drain",
            "store-buffer drain throttling",
            FaultPlan(drain_stall_prob=0.1, drain_stall_cycles=60),
        ),
        Scenario(
            "scope",
            "tiny FSB/FSS/mapping table + forced overflow "
            "(entry sharing, mapping overflow, counter mode)",
            FaultPlan(scope_overflow_prob=0.2),
            config={"fsb_entries": 2, "fss_entries": 2, "mapping_entries": 2},
        ),
        Scenario(
            "storm",
            "all of the above, plus in-window speculation",
            FaultPlan(
                mem_spike_prob=0.03, mem_spike_cycles=500, mem_jitter=5,
                branch_flip_prob=0.2, scope_overflow_prob=0.1,
                drain_stall_prob=0.05, drain_stall_cycles=40,
            ),
            config={
                "use_branch_predictor": True,
                "in_window_speculation": True,
                "fsb_entries": 3, "fss_entries": 3, "mapping_entries": 3,
            },
            emit_branches=True,
            cost=1.8,
        ),
    )
}

# Small-iteration variants of the Section VI-A harnesses: a sweep runs
# hundreds of cases, so each one is kept to a few thousand memory ops.
ALGORITHMS = {
    "wsq": lambda env, scope, br: build_wsq_workload(
        env, scope=scope, iterations=8, workload_level=1, n_threads=4,
        emit_branches=br),
    "msn": lambda env, scope, br: build_msn_workload(
        env, scope=scope, iterations=6, workload_level=1, n_threads=4,
        emit_branches=br),
    "harris": lambda env, scope, br: build_harris_workload(
        env, scope=scope, iterations=6, workload_level=1, n_threads=4,
        emit_branches=br),
    "treiber": lambda env, scope, br: build_treiber_workload(
        env, scope=scope, iterations=6, workload_level=1, n_threads=4,
        emit_branches=br),
    "lamport": lambda env, scope, br: build_lamport_workload(
        env, scope=scope, iterations=12, workload_level=1,
        emit_branches=br),
}


@dataclass
class ChaosReport:
    """Outcome of one case, flattened for tables/JSON."""

    algo: str
    scenario: str
    seed: int
    scope: str
    status: str          # ok / violations / check-failed / deadlock / livelock / budget
    cycles: int = 0
    attempts: int = 0
    events: int = 0
    fences_checked: int = 0
    violations: int = 0
    injected: dict = field(default_factory=dict)
    detail: str = ""
    #: distinct delay patterns the DelayPairChecker saw violated, as
    #: JSON-pure [base_a, kind_a, base_b, kind_b] lists so cached and
    #: live payloads compare equal (plan cases only; empty when no
    #: patterns were monitored)
    pair_violated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_chaos_case(
    algo: str,
    scenario: str,
    seed: int,
    base_budget: int = 400_000,
    escalations: int = 3,
    on_attempt=None,
    dense_loop: bool = False,
    mem_backend: str = "mesi",
) -> ChaosReport:
    """Run one (algorithm, scenario, seed) case under supervision.

    ``on_attempt`` is forwarded to the supervisor's escalation ladder;
    campaign workers use it to heartbeat between budget rungs.
    """
    scen = SCENARIOS[scenario]
    build_algo = ALGORITHMS[algo]
    # alternate the fence flavour so both class- and set-scope paths
    # (and their distinct FSB columns) see every scenario
    scope = FenceKind.SET if seed % 2 else FenceKind.CLASS
    state: dict = {}

    def build():
        cfg = SimConfig(
            n_cores=4, retire_log_len=16, dense_loop=dense_loop,
            mem_backend=mem_backend, **scen.config
        )
        env = Env(cfg)
        handle = build_algo(env, scope, scen.emit_branches)
        sim = env.simulator(handle.program)
        engine = ChaosEngine(scen.plan.with_(seed=seed)).install(sim)
        checker = OrderingChecker(cfg)
        for core in sim.cores:
            core.monitor = checker
        state.update(handle=handle, engine=engine, checker=checker)
        return sim

    outcome = run_supervised(
        build, base_budget=base_budget, escalations=escalations,
        raise_on_failure=False, on_attempt=on_attempt,
    )
    checker: OrderingChecker = state["checker"]
    report = ChaosReport(
        algo=algo,
        scenario=scenario,
        seed=seed,
        scope=scope.value,
        status="ok",
        attempts=len(outcome.attempts),
        events=checker.events_seen,
        fences_checked=checker.fences_checked,
        violations=checker.violation_count,
        injected=state["engine"].summary(),
    )
    if outcome.failure is not None:
        report.status = outcome.failure.kind.value
        report.detail = str(outcome.failure)
        return report
    report.cycles = outcome.result.cycles
    if not checker.ok:
        report.status = "violations"
        report.detail = "\n".join(v.render() for v in checker.violations[:10])
        return report
    try:
        state["handle"].check()
    except AssertionError as exc:
        report.status = "check-failed"
        report.detail = str(exc)
    return report


def run_plan_case(
    builder,
    scenario: str,
    seed: int,
    patterns=None,
    label: str = "app",
    base_budget: int = 400_000,
    escalations: int = 3,
    on_attempt=None,
    dense_loop: bool = False,
    mem_backend: str = "mesi",
) -> ChaosReport:
    """Run an arbitrary guest builder under one chaos scenario.

    The generalized :func:`run_chaos_case`: instead of a named
    ``ALGORITHMS`` preset, ``builder(env, emit_branches)`` constructs
    the workload handle -- which is how the whole-program synthesizer
    drives the real apps with swapped-in
    :class:`~repro.runtime.harness.FencePlan` placements.  When
    ``patterns`` (delay-set ordering requirements) are given, a
    :class:`~repro.chaos.invariants.DelayPairChecker` shadows every
    core alongside the ordering checker; the case is judged by the
    supervisor, both checkers, and the handle's own ``check()``.
    """
    scen = SCENARIOS[scenario]
    state: dict = {}

    def build():
        cfg = SimConfig(
            n_cores=4, retire_log_len=16, dense_loop=dense_loop,
            mem_backend=mem_backend, **scen.config
        )
        env = Env(cfg)
        handle = builder(env, scen.emit_branches)
        sim = env.simulator(handle.program)
        engine = ChaosEngine(scen.plan.with_(seed=seed)).install(sim)
        checker = OrderingChecker(cfg)
        pair_checker = None
        monitor = checker
        if patterns:
            pair_checker = DelayPairChecker(patterns, address_base_map(env.space))
            from ..sim.trace import MonitorFanout

            monitor = MonitorFanout(checker, pair_checker)
        for core in sim.cores:
            core.monitor = monitor
        state.update(handle=handle, engine=engine, checker=checker,
                     pair_checker=pair_checker)
        return sim

    outcome = run_supervised(
        build, base_budget=base_budget, escalations=escalations,
        raise_on_failure=False, on_attempt=on_attempt,
    )
    checker: OrderingChecker = state["checker"]
    pair_checker = state["pair_checker"]
    pair_violations = pair_checker.violation_count if pair_checker else 0
    report = ChaosReport(
        algo=label,
        scenario=scenario,
        seed=seed,
        scope="plan",
        status="ok",
        attempts=len(outcome.attempts),
        events=checker.events_seen,
        fences_checked=checker.fences_checked,
        violations=checker.violation_count + pair_violations,
        injected=state["engine"].summary(),
    )
    if pair_checker is not None:
        report.pair_violated = sorted(list(p) for p in pair_checker.violated)
    if outcome.failure is not None:
        report.status = outcome.failure.kind.value
        report.detail = str(outcome.failure)
        return report
    report.cycles = outcome.result.cycles
    if not checker.ok or (pair_checker is not None and not pair_checker.ok):
        report.status = "violations"
        lines = [v.render() for v in checker.violations[:5]]
        if pair_checker is not None:
            lines += [v.render() for v in pair_checker.violations[:5]]
        report.detail = "\n".join(lines)
        return report
    try:
        state["handle"].check()
    except AssertionError as exc:
        report.status = "check-failed"
        report.detail = str(exc)
    return report


def sweep(
    algos=None,
    scenarios=None,
    n_seeds: int = 20,
    seed_base: int = 0,
    base_budget: int = 400_000,
    escalations: int = 3,
    progress=None,
    dense_loop: bool = False,
    mem_backend: str = "mesi",
) -> list[ChaosReport]:
    """Run the full cross product; returns one report per case."""
    algos = list(ALGORITHMS) if algos is None else list(algos)
    scenarios = list(SCENARIOS) if scenarios is None else list(scenarios)
    for name in algos:
        if name not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {name!r} (have {sorted(ALGORITHMS)})")
    for name in scenarios:
        if name not in SCENARIOS:
            raise KeyError(f"unknown scenario {name!r} (have {sorted(SCENARIOS)})")
    reports = []
    for scenario in scenarios:
        for algo in algos:
            for s in range(n_seeds):
                rep = run_chaos_case(
                    algo, scenario, seed_base + s,
                    base_budget=base_budget, escalations=escalations,
                    dense_loop=dense_loop, mem_backend=mem_backend,
                )
                reports.append(rep)
                if progress is not None:
                    progress(rep)
    return reports
