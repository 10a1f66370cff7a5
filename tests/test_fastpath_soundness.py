"""Property test for the wake-up contract behind the event scheduler.

``Core.next_event_cycle(now)`` promises (docs/architecture.md §9): after
a tick at ``now`` made no progress, every tick strictly before the
reported wake-up cycle (a) makes no progress, (b) mutates no observable
core state, and (c) bumps exactly the stall-counter deltas the
no-progress tick recorded (``_idle_deltas``) -- the three properties
that make skipping those ticks, and replaying their accounting via
``account_idle``, byte-identical to running them.

The probe-skip hint gets the same three checks: after a progress tick
that publishes ``_skip_until > cycle + 1``, every tick before
``_skip_until`` makes no progress, leaves the core's state as the
progress tick left it, and bumps exactly the ``_idle_deltas`` published
with the hint -- the span the event scheduler replays as idle without
ticking it.

The checker drives the *dense* loop and verifies the contract at every
single no-progress tick, across workloads chosen to stall on every
wake-up source: fences over long memory misses (event heap), store
buffer full (drain completions), MSHR exhaustion, compute chains
(``_blocked_until``), chaos drain throttling (``_sb_hold_until``), and
a work-stealing workload for cross-core interaction.  A ``None``
wake-up must mean the core never progresses again.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos.faults import ChaosEngine, FaultPlan
from repro.isa.instructions import Compute, Fence, FenceKind, Load, Store
from repro.isa.program import ops_program
from repro.runtime.lang import Env, reset_cids
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator


def _counters(core):
    s = core.stats
    return (s.fence_stall_cycles, s.rob_full_stalls, s.sb_full_stalls,
            s.mshr_stalls)


def _snapshot(core):
    """Everything observable about one core's architectural state."""
    return (
        len(core.rob), len(core.sb), core.stall_reason, core.finished,
        core._blocked_until, core._sb_hold_until, core._outstanding_misses,
        len(core._events),
        tuple(core.retire_log) if core.retire_log is not None else None,
        core.stats.instructions, core.stats.loads, core.stats.stores,
        core.stats.fences,
    )


def _assert_frozen(core, ticked, pre, snap, deltas, where: str) -> None:
    """One tick a claim covers: no progress, no state change, the deltas."""
    assert not ticked, f"{where}: progressed"
    assert _snapshot(core) == snap, f"{where}: mutated observable state"
    got = tuple(a - b for a, b in zip(_counters(core), pre))
    assert got == deltas, f"{where}: stall-counter deltas {got} != {deltas}"


def check_wakeup_contract(sim: Simulator, limit: int = 300_000) -> Counter:
    """Dense-tick ``sim`` verifying the contract and the probe-skip hint.

    Returns how many ticks were checked: ``"wake"`` ticks before a
    reported wake-up, ``"skip"`` ticks inside a published skip span.
    """
    gens = sim.program.spawn()
    for core, gen in zip(sim.cores, gens):
        core.bind(gen)
    for core in sim.cores[len(gens):]:
        core.bind(None)

    cores = sim.cores
    pending: dict[int, tuple] = {}  # core -> (wake, snapshot, deltas)
    hints: dict[int, tuple] = {}  # core -> (skip_until, snapshot, deltas)
    checked = Counter()
    cycle = 0
    while cycle < limit:
        progress = False
        running = 0
        for i, core in enumerate(cores):
            pre = _counters(core)
            ticked = core.tick(cycle)
            if ticked:
                progress = True
            if not core.finished:
                running += 1
            claim = pending.get(i)
            if claim is not None:
                wake, snap, deltas = claim
                if wake is None or cycle < wake:
                    checked["wake"] += 1
                    _assert_frozen(core, ticked, pre, snap, deltas,
                                   f"core {i} at cycle {cycle}, strictly "
                                   f"before its reported wake-up {wake}")
                else:
                    pending.pop(i, None)
            hint = hints.get(i)
            if hint is not None:
                until, snap, deltas = hint
                if cycle < until:
                    checked["skip"] += 1
                    _assert_frozen(core, ticked, pre, snap, deltas,
                                   f"core {i} at cycle {cycle}, inside its "
                                   f"probe-skip span ending at {until}")
                else:
                    del hints[i]
            if ticked and not core.finished and core._skip_until > cycle + 1:
                hints[i] = (core._skip_until, _snapshot(core),
                            core._idle_deltas)
            if not ticked and not core.finished:
                pending[i] = (
                    core.next_event_cycle(cycle), _snapshot(core),
                    core._idle_deltas,
                )
            elif ticked:
                pending.pop(i, None)
        if running == 0:
            return checked
        if not progress and all(
            core.next_event_cycle(cycle) is None
            for core in cores if not core.finished
        ):
            return checked  # proven deadlock: None claims all held to the end
        cycle += 1
    raise AssertionError(f"workload did not finish within {limit} cycles")


def _assert_checked(checked: Counter) -> None:
    """Every workload exercises both claims: wake-ups and skip spans."""
    assert checked["wake"] > 0 and checked["skip"] > 0, dict(checked)


# ------------------------------------------------------------------- workloads
def test_fence_and_memory_event_sources():
    """Fences over cold misses: event-heap and drain wake-ups."""
    prog = ops_program([
        [Store(64 * i, i + 1), Fence(FenceKind.GLOBAL), Load(64 * i + 8192),
         Store(64 * i + 16384, 7), Fence(FenceKind.GLOBAL), Load(64 * i + 24576)]
        for i in range(4)
    ])
    _assert_checked(check_wakeup_contract(Simulator(SimConfig(n_cores=4), prog)))


def test_store_buffer_pressure_source():
    """SB-full stalls: wake-ups come from drain completions."""
    prog = ops_program([
        [Store(64 * (12 * t + j), j + 1) for j in range(12)] + [Fence(FenceKind.GLOBAL)]
        for t in range(2)
    ])
    cfg = SimConfig(n_cores=2, sb_size=2)
    _assert_checked(check_wakeup_contract(Simulator(cfg, prog)))


def test_mshr_and_compute_sources():
    """MSHR exhaustion and compute-chain (_blocked_until) wake-ups."""
    prog = ops_program([
        [Load(64 * (16 * t + j) + 8192) for j in range(16)]
        + [Compute(400), Load(64 * (16 * t + 20) + 8192)]
        for t in range(2)
    ])
    cfg = SimConfig(n_cores=2, mshrs=2)
    _assert_checked(check_wakeup_contract(Simulator(cfg, prog)))


@pytest.mark.parametrize("n_threads", (2, 4))
def test_workload_cross_core(n_threads):
    """Work stealing: cores interact only through memory, never wake-ups."""
    from repro.algorithms.workloads import build_wsq_workload

    reset_cids()
    env = Env(SimConfig(n_cores=n_threads, retire_log_len=16))
    handle = build_wsq_workload(
        env, scope=FenceKind.SET, iterations=4, workload_level=1,
        n_threads=n_threads,
    )
    sim = env.simulator(handle.program)
    _assert_checked(check_wakeup_contract(sim, limit=3_000_000))
    handle.check()


def test_chaos_drain_hold_source():
    """Chaos drain throttling adds the _sb_hold_until wake-up source."""
    from repro.algorithms.workloads import build_wsq_workload

    reset_cids()
    env = Env(SimConfig(n_cores=2, retire_log_len=16))
    handle = build_wsq_workload(
        env, scope=FenceKind.SET, iterations=4, workload_level=1, n_threads=2,
    )
    sim = env.simulator(handle.program)
    engine = ChaosEngine(
        FaultPlan(seed=5, drain_stall_prob=0.3, drain_stall_cycles=50)
    ).install(sim)
    _assert_checked(check_wakeup_contract(sim, limit=3_000_000))
    assert engine.counts["drain_stall"] > 0
