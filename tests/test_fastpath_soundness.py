"""Property test for the wake-up contract behind the event scheduler.

``Core.next_event_cycle(now)`` promises (docs/architecture.md §9): after
a tick at ``now`` made no progress, every tick strictly before the
reported wake-up cycle (a) makes no progress, (b) mutates no observable
core state, and (c) bumps exactly the stall-counter deltas the
no-progress tick recorded (``_idle_deltas``) -- the three properties
that make skipping those ticks, and replaying their accounting via
``account_idle``, byte-identical to running them.

The probe-skip hint gets the same checks, with one allowance: after a
progress tick that publishes ``_skip_until > cycle + 1``, every tick
before ``_skip_until`` either makes no progress, leaves the core's
state as the tick before left it, and bumps exactly the
``_idle_deltas`` published with the hint (None: no counter) -- or it
is a *fold*: it progresses only by completing entries that sit behind
a ROB head that is not done.  A fold leaves the head (the same entry,
still not done), the ROB and store-buffer lengths, ``_blocked_until``,
``stall_reason``, the retire log and the instruction, load, store and
fence counts as they were, and bumps no stall counter; what it changes
(the event heap, FSB counters, the MSHR count) only the blocked
dispatch would read, and the wake tick's completion loop applies the
same completions in the same order.  Only an unmonitored run folds: a
monitor sees each completion's cycle.  That span is what the event
scheduler replays as idle without ticking it.

The checker drives the *dense* loop and verifies the contract at every
single no-progress tick, across workloads chosen to stall on every
wake-up source: fences over long memory misses (event heap), store
buffer full (drain completions), MSHR exhaustion, compute chains
(``_blocked_until``), chaos drain throttling (``_sb_hold_until``), a
long-miss ROB head with L1-hit loads and a compute chain behind it
(which must fold), and a work-stealing workload for cross-core
interaction.  A ``None`` wake-up must mean the core never progresses
again.  A deadlock raised while another core sleeps inside a fold span
must capture the diagnostic the dense loop captures.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos.faults import ChaosEngine, FaultPlan
from repro.isa.instructions import Compute, Fence, FenceKind, Load, Store
from repro.isa.program import ops_program
from repro.runtime.lang import Env, reset_cids
from repro.sim.config import SimConfig
from repro.sim.simulator import DeadlockError, Simulator


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


def _fold_view(core):
    """What a fold tick may not change: the not-done ROB head (by
    identity), the queue lengths, the chain block, the stall reason,
    the retire log and the op counts."""
    head = core.rob.head() if len(core.rob) else None
    return (
        head, head is not None and head.done,
        len(core.rob), len(core.sb), core._blocked_until, core.stall_reason,
        tuple(core.retire_log) if core.retire_log is not None else None,
        core.stats.instructions, core.stats.loads, core.stats.stores,
        core.stats.fences,
    )


def _deltas(core):
    """The published stall-counter deltas, None read as all zero."""
    return core._idle_deltas or (0, 0, 0, 0)


def _assert_frozen(core, ticked, pre, snap, deltas, where: str) -> None:
    """One tick a claim covers: no progress, no state change, the deltas."""
    assert not ticked, f"{where}: progressed"
    assert _snapshot(core) == snap, f"{where}: mutated observable state"
    got = tuple(a - b for a, b in zip(_counters(core), pre))
    assert got == deltas, f"{where}: stall-counter deltas {got} != {deltas}"


def _assert_fold(core, pre, view, where: str) -> None:
    """A progress tick inside a skip span: only completions behind the
    not-done head, no stall counter bumped."""
    assert core.monitor is None, f"{where}: a monitored run folded"
    head, head_done = view[0], view[1]
    assert head is not None and not head_done, \
        f"{where}: progressed with no not-done ROB head"
    assert _fold_view(core) == view, f"{where}: fold changed {_fold_view(core)}"
    got = tuple(a - b for a, b in zip(_counters(core), pre))
    assert got == (0, 0, 0, 0), f"{where}: fold bumped stall counters {got}"


def check_wakeup_contract(sim: Simulator, limit: int = 300_000) -> Counter:
    """Dense-tick ``sim`` verifying the contract and the probe-skip hint.

    Returns how many ticks were checked: ``"wake"`` ticks before a
    reported wake-up, ``"skip"`` no-progress ticks inside a published
    skip span and ``"fold"`` progress ticks inside one.
    """
    gens = sim.program.spawn()
    for core, gen in zip(sim.cores, gens):
        core.bind(gen)
    for core in sim.cores[len(gens):]:
        core.bind(None)

    cores = sim.cores
    pending: dict[int, tuple] = {}  # core -> (wake, snapshot, deltas)
    # core -> [skip_until, snapshot after the last tick, fold view, deltas]
    hints: dict[int, list] = {}
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
                until, snap, view, deltas = hint
                if cycle < until:
                    where = (f"core {i} at cycle {cycle}, inside its "
                             f"probe-skip span ending at {until}")
                    if ticked:
                        checked["fold"] += 1
                        _assert_fold(core, pre, view, where)
                        hint[1] = _snapshot(core)
                        continue
                    checked["skip"] += 1
                    _assert_frozen(core, ticked, pre, snap, deltas, where)
                else:
                    del hints[i]
            if ticked and not core.finished and core._skip_until > cycle + 1:
                hints[i] = [core._skip_until, _snapshot(core),
                            _fold_view(core), _deltas(core)]
            if not ticked and not core.finished:
                pending[i] = (
                    core.next_event_cycle(cycle), _snapshot(core),
                    _deltas(core),
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


def test_head_only_wake_folds_younger_completions():
    """A long-miss head load with L1-hit loads and a compute chain
    behind it: the dense loop completes the younger loads inside the
    chain block's skip span (folds), which the event engine leaves to
    the wake tick."""
    warm = [64 * j for j in range(4)]
    ops = [Load(a) for a in warm] + [Compute(400)]
    for i in range(4):
        ops += [Load(8192 + 64 * i)]                       # misses: ROB head
        ops += [Load(a) for a in warm] + [Compute(40)]     # hits, then a chain
        ops += [Load(a) for a in warm] + [Compute(40)]
    checked = check_wakeup_contract(Simulator(SimConfig(n_cores=1),
                                              ops_program([ops])))
    _assert_checked(checked)
    assert checked["fold"] > 0, dict(checked)


def test_deadlock_inside_a_fold_span_settles_the_other_cores():
    """Core 0 deadlocks while core 1 sleeps through a head-only wake
    whose younger completions are still in its heap: before capturing
    the diagnostic the event engine applies them, so both engines
    capture equal diagnostics."""
    from tests.test_fastpath_equivalence import _wedge_core

    warm = [64 * j for j in range(3)]
    core1 = ([Load(a) for a in warm] + [Compute(400), Load(8192)]
             + [Load(a) for a in warm] + [Compute(600)])

    def stuck(dense: bool):
        sim = Simulator(SimConfig(n_cores=2, dense_loop=dense),
                        ops_program([[Compute(450)], core1]))
        _wedge_core(sim, 0)
        with pytest.raises(DeadlockError) as exc_info:
            sim.run(max_cycles=100_000)
        return exc_info.value.diagnostic

    dense, event = stuck(True), stuck(False)
    assert event == dense
    assert dense.stuck_core == 0 and 400 < dense.cycle < 600
    assert not dense.cores[1].finished
