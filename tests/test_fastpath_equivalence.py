"""Differential equivalence: dense loop vs event fast path.

The event engine's entire claim is that skipping no-progress ticks
(wake-ups, probe-skip, same-core chaining, idle replay) is
unobservable.  Both engines run the same per-cycle step (``Core.tick``),
so these suites check the scheduler, not what happens inside a tick
(which the verify oracle, the chaos checkers and the pinned probe
digests of tests/test_campaign_determinism.py check).  These tests run the
same workloads under both engines and assert *byte-identical*
results at every level the simulator exposes: final memory contents,
every per-core stats counter, retire logs, the full monitor event
stream (dispatch/complete/drain/fence/scope events with their exact
cycles), chaos fault-injection decisions, and litmus outcome sets.

Coverage: every offset pair of ``verify``'s grid (every corpus test in
every fence mode, on both coherence backends, at each sweep seed's
offsets), which is why ``verify`` runs the event engine only, with the
run memo's time-shifted result for each pair held to the event run; the whole
litmus corpus, seeded fuzz programs (the same
generator the differential fuzzer uses), a lock-free workload, and
chaos-fault scenarios -- each at two simulated core counts -- the
litmus corpus, cilk fib and a Fig. 15 cell on both coherence
backends, plus
directed tests for the wake-up contract's edge cases (zero-latency
memory, a core that never wakes, and wake-source coincidence).

Every run, monitored or not and under every memory model, dispatches
through the fused lanes.  The Fig. 13 app runs at the end drive them on
the paper's own programs (unmonitored, monitored with the ordering
checker attached, and under SC) and assert that no op of a fused kind
reached ``Core._dispatch_one``, the path of the rare kinds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from repro.campaign import verify_jobs
from repro.campaign.figures import _app_builders
from repro.campaign.jobs import warm_slot
from repro.chaos.faults import ChaosEngine, FaultPlan
from repro.chaos.invariants import OrderingChecker
from repro.cpu.core import Core
from repro.isa.instructions import (
    Compute,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Store,
)
from repro.isa.program import ops_program
from repro.litmus.corpus import CORPUS
from repro.litmus.dsl import (
    build_program,
    compile_litmus,
    parse_litmus,
    run_litmus,
    schedule_key,
)
from repro.runtime.lang import Env, reset_cids
from repro.sim.config import MemoryModel, SimConfig
from repro.sim.simulator import DeadlockError, Simulator
from repro.sim.trace import MonitorFanout, OrderEventLog
from repro.verify.modes import BACKENDS, apply_fence_mode
from repro.verify.runner import case_run_key, seed_offsets
from tests.test_litmus_fuzz import generate_program

OFFSETS = [0, 3, 47]
CORE_COUNTS = (2, 4)

#: engine name -> SimConfig overrides.  "event" is the default mode;
#: "dense" is the per-cycle reference loop.
ENGINES = {
    "dense": dict(dense_loop=True),
    "event": dict(dense_loop=False),
}


# ---------------------------------------------------------------- deep harness
def _run_workload(n_threads: int, engine: str, plan: FaultPlan | None = None):
    """One wsq-workload run; returns every observable as plain data."""
    from repro.algorithms.workloads import build_wsq_workload

    reset_cids()
    cfg = SimConfig(n_cores=n_threads, retire_log_len=32, **ENGINES[engine])
    env = Env(cfg)
    handle = build_wsq_workload(
        env, scope=FenceKind.SET, iterations=6, workload_level=1,
        n_threads=n_threads,
    )
    sim = env.simulator(handle.program)
    log = OrderEventLog()
    for core in sim.cores:
        core.monitor = log
    engine_ = ChaosEngine(plan).install(sim) if plan is not None else None
    res = sim.run(max_cycles=3_000_000)
    handle.check()
    return {
        "cycles": res.cycles,
        "stats": [dataclasses.asdict(c) for c in res.stats.cores],
        "summary": res.stats.summary(),
        "retire_logs": [list(core.retire_log) for core in sim.cores],
        "memory_sha": _memory_sha(sim.memory),
        "events": log.events,
        "injected": engine_.summary() if engine_ is not None else None,
    }


def _memory_sha(memory) -> str:
    """Digest of the full globally visible memory."""
    words = sorted(memory.snapshot().items())
    return hashlib.sha256(repr(words).encode()).hexdigest()


def _assert_identical(ref: dict, got: dict, engine: str) -> None:
    for key in ref:
        assert ref[key] == got[key], f"dense/{engine} diverged on {key!r}"


def _run_ops(ops_per_thread, engine: str, max_cycles: int = 200_000, **cfg):
    """Run an ops_program under one engine; returns all observables."""
    config = SimConfig(retire_log_len=16, **ENGINES[engine], **cfg)
    sim = Simulator(config, ops_program(ops_per_thread))
    res = sim.run(max_cycles=max_cycles)
    return {
        "cycles": res.cycles,
        "stats": [dataclasses.asdict(c) for c in res.stats.cores],
        "retire_logs": [list(core.retire_log) for core in sim.cores],
        "memory_sha": _memory_sha(sim.memory),
    }


def _litmus_pair(compiled, delays) -> dict:
    """One offset pair of a compiled litmus test, run in a fresh ``Env``.

    The registers, the cycles, every per-core stats counter and the
    final memory: observed at the stats level, so a mis-accounted idle
    span cannot hide behind unchanged outcomes.
    """
    env, program, registers = build_program(compiled, list(delays))
    res = env.run(program, max_cycles=2_000_000)
    return {
        "registers": dict(registers),
        "cycles": res.cycles,
        "stats": [dataclasses.asdict(c) for c in res.stats.cores],
        "memory": res.memory.snapshot(),
    }


def _assert_pair_equivalent(compiled, delays, where: str) -> dict:
    """``compiled`` (an event-engine config) against its dense twin,
    which differs from it in ``dense_loop`` alone; returns the event
    run."""
    dense = _litmus_pair(dataclasses.replace(
        compiled, config=compiled.config.with_(dense_loop=True)), delays)
    event = _litmus_pair(compiled, delays)
    for key in dense:
        assert dense[key] == event[key], (
            f"dense/event diverged on {key!r} at {where} offsets {delays}")
    return event


def _assert_litmus_equivalent(test, n_cores: int) -> None:
    compiled = compile_litmus(test, n_cores=n_cores)
    for pair in itertools.product(OFFSETS, repeat=2):
        _assert_pair_equivalent(compiled, pair, test.name)


# --------------------------------------------------------------- litmus corpus
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_litmus_corpus_equivalence(entry, n_cores):
    test = parse_litmus(entry.source)
    _assert_litmus_equivalent(test, max(n_cores, test.n_threads))


def _schedule(test, pair) -> tuple[tuple[int, int], int]:
    """The pair's run-memo key and shift, as documented: with both
    delays at least 1 and no mid-thread ``delay``, the pair moved
    earlier until its smaller delay is 1; any other pair as it is."""
    if min(pair) >= 1 and not any("delay" in stmts for stmts in test.threads):
        shift = min(pair) - 1
        return (pair[0] - shift, pair[1] - shift), shift
    return pair, 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_verify_grid_equivalence(backend):
    """Every offset pair ``verify`` simulates, dense against event, and
    what verify's run memo holds for it against the event run.

    The grid is read from verify itself: its job list (every corpus
    test in every fence mode), each sweep seed's offsets
    (:func:`~repro.verify.runner.seed_offsets`) and its run-memo key
    (:func:`~repro.verify.runner.case_run_key`).  A pair whose key an
    earlier cell already checked is skipped, as verify's run memo skips
    simulating it.  Each pair compares registers, cycles, per-core
    counters and final memory, which is stronger than verify's outcome
    sets, so verify itself runs the event engine only.  Each sweep also
    runs through :func:`~repro.litmus.dsl.run_litmus`, in verify's
    order, and every pair's ``(cycles, outcome)`` read back from the
    ``litmus-runs`` memo by its schedule key (:func:`_schedule`, shift
    added back) must be the direct event run's: a pair the memo derived
    from a time-shifted representative is held to its own simulation.
    """
    checked = set()
    memo = warm_slot("litmus-runs")
    for job in verify_jobs(backends=[backend]):
        p = job.params
        variant = apply_fence_mode(parse_litmus(p["source"]), p["mode"])
        compiled = compile_litmus(variant, MemoryModel.RMO, mem_backend=backend)
        key = case_run_key(p)
        for seed in range(p["seeds"]):
            offsets = seed_offsets(p["name"], p["mode"], seed)
            run_litmus(variant, MemoryModel.RMO, offsets, mem_backend=backend)
            for pair in itertools.product(offsets, repeat=2):
                if (key, pair) not in checked:
                    checked.add((key, pair))
                    where = f"{p['name']}[{p['mode']}]@{backend}"
                    event = _assert_pair_equivalent(compiled, pair, where)
                    schedule, shift = _schedule(variant, pair)
                    assert schedule_key(compiled, *pair) == (schedule, shift), (
                        f"memo key of {where} offsets {pair} is not its schedule")
                    cycles, outcome = memo[key][schedule]
                    assert (cycles + shift, outcome) == (
                        event["cycles"],
                        tuple(event["registers"].get(r)
                              for r in compiled.registers)), (
                        f"memo/event diverged at {where} offsets {pair}")
    assert checked


# ---------------------------------------------------------------- fuzz corpus
@pytest.mark.parametrize("seed", range(6))
def test_fuzz_program_equivalence(seed):
    test = parse_litmus(generate_program(seed))
    _assert_litmus_equivalent(test, max(2, test.n_threads))


# ------------------------------------------------------------ workload + chaos
@pytest.mark.parametrize("n_threads", CORE_COUNTS)
def test_workload_equivalence(n_threads):
    """Full observable state: memory, stats, retire logs, event stream."""
    dense = _run_workload(n_threads, "dense")
    _assert_identical(dense, _run_workload(n_threads, "event"), "event")


@pytest.mark.parametrize("n_threads", CORE_COUNTS)
def test_chaos_latency_spike_equivalence(n_threads):
    """Latency-spike injection draws the same RNG stream in all modes."""
    plan = FaultPlan(seed=7, mem_spike_prob=0.08, mem_spike_cycles=700,
                     mem_jitter=7)
    dense = _run_workload(n_threads, "dense", plan=plan)
    assert sum(dense["injected"].values()) > 0  # scenario actually fired
    _assert_identical(dense, _run_workload(n_threads, "event", plan=plan),
                      "event")


def test_chaos_drain_throttle_equivalence():
    """Drain throttling (the write-port RNG) is tick-aligned, the one
    injector whose decision stream depends on *which* cycles the core
    is consulted -- the fast path must consult on exactly the same
    ticks as the dense loop."""
    plan = FaultPlan(seed=9, drain_stall_prob=0.15, drain_stall_cycles=60)
    dense = _run_workload(4, "dense", plan=plan)
    assert dense["injected"].get("drain_stall", 0) > 0
    _assert_identical(dense, _run_workload(4, "event", plan=plan), "event")


# ------------------------------------------------- directed wake-up edge cases
def test_zero_latency_memory_equivalence():
    """Zero-latency memory: completion events land on the dispatch cycle.

    Every access resolves in 0 cycles, so completion events are pushed
    at the *current* cycle -- the degenerate case for
    ``next_event_cycle``'s strict ``c > now`` guards (a stale event at
    ``now`` must never be reported as a future wake-up) and for the
    scheduler's cycle+1 rescheduling after progress.
    """
    ops = [
        [Store(64 * t, t + 1), Fence(FenceKind.GLOBAL), Load(64 * (1 - t)),
         Compute(1), Store(64 * t + 8, 7), Load(64 * t + 8)]
        for t in range(2)
    ]
    dense = _run_ops(ops, "dense", n_cores=2,
                     l1_latency=0, l2_latency=0, mem_latency=0,
                     cache_to_cache_latency=0)
    got = _run_ops(ops, "event", n_cores=2,
                   l1_latency=0, l2_latency=0, mem_latency=0,
                   cache_to_cache_latency=0)
    _assert_identical(dense, got, "event")


def _wedge_core(sim: Simulator, core_id: int) -> None:
    """Give a core a ROB entry that never completes.

    The entry has no completion event, so once the core's generator is
    drained its ``next_event_cycle`` is ``None`` -- the "this core can
    never progress again" claim the scheduler turns into a stuck core
    (wake = INF) and, once every core is stuck or finished, a proven
    deadlock settled via ``_settle_stuck``.
    """
    from repro.cpu.rob import K_LOAD, RobEntry

    sim.cores[core_id].rob.push(RobEntry(K_LOAD, 0))


def test_never_wakes_core_settles_identically():
    """A core that never wakes: all-idle settle at the deadlock point.

    Core 0 is wedged on a never-completing ROB entry while core 1 runs
    real work to completion.  Each engine must (a) prove the deadlock at
    the same cycle and (b) charge the stuck core the same per-cycle idle
    accounting the dense loop pays by ticking it (``_settle_stuck``
    replays the span lazily since the stuck core left the heap).
    """
    ops = [[], [Store(64, 1), Load(4096), Compute(20)]]

    def settle(engine: str):
        config = SimConfig(n_cores=2, **ENGINES[engine])
        sim = Simulator(config, ops_program(ops))
        _wedge_core(sim, 0)
        with pytest.raises(DeadlockError) as exc_info:
            sim.run(max_cycles=100_000)
        return (exc_info.value.diagnostic.cycle,
                [dataclasses.asdict(c.stats) for c in sim.cores])

    dense = settle("dense")
    assert settle("event") == dense


def test_never_wakes_reports_none():
    """The wedged core's wake-up contract: no event can ever wake it."""
    sim = Simulator(SimConfig(n_cores=1), ops_program([[]]))
    _wedge_core(sim, 0)
    gens = sim.program.spawn()
    sim.cores[0].bind(gens[0])
    core = sim.cores[0]
    assert not core.tick(0)          # generator drained, head never done
    assert not core.finished
    assert core.next_event_cycle(0) is None


@pytest.mark.parametrize("compute_cycles", range(46, 56))
def test_op_exactly_on_wake_cycle(compute_cycles):
    """Wake-source coincidence: an event lands exactly on the wake cycle.

    A dependent-chain block (``_blocked_until``) races a store-drain
    completion event; sweeping the compute latency across the drain
    latency guarantees one parameter hits exact coincidence (both wake
    sources report the same cycle) plus both orderings around it.  The
    scheduler must not double-tick, skip, or mis-account any of them.
    """
    ops = [[Store(4096, 9), Compute(compute_cycles),
            Fence(FenceKind.GLOBAL), Load(4096), Compute(3)]]
    dense = _run_ops(ops, "dense", n_cores=1, mem_latency=50)
    got = _run_ops(ops, "event", n_cores=1, mem_latency=50)
    _assert_identical(dense, got, "event")


# ---------------------------------------------------------- fused lanes
#: app scale for the lane runs: small, but every app still checks
LANE_SCALE = 0.2


def _dispatch_one_ops(monkeypatch) -> list:
    """Record every op either engine hands to ``Core._dispatch_one``."""
    seen = []
    orig = Core._dispatch_one

    def spy(self, op, cycle, dispatched):
        seen.append(op)
        return orig(self, op, cycle, dispatched)

    monkeypatch.setattr(Core, "_dispatch_one", spy)
    return seen


def _fused(op, in_window: bool) -> bool:
    """Op kinds the fused lanes own."""
    cls = type(op)
    if cls is Fence:
        return not (in_window and op.speculable)
    return cls in (Load, Store, Compute, FsStart, FsEnd)


def _run_app(build, engine: str, monitored: bool = False, **cfg) -> dict:
    """One run without retire log: every observable.

    ``monitored`` attaches an event log and the ordering checker to
    every core; the run must then pass the checker, and its event
    stream joins the observables.
    """
    reset_cids()
    config = SimConfig(**ENGINES[engine], **cfg)
    env = Env(config)
    instance = build(env)
    sim = env.simulator(instance.program)
    assert all(c.monitor is None and c.retire_log is None for c in sim.cores)
    log = checker = None
    if monitored:
        log, checker = OrderEventLog(), OrderingChecker(config)
        for core in sim.cores:
            core.monitor = MonitorFanout(log, checker)
    res = sim.run(max_cycles=3_000_000)
    instance.check()
    if checker is not None:
        checker.assert_ok()
    return {
        "cycles": res.cycles,
        "stats": [dataclasses.asdict(c) for c in res.stats.cores],
        "summary": res.stats.summary(),
        "memory_sha": _memory_sha(sim.memory),
        "overflow_events": sum(c.tracker.overflow_events for c in sim.cores),
        "events": log.events if log is not None else None,
    }


def _check_lanes(monkeypatch, build, monitored: bool = False, **cfg) -> dict:
    """Dense vs event on ``build``; the fused-lane ops must stay fused."""
    seen = _dispatch_one_ops(monkeypatch)
    dense = _run_app(build, "dense", monitored, **cfg)
    got = _run_app(build, "event", monitored, **cfg)
    _assert_identical(dense, got, "event")
    in_window = cfg.get("in_window_speculation", False)
    leaked = {type(op).__name__ for op in seen if _fused(op, in_window)}
    assert not leaked, f"fused-lane ops took _dispatch_one: {leaked}"
    return dense


def _app(app: str, scope: FenceKind | None = None):
    builder, native = _app_builders(LANE_SCALE)[app]
    return lambda env: builder(env, scope or native)


APPS = ("pst", "ptc", "barnes", "radiosity")


@pytest.mark.parametrize("scope", [FenceKind.CLASS, FenceKind.SET],
                         ids=["class", "set"])
@pytest.mark.parametrize("app", APPS)
def test_fused_lanes_app_equivalence(monkeypatch, app, scope):
    """Scope delimiters, set-flagged accesses and fences on the lanes."""
    _check_lanes(monkeypatch, _app(app, scope))


@pytest.mark.parametrize("app", APPS)
def test_fused_lanes_sisd_equivalence(monkeypatch, app):
    """SiSd: a fused fence keeps the backend's sync-point latency."""
    _check_lanes(monkeypatch, _app(app), mem_backend="sisd")


@pytest.mark.parametrize("app", ["pst", "barnes"])
def test_fused_lanes_unscoped_equivalence(monkeypatch, app):
    """Baseline runs: the set flag must not reach the FSB mask."""
    _check_lanes(monkeypatch, _app(app), scoped_fences=False)


@pytest.mark.parametrize("hw", [
    dict(mapping_entries=1),
    dict(fsb_entries=2, fss_entries=1, mapping_entries=1),
], ids=["mapping", "fss"])
def test_fused_lanes_overflow_equivalence(monkeypatch, hw):
    """Scope overflow: the lanes stamp the all-class mask while the
    overflow counter is active (four scoped classes at once)."""
    from repro.algorithms.mixed import build_mixed_workload

    dense = _check_lanes(
        monkeypatch,
        lambda env: build_mixed_workload(env, iterations=4, workload_level=1),
        **hw,
    )
    assert dense["overflow_events"] > 0  # the overflow path actually ran


@pytest.mark.parametrize("backend", ["mesi", "sisd"])
@pytest.mark.parametrize("app", ["barnes", "radiosity"])
def test_fused_lanes_in_window_equivalence(monkeypatch, app, backend):
    """Speculative fences take _dispatch_one; stores behind them are held."""
    _check_lanes(monkeypatch, _app(app), in_window_speculation=True,
                 mem_backend=backend)


@pytest.mark.parametrize("app", ["pst", "ptc"])
def test_fused_lanes_monitored_equivalence(monkeypatch, app):
    """Monitored runs take the lanes too: the event stream they emit is
    the same under both engines, and the ordering checker passes it."""
    dense = _check_lanes(monkeypatch, _app(app), monitored=True,
                         mem_backend="sisd")
    kinds = {ev.kind for ev in dense["events"]}
    assert {"mem_dispatch", "fence_pass", "scope",
            "coherence_sync"} <= kinds


def test_fused_lanes_sc_equivalence(monkeypatch):
    """SC runs take the lanes: loads and stores wait at the SC gate."""
    dense = _check_lanes(monkeypatch, _app("pst"), memory_model=MemoryModel.SC)
    rmo = _run_app(_app("pst"), "event")
    assert dense["cycles"] > rmo["cycles"]  # the gate actually held ops


@pytest.mark.parametrize("backend", ["mesi", "sisd"])
def test_zero_latency_serialize_and_flagged_lanes(monkeypatch, backend):
    """A zero-latency ``serialize`` load does not end the dispatch group.

    With every access resolving in 0 cycles the address dependency is
    already satisfied, so the load lane keeps dispatching after it;
    set-scope-flagged accesses and class scopes exercise the set bit and
    the cached mask around them.
    """
    ops = [
        [FsStart(1), Store(64 * t, t + 1, flagged=True),
         Load(64 * (1 - t), serialize=True), Load(64 * t + 8, flagged=True),
         Fence(FenceKind.SET), Store(64 * t + 16, 3, flagged=True),
         Load(64 * t + 16, serialize=True), FsEnd(1),
         Fence(FenceKind.CLASS), Load(64 * (1 - t) + 8, serialize=True),
         Store(64 * t + 24, 5), Fence(FenceKind.GLOBAL), Load(64 * t + 24)]
        for t in range(2)
    ]
    lat = dict(n_cores=2, mem_backend=backend, l1_latency=0, l2_latency=0,
               mem_latency=0, cache_to_cache_latency=0)
    config = SimConfig(**ENGINES["dense"], **lat)
    dense = Simulator(config, ops_program(ops)).run(max_cycles=10_000)
    seen = _dispatch_one_ops(monkeypatch)
    sim = Simulator(config.with_(dense_loop=False), ops_program(ops))
    got = sim.run(max_cycles=10_000)
    assert not seen  # every op took a fused lane
    assert got.cycles == dense.cycles
    assert ([dataclasses.asdict(c) for c in got.stats.cores]
            == [dataclasses.asdict(c) for c in dense.stats.cores])
    assert _memory_sha(sim.memory) == _memory_sha(dense.memory)


# ------------------------------------------------------ perf smoke workloads
def _litmus_sweep(engine: str, mem_backend: str) -> dict:
    """The litmus corpus over a two-offset grid: many short runs."""
    runs = {}
    for entry in CORPUS:
        compiled = compile_litmus(parse_litmus(entry.source),
                                  mem_backend=mem_backend)
        compiled = dataclasses.replace(
            compiled, config=compiled.config.with_(**ENGINES[engine]))
        for pair in itertools.product([0, 3], repeat=2):
            runs[entry.name, pair] = _litmus_pair(compiled, pair)
    return runs


def _cilk_fib(engine: str, mem_backend: str) -> dict:
    """Fork-join fib(8) work stealing across 8 cores."""
    from repro.apps.cilk_fib import build_cilk_fib

    return _run_app(lambda env: build_cilk_fib(env, n=8), engine,
                    mem_backend=mem_backend)


def _fig15_500(engine: str, mem_backend: str) -> dict:
    """The Fig. 15 radiosity cell: global fence, 500-cycle memory."""
    builder, _native = _app_builders(0.25)["radiosity"]
    return _run_app(lambda env: builder(env, FenceKind.GLOBAL),
                    engine, mem_latency=500, mem_backend=mem_backend)


SMOKE_WORKLOADS = {
    "litmus": _litmus_sweep,
    "cilk_fib": _cilk_fib,
    "fig15-500": _fig15_500,
}


@pytest.mark.parametrize("backend", ["mesi", "sisd"])
@pytest.mark.parametrize("workload", sorted(SMOKE_WORKLOADS))
def test_smoke_workload_equivalence(workload, backend):
    """The mixed compute/steal (cilk_fib), overhead-bound (litmus) and
    mixed-latency (fig15-500) regimes, on both coherence backends."""
    run = SMOKE_WORKLOADS[workload]
    dense = run("dense", backend)
    _assert_identical(dense, run("event", backend), "event")


# ------------------------------------------------------ completion checks
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_duplicate_load_completion_raises(engine):
    """A completion without a matching dispatch fails loudly.

    An unscoped load (FSB mask 0) has its completion event duplicated
    right after the tick that dispatches it; each engine's loop must
    then reach the second completion and trip the FSB underflow check
    (the tick's mask-0 shortcut included) rather than drive the load
    counter negative.
    """
    sim = Simulator(SimConfig(n_cores=1, **ENGINES[engine]),
                    ops_program([[Load(4096), Compute(400)]]))
    core = sim.cores[0]
    duplicated = []

    class DuplicatingCore(type(core)):
        __slots__ = ()

        def tick(self, cycle):
            progress = super().tick(cycle)
            if not duplicated:
                at, seq, kind, entry = next(
                    e for e in self._events
                    if getattr(e[3], "addr", None) == 4096)
                self._schedule(at, kind, entry)
                duplicated.append(at)
            return progress

    # same slot layout, so the core can switch class; both engines look
    # ``tick`` up on the core when they start
    core.__class__ = DuplicatingCore
    with pytest.raises(RuntimeError, match="without matching dispatch"):
        sim.run()
    assert duplicated


def test_overflow_mask_reaches_reactivated_scope():
    """An op dispatched in overflow mode carries every class bit.

    Scope 2 first overflows a one-entry FSS, so its store has no FSB
    entry of its own; when scope 2 is re-opened with a real entry, its
    class fence must still wait for that store.  The fused store lane
    has to stamp the all-class mask for that to hold.
    """
    ops = [[FsStart(1), FsStart(2), Store(8192, 1), FsEnd(2), FsEnd(1),
            FsStart(2), Fence(FenceKind.CLASS), Load(64), FsEnd(2)]]
    hw = dict(n_cores=1, fss_entries=1, fsb_entries=3, mapping_entries=2)
    dense = _run_ops(ops, "dense", **hw)
    assert dense["stats"][0]["fence_stall_cycles"] > 0
    _assert_identical(dense, _run_ops(ops, "event", **hw), "event")
