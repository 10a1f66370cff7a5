"""Behavioural tests of the out-of-order core (single core unless noted)."""

from collections import Counter

import pytest

from repro.isa.instructions import (
    Branch,
    Cas,
    Compute,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Probe,
    Store,
    WAIT_BOTH,
    WAIT_STORES,
)
from repro.isa.program import Program, ops_program
from repro.sim.config import MemoryModel, SimConfig
from repro.sim.simulator import Simulator, run_program
from repro.sim.trace import OrderEventLog


def run_ops(ops, **cfg):
    cfg.setdefault("n_cores", 1)
    return run_program(ops_program([ops]), SimConfig(**cfg))


def test_empty_program():
    res = run_ops([])
    assert res.cycles == 0
    assert res.stats.instructions == 0


def test_store_then_load_forwards():
    def body(tid):
        yield Store(100, 7)
        v = yield Load(100)
        assert v == 7

    res = run_program(Program([body]), SimConfig(n_cores=1))
    assert res.stats.cores[0].sb_forwards >= 1
    assert res.memory.read_global(100) == 7


def test_load_returns_initialized_value():
    def body(tid):
        v = yield Load(50)
        assert v == 123

    cfg = SimConfig(n_cores=1)
    sim = Simulator(cfg, Program([body]))
    sim.memory.write_global(50, 123)
    sim.run()


def test_traditional_fence_waits_for_store_drain():
    res = run_ops([Store(100, 1), Fence(FenceKind.GLOBAL, WAIT_BOTH), Load(200)])
    # the fence must stall roughly the cold-miss drain latency
    assert res.stats.cores[0].fence_stall_cycles >= 250
    assert res.memory.read_global(100) == 1


def test_scoped_fence_skips_out_of_scope_store():
    """The Figure 10 scenario: the class fence ignores the out-of-scope
    cold-miss store and issues once the in-scope (cheap) access drains."""
    def build(kind):
        return [
            Store(4096, 1),              # out of scope, cold miss
            FsStart(1),
            Store(100, 2),               # in scope, also cold, but that's all
            Fence(kind, WAIT_STORES),
            Load(200),
            FsEnd(1),
        ]

    trad = run_ops(build(FenceKind.GLOBAL))
    scoped = run_ops(build(FenceKind.CLASS))
    assert scoped.stats.cores[0].fence_stall_cycles <= trad.stats.cores[0].fence_stall_cycles
    assert scoped.stats.cores[0].sfence_early_issues >= 0
    # both must still publish every store eventually
    assert scoped.memory.read_global(4096) == 1


def test_scoped_fence_early_issue_counted():
    ops = [
        Store(4096, 1),
        FsStart(1),
        Fence(FenceKind.CLASS, WAIT_STORES),  # empty scope: issues at once
        FsEnd(1),
    ]
    res = run_ops(ops)
    assert res.stats.cores[0].sfence_early_issues == 1


def test_set_fence_waits_only_flagged():
    ops_flagged_pending = [
        Store(100, 1, flagged=True),
        Fence(FenceKind.SET, WAIT_STORES),
    ]
    ops_unflagged_pending = [
        Store(100, 1, flagged=False),
        Fence(FenceKind.SET, WAIT_STORES),
    ]
    r1 = run_ops(ops_flagged_pending)
    r2 = run_ops(ops_unflagged_pending)
    assert r1.stats.cores[0].fence_stall_cycles > r2.stats.cores[0].fence_stall_cycles


def test_compute_blocks_dispatch():
    res = run_ops([Compute(500)])
    assert res.cycles >= 500


def test_branch_mispredict_costs_penalty():
    base = run_ops([Branch(mispredict=False), Compute(1)])
    miss = run_ops([Branch(mispredict=True), Compute(1)])
    cfg = SimConfig()
    assert miss.cycles >= base.cycles + cfg.mispredict_penalty - 1
    assert miss.stats.cores[0].branch_mispredicts == 1


def test_probe_runs_at_dispatch():
    seen = []
    res = run_ops([Probe(fn=seen.append), Compute(1)])
    assert len(seen) == 1
    assert isinstance(seen[0], int)


def test_cas_results_and_atomicity():
    def body(tid):
        ok = yield Cas(100, 0, 5)
        assert ok is True
        ok = yield Cas(100, 0, 6)
        assert ok is False

    res = run_program(Program([body]), SimConfig(n_cores=1))
    assert res.memory.read_global(100) == 5
    assert res.stats.cores[0].cas_ops == 2


def test_concurrent_cas_exactly_one_winner():
    wins = []

    def body(tid):
        ok = yield Cas(100, 0, tid + 1)
        if ok:
            wins.append(tid)

    res = run_program(Program([body, body]), SimConfig(n_cores=2))
    assert len(wins) == 1
    assert res.memory.read_global(100) == wins[0] + 1


def test_cas_waits_for_own_same_address_store():
    def body(tid):
        yield Store(100, 3)
        ok = yield Cas(100, 3, 4)  # must see its own prior store
        assert ok

    res = run_program(Program([body]), SimConfig(n_cores=1))
    assert res.memory.read_global(100) == 4


def test_cas_fence_mode_blocks_younger():
    ops = [Store(4096, 1), Cas(100, 0, 1), Load(200)]
    free = run_ops(list(ops), cas_fence=False)
    fenced = run_ops(list(ops), cas_fence=True)
    assert fenced.stats.cores[0].fence_stall_cycles > free.stats.cores[0].fence_stall_cycles


def test_serialized_load_blocks_dispatch():
    fast = run_ops([Load(100), Compute(1)])
    slow = run_ops([Load(100, serialize=True), Compute(1)])
    assert slow.cycles > fast.cycles


def test_unknown_yield_rejected():
    def body(tid):
        yield 42

    with pytest.raises(TypeError):
        run_program(Program([body]), SimConfig(n_cores=1))


def test_rob_fills_on_many_loads():
    # more independent cold-miss loads than ROB entries
    ops = [Load(i * 64) for i in range(80)]
    res = run_ops(ops, rob_size=16)
    assert res.stats.cores[0].rob_full_stalls > 0


def test_sb_at_dispatch_only_under_rmo():
    # under TSO a store behind an incomplete load cannot drain early;
    # under RMO (senior store queue) it can
    ops = [Load(8192), Store(100, 1), Fence(FenceKind.GLOBAL, WAIT_STORES)]
    rmo = run_ops(list(ops), memory_model=MemoryModel.RMO)
    tso = run_ops(list(ops), memory_model=MemoryModel.TSO)
    # TSO: the store waits for the load to retire before entering the SB,
    # so the fence stalls longer
    assert tso.stats.cores[0].fence_stall_cycles >= rmo.stats.cores[0].fence_stall_cycles


def test_sc_orders_every_memory_op():
    ops = [Store(4096, 1), Load(100)]
    sc = run_ops(list(ops), memory_model=MemoryModel.SC)
    rmo = run_ops(list(ops), memory_model=MemoryModel.RMO)
    # under SC the load waits for the store's drain
    assert sc.cycles > rmo.cycles


def _event_log(ops, **cfg):
    """Run one core's ``ops`` with an event log attached; its events."""
    sim = Simulator(SimConfig(n_cores=1, **cfg), ops_program([ops]))
    log = OrderEventLog()
    sim.cores[0].monitor = log
    sim.run()
    return log.events


def test_sc_store_waits_for_older_load():
    """Under SC a store waits at dispatch for every older memory op.

    The store's buffered value only becomes visible at retire, after the
    older load, so skipping the SC gate for stores changes no litmus
    outcome -- only this dispatch timing shows it.
    """
    events = _event_log([Load(4096), Store(64, 1)], memory_model=MemoryModel.SC,
                        mem_latency=300)
    load_done = next(e.cycle for e in events
                     if e.kind == "mem_complete" and e.seq == 1)
    store_issued = next(e.cycle for e in events
                        if e.kind == "mem_dispatch" and e.op == "store")
    assert load_done >= 300
    assert store_issued >= load_done


def test_forwarded_load_completes_next_cycle():
    """Store-to-load forwarding from the own buffer takes one cycle."""
    events = _event_log([Store(4096, 5), Load(4096)])
    issued = next(e for e in events
                  if e.kind == "mem_dispatch" and e.op == "load")
    done = next(e for e in events
                if e.kind == "mem_complete" and e.seq == issued.seq)
    assert done.cycle == issued.cycle + 1


def test_sisd_sync_event_follows_fence_pass():
    """A passing fence reports itself before the backend sync it causes."""
    events = _event_log([Store(4096, 5), Fence(), Load(64)], mem_backend="sisd")
    kinds = [e.kind for e in events]
    at = kinds.index("fence_pass")
    assert kinds[at + 1] == "coherence_sync"
    assert "coherence_sync" not in kinds[:at]


def test_unscoped_load_completion_counts_down_open_fence():
    """Completion phase: a mask-0 load completion counts down open fences.

    Under in-window speculation a global fence dispatches behind an
    in-flight unscoped load (FSB mask 0) and waits for it.  The load's
    completion must count the fence's group down, or the fence never
    completes and its held store never drains.
    """
    res = run_ops([Load(4096), Fence(FenceKind.GLOBAL), Store(8192, 1)],
                  in_window_speculation=True)
    assert res.memory.read_global(8192) == 1


def test_retire_width_bounds_each_cycle():
    """Retire phase: at most ``retire_width`` ops leave the ROB a cycle.

    Sixteen completed scope delimiters queue behind a missing load; once
    the load completes they drain from the ROB head, ``retire_width``
    per cycle.
    """
    ops = [Load(4096)] + [FsStart(1), FsEnd(1)] * 8
    sim = Simulator(SimConfig(n_cores=1, retire_log_len=32), ops_program([ops]))
    sim.run()
    per_cycle = Counter(cycle for cycle, _, _ in sim.cores[0].retire_log)
    assert max(per_cycle.values()) == sim.config.retire_width


def test_instruction_count():
    res = run_ops([Store(1, 1), Load(1), Compute(2), Fence(), FsStart(1), FsEnd(1)])
    assert res.stats.instructions == 6
    assert res.stats.cores[0].loads == 1
    assert res.stats.cores[0].stores == 1
    assert res.stats.fences == 1
