"""Wait-mask selectivity: S-Fence composes with lfence/sfence-style
refinement (Section VII: 'the idea of S-Fence can be combined with the
various finer fences').

A fence with ``WAIT_STORES`` orders prior stores only; ``WAIT_LOADS``
prior loads only.  These tests check both the timing side (what stalls)
and the architectural side (which litmus outcomes are forbidden); the
corpus's ``SB+ll`` and ``MP+ss`` entries repeat the latter on both
backends in ``tests/test_litmus_corpus.py``.
"""

from repro.isa.instructions import (
    Fence,
    FenceKind,
    Load,
    Store,
    WAIT_BOTH,
    WAIT_LOADS,
    WAIT_STORES,
)
from repro.isa.program import ops_program
from repro.litmus.dsl import pair_grid, parse_litmus, run_litmus
from repro.sim.config import MemoryModel, SimConfig
from repro.sim.simulator import run_program

FAST = [0, 1, 5, 40, 150, 320]


def stall_of(ops):
    res = run_program(ops_program([ops]), SimConfig(n_cores=1))
    return res.stats.cores[0].fence_stall_cycles


def test_store_wait_ignores_pending_loads():
    loads_pending = [Load(4096), Fence(FenceKind.GLOBAL, WAIT_STORES)]
    stores_pending = [Store(4096, 1), Fence(FenceKind.GLOBAL, WAIT_STORES)]
    assert stall_of(loads_pending) < 10
    assert stall_of(stores_pending) > 250


def test_load_wait_ignores_pending_stores():
    loads_pending = [Load(4096), Fence(FenceKind.GLOBAL, WAIT_LOADS)]
    stores_pending = [Store(4096, 1), Fence(FenceKind.GLOBAL, WAIT_LOADS)]
    assert stall_of(loads_pending) > 250
    assert stall_of(stores_pending) < 10


def test_wait_both_waits_for_everything():
    ops = [Load(4096), Store(8192, 1), Fence(FenceKind.GLOBAL, WAIT_BOTH)]
    assert stall_of(ops) > 250


def test_scoped_wait_masks_compose():
    """A class-scope store-store fence ignores in-scope pending loads."""
    from repro.isa.instructions import FsEnd, FsStart

    ops = [
        FsStart(1),
        Load(4096),
        Fence(FenceKind.CLASS, WAIT_STORES),
        FsEnd(1),
    ]
    assert stall_of(ops) < 10


def test_sb_not_forbidden_by_load_only_fence():
    """Store buffering needs store->load ordering; a load-load fence
    leaves the relaxed outcome observable."""
    sb = """
    name SB+{fence}
    x = 1    | y = 1
    {fence:<8} | {fence}
    r0 = y   | r1 = x
    exists r0 == 0 and r1 == 0
    """
    # a full fence forbids it ...
    full = parse_litmus(sb.format(fence="fence"))
    fenced = run_litmus(full, MemoryModel.RMO, pair_grid(full, FAST))
    assert not fenced.condition_observed
    # ... but replacing it with WAIT_LOADS does not
    ll = parse_litmus(sb.format(fence="fence.ll"))
    assert ll.threads[0][1] == "fence.ll"
    res = run_litmus(ll, MemoryModel.RMO, pair_grid(ll, FAST))
    assert res.condition_observed


def test_mp_forbidden_by_store_only_fence():
    """Message passing needs only store->store order in the writer."""
    mp = parse_litmus("""
    name MP+ss
    x = 1    | rw = y
    fence.ss | delay
    y = 1    | r0 = y
             | r1 = x
    exists r0 == 1 and r1 == 0
    """)
    res = run_litmus(mp, MemoryModel.RMO, pair_grid(mp, FAST))
    assert not res.condition_observed
