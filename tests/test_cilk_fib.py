"""Fork-join Cilk-style fib on the work-stealing substrate."""

import pytest

from repro.apps.cilk_fib import build_cilk_fib, fib, fib_frames
from repro.isa.instructions import FenceKind
from repro.runtime.lang import Env
from repro.sim.config import MemoryModel, SimConfig


def run(n=9, scope=FenceKind.CLASS, n_threads=8, work=10, **cfg):
    env = Env(SimConfig(**cfg))
    inst = build_cilk_fib(env, n=n, scope=scope, n_threads=n_threads,
                          work_per_task=work)
    res = env.run(inst.program, max_cycles=10_000_000)
    inst.check()
    return res, inst


def test_fib_helpers():
    assert [fib(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib_frames(0) == 1 and fib_frames(2) == 3
    assert fib_frames(5) == 1 + fib_frames(4) + fib_frames(3)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_computes_fib(n):
    run(n=n)


def test_single_thread():
    run(n=8, n_threads=1)


def test_two_threads_steal():
    res, inst = run(n=10, n_threads=2)
    assert res.stats.cores[1].instructions > 0  # thread 1 actually stole work


@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.CLASS])
def test_correct_under_both_fence_flavours(scope):
    run(n=9, scope=scope)


def test_correct_with_speculation():
    run(n=9, in_window_speculation=True)


def test_correct_under_pso():
    run(n=9, memory_model=MemoryModel.PSO)


def test_fence_share_is_substantial():
    """The THE-protocol observation: with tiny per-task work, fences
    (deque + join protocol) eat a large share of the runtime."""
    res, _ = run(n=10, scope=FenceKind.GLOBAL)
    assert res.stats.fence_stall_fraction > 0.15


def test_scoped_fences_help():
    trad, _ = run(n=10, scope=FenceKind.GLOBAL)
    scoped, _ = run(n=10, scope=FenceKind.CLASS)
    assert scoped.stats.fence_stall_cycles <= trad.stats.fence_stall_cycles


def test_fine_grain_spends_more_at_fences_than_coarse():
    """Sec. II-A's THE-protocol observation: at 5-cycle tasks fences eat
    a large share, more than at 800-cycle tasks, and scoping still helps."""
    fine_t, _ = run(n=10, scope=FenceKind.GLOBAL, work=5)
    fine_s, _ = run(n=10, scope=FenceKind.CLASS, work=5)
    coarse_t, _ = run(n=10, scope=FenceKind.GLOBAL, work=800)
    assert fine_t.stats.fence_stall_fraction > 0.15
    assert fine_t.stats.fence_stall_fraction > coarse_t.stats.fence_stall_fraction
    assert fine_s.stats.fence_stall_cycles <= fine_t.stats.fence_stall_cycles
