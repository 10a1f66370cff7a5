"""Figure 12 behaviours: the workload harnesses' speedup structure.

Small-scale versions of the Figure 12 runs (the full sweep and its
claims are ``python -m repro fig12``, judged by
:data:`repro.campaign.figures.CLAIMS`); these check the *qualitative*
claims: S-Fence never loses, the benefit exists at moderate workload,
and all safety checkers pass under both fence flavours.  The wsq
ablations (CAS semantics, memory model, speculation) close the file.
"""

import functools

import pytest

from repro.algorithms.dekker import build_workload as build_dekker_workload
from repro.algorithms.workloads import (
    build_harris_workload,
    build_msn_workload,
    build_wsq_workload,
)
from repro.runtime.lang import Env
from repro.sim.config import MemoryModel, SimConfig

BUILDERS = {
    "dekker": lambda env, lvl: build_dekker_workload(env, workload_level=lvl, iterations=10),
    "wsq": lambda env, lvl: build_wsq_workload(env, workload_level=lvl, iterations=12),
    "msn": lambda env, lvl: build_msn_workload(env, workload_level=lvl, iterations=8),
    "harris": lambda env, lvl: build_harris_workload(env, workload_level=lvl, iterations=8),
}


def run(name, level, scoped):
    env = Env(SimConfig(scoped_fences=scoped))
    handle = BUILDERS[name](env, level)
    res = env.run(handle.program, max_cycles=3_000_000)
    handle.check()
    return res


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_safe_under_both_fence_flavours(name):
    for scoped in (False, True):
        run(name, 1, scoped)  # the checker inside run() validates safety


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sfence_never_slower(name):
    trad = run(name, 2, scoped=False)
    scoped = run(name, 2, scoped=True)
    assert scoped.cycles <= trad.cycles


@pytest.mark.parametrize("name", ["wsq", "dekker"])
def test_sfence_benefit_at_moderate_workload(name):
    trad = run(name, 2, scoped=False)
    scoped = run(name, 2, scoped=True)
    assert trad.cycles / scoped.cycles > 1.05


@pytest.mark.parametrize("name", ["wsq"])
def test_speedup_rises_from_level_one(name):
    s1 = run(name, 1, scoped=False).cycles / run(name, 1, scoped=True).cycles
    s2 = run(name, 2, scoped=False).cycles / run(name, 2, scoped=True).cycles
    assert s2 > s1


def test_fence_stalls_shrink_with_scoping():
    trad = run("wsq", 2, scoped=False)
    scoped = run("wsq", 2, scoped=True)
    assert scoped.stats.fence_stall_cycles < trad.stats.fence_stall_cycles


# -------------------------------------------------------------- wsq ablations
@functools.cache
def wsq_cycles(scoped=True, **cfg):
    """The ablation harness: wsq, 20 iterations at workload level 2."""
    env = Env(SimConfig(scoped_fences=scoped, **cfg))
    handle = build_wsq_workload(env, iterations=20, workload_level=2)
    res = env.run(handle.program, max_cycles=10_000_000)
    handle.check()
    return res.cycles


def test_fence_cas_serialises_at_least_as_much_as_llsc():
    assert wsq_cycles(cas_fence=True) >= wsq_cycles(cas_fence=False)


def test_weaker_models_leave_more_for_scoping():
    """Weaker models leave more ordering for S-Fence to recover."""
    speedups = {
        model: wsq_cycles(False, memory_model=model) / wsq_cycles(True, memory_model=model)
        for model in (MemoryModel.TSO, MemoryModel.PSO, MemoryModel.RMO)
    }
    assert all(s >= 0.99 for s in speedups.values()), speedups
    assert speedups[MemoryModel.RMO] >= speedups[MemoryModel.TSO] - 0.02


def test_scoping_and_speculation_overlap():
    """Both attack the same stalls: each helps, and together they are
    at least as good as scoping alone."""
    cells = {(scoped, spec): wsq_cycles(scoped, in_window_speculation=spec)
             for scoped in (False, True) for spec in (False, True)}
    base = cells[(False, False)]
    assert cells[(True, False)] <= base
    assert cells[(False, True)] <= base * 1.02
    assert cells[(True, True)] <= cells[(True, False)] * 1.02
