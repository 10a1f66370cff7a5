"""Extension workloads (Treiber stack, Lamport queue) behave like the
paper's lock-free group: safe under both fence flavours, S-Fence helps."""

import pytest

from repro.algorithms.mixed import build_mixed_workload
from repro.algorithms.workloads import build_lamport_workload, build_treiber_workload
from repro.apps.cilk_fib import build_cilk_fib
from repro.runtime.lang import Env
from repro.sim.config import SimConfig

BUILDERS = {
    "treiber": lambda env, lvl: build_treiber_workload(env, workload_level=lvl, iterations=10),
    "lamport": lambda env, lvl: build_lamport_workload(env, workload_level=lvl, iterations=20),
}


def run(name, level, scoped):
    env = Env(SimConfig(scoped_fences=scoped))
    handle = BUILDERS[name](env, level)
    res = env.run(handle.program, max_cycles=5_000_000)
    handle.check()
    return res


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_safe_under_both_flavours(name):
    for scoped in (False, True):
        run(name, 1, scoped)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sfence_never_slower(name):
    trad = run(name, 2, scoped=False)
    scoped = run(name, 2, scoped=True)
    assert scoped.cycles <= trad.cycles


def test_lamport_benefit_at_moderate_workload():
    trad = run("lamport", 2, scoped=False)
    scoped = run("lamport", 2, scoped=True)
    assert trad.cycles / scoped.cycles > 1.1


#: the extension sweep: every algorithm beyond Table IV at its sweep size
SWEEP = {
    "treiber": lambda env: build_treiber_workload(env, workload_level=2, iterations=15),
    "lamport": lambda env: build_lamport_workload(env, workload_level=2, iterations=30),
    "mixed": lambda env: build_mixed_workload(env, workload_level=2, iterations=10),
    "cilk_fib": lambda env: build_cilk_fib(env, n=10),
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_extension_sweep_never_loses(name):
    cycles = {}
    for scoped in (False, True):
        env = Env(SimConfig(scoped_fences=scoped))
        handle = SWEEP[name](env)
        cycles[scoped] = env.run(handle.program, max_cycles=20_000_000).cycles
        handle.check()
    speedup = cycles[False] / cycles[True]
    assert speedup >= 0.97, f"{name}: S-Fence lost ({speedup:.3f})"
    if name == "lamport":
        assert speedup > 1.1  # the SPSC ring profits like wsq
