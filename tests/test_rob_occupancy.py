"""ROB occupancy, counted per op at retire, against a per-cycle sampler.

``CoreStats.rob_occupancy_sum`` grows by the cycles each op sat in the
ROB when it retires, and ``rob_occupancy_samples`` is the number of
cycles the core ran.  The sampler here counts the same two numbers the
direct way -- the ROB depth after every tick of a running core -- and
both engines must agree with it: on a program whose retire width
binds, on a core with no thread, and on a run stopped by the cycle
limit with ops still in the ROB.
"""

from __future__ import annotations

import pytest

from repro.isa.instructions import Compute, Load, Probe, Store
from repro.isa.program import ops_program
from repro.sim.config import SimConfig
from repro.sim.simulator import CycleLimitError, Simulator

ENGINES = {"dense": True, "event": False}


def _sampled(config: SimConfig, ops, limit: int) -> list[tuple[int, int]]:
    """Tick every core every cycle, summing each running core's ROB
    depth after its tick; per core ``(sum, samples)``."""
    sim = Simulator(config, ops_program(ops))
    gens = sim.program.spawn()
    for core in sim.cores:
        core.bind(gens[core.core_id] if core.core_id < len(gens) else None)
    sums = [0] * len(sim.cores)
    samples = [0] * len(sim.cores)
    for cycle in range(limit):
        for i, core in enumerate(sim.cores):
            if core.finished:
                continue
            core.tick(cycle)
            sums[i] += len(core.rob)
            samples[i] += 1
        if all(core.finished for core in sim.cores):
            break
    return list(zip(sums, samples))


def _counted(config: SimConfig, ops, limit: int, dense: bool):
    """One engine's ``(sum, samples)`` per core, and whether the run
    hit the cycle limit."""
    sim = Simulator(config.with_(dense_loop=dense), ops_program(ops))
    try:
        sim.run(max_cycles=limit)
        stopped = False
    except CycleLimitError:
        stopped = True
    return [(s.rob_occupancy_sum, s.rob_occupancy_samples)
            for s in sim.core_stats], stopped


def _busy_thread(base: int) -> list:
    """Cold misses with L1 hits and compute chains behind them, and a
    run of already-done ops."""
    warm = [base + 64 * j for j in range(3)]
    ops = [Load(a) for a in warm] + [Compute(300)]
    for i in range(3):
        ops += [Load(base + 8192 + 64 * i)] + [Load(a) for a in warm]
        ops += [Compute(30), Store(base + 64 * i, i)]
        ops += [Probe() for _ in range(12)]
    return ops


CASES = {
    # one-wide retire behind four-wide dispatch: the ROB backs up
    "retire_width_binds": (SimConfig(n_cores=2, retire_width=1),
                           [_busy_thread(0), _busy_thread(1 << 16)],
                           200_000, False),
    # core 1 has no thread: it runs no cycle and counts nothing
    "core_without_thread": (SimConfig(n_cores=2),
                            [_busy_thread(0)], 200_000, False),
    # stopped mid-run: the ops still in the ROB count up to the limit
    "cycle_limit": (SimConfig(n_cores=2, retire_width=1),
                    [_busy_thread(0), _busy_thread(1 << 16)], 450, True),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_occupancy_matches_per_cycle_sampler(case, engine):
    config, ops, limit, stops = CASES[case]
    expected = _sampled(config, ops, limit)
    got, stopped = _counted(config, ops, limit, ENGINES[engine])
    assert stopped is stops
    assert got == expected
    if case == "core_without_thread":
        assert expected[1] == (0, 0)
    else:
        assert all(total > samples > 0 for total, samples in expected)
