"""Mixed-structure workload tests: many scoped classes at once."""

import pytest

from repro.algorithms.mixed import build_mixed_workload
from repro.isa.instructions import FenceKind
from repro.runtime.lang import Env
from repro.sim.config import SimConfig


def run(scoped=True, iterations=6, level=1, **cfg_overrides):
    env = Env(SimConfig(scoped_fences=scoped, **cfg_overrides))
    handle = build_mixed_workload(env, iterations=iterations, workload_level=level)
    res = env.run(handle.program, max_cycles=5_000_000)
    handle.check()
    return res


def test_mixed_safe_with_full_hardware():
    run(scoped=True)


def test_mixed_safe_with_traditional_fences():
    run(scoped=False)


def test_mixed_safe_under_fsb_sharing():
    """Two FSB entries leave one class entry for four active classes:
    maximal sharing, still correct."""
    run(scoped=True, fsb_entries=2, mapping_entries=1, fss_entries=2)


def test_mixed_safe_under_overflow_counter():
    """A single mapping slot forces the overflow-counter fallback."""
    res = run(scoped=True, mapping_entries=1)
    assert res.cycles > 0


def test_mixed_safe_with_speculation():
    run(scoped=True, in_window_speculation=True)


def test_sharing_is_only_slower_not_wrong():
    full = run(scoped=True)
    shared = run(scoped=True, fsb_entries=2, mapping_entries=1, fss_entries=2)
    trad = run(scoped=False)
    assert shared.cycles >= full.cycles * 0.98
    assert shared.cycles <= trad.cycles * 1.05


def test_small_fsb_sits_between_full_fsb_and_traditional():
    """The FSB-size ablation: four classes in flight at workload level 2
    (10 iterations).  Sharing degrades gracefully: 8 entries are no
    slower than 2, and 2 are no slower than traditional fences."""
    size = {"iterations": 10, "level": 2}
    small = run(scoped=True, fsb_entries=2, mapping_entries=1, fss_entries=2, **size)
    large = run(scoped=True, fsb_entries=8, mapping_entries=8, fss_entries=8, **size)
    trad = run(scoped=False, **size)
    assert large.cycles <= small.cycles * 1.02
    assert small.cycles <= trad.cycles * 1.02
