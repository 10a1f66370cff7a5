"""SimConfig (Table III) and statistics tests."""

import pytest

from repro.isa.instructions import Compute
from repro.isa.program import ops_program
from repro.sim.config import MemoryModel, SimConfig, TABLE_III
from repro.sim.simulator import run_program
from repro.sim.stats import CoreStats, SimStats


def test_table_iii_defaults():
    cfg = TABLE_III
    assert cfg.n_cores == 8
    assert cfg.rob_size == 128
    assert cfg.l1_kb == 32 and cfg.l1_assoc == 4 and cfg.l1_latency == 2
    assert cfg.l2_kb == 1024 and cfg.l2_assoc == 8 and cfg.l2_latency == 10
    assert cfg.mem_latency == 300
    assert cfg.fsb_entries == 4
    assert cfg.fss_entries == 4
    assert cfg.memory_model is MemoryModel.RMO
    # the machine runs: a 1000-cycle compute takes at least 1000 cycles
    result = run_program(ops_program([[Compute(1000)]]), cfg)
    assert result.cycles >= 1000


def test_derived_geometry():
    cfg = SimConfig()
    assert cfg.words_per_line == 8
    assert cfg.l1_lines == 512
    assert cfg.l2_lines == 16384


def test_with_override():
    cfg = SimConfig().with_(mem_latency=500)
    assert cfg.mem_latency == 500
    assert cfg.rob_size == 128  # everything else unchanged


def test_validation():
    with pytest.raises(ValueError):
        SimConfig(n_cores=0)
    with pytest.raises(ValueError):
        SimConfig(rob_size=1)
    with pytest.raises(ValueError):
        SimConfig(fsb_entries=1)
    with pytest.raises(ValueError):
        SimConfig(line_bytes=60)
    with pytest.raises(ValueError):
        SimConfig(sb_size=0)


def test_memory_model_properties():
    assert MemoryModel.TSO.sb_fifo and MemoryModel.SC.sb_fifo
    assert not MemoryModel.RMO.sb_fifo and not MemoryModel.PSO.sb_fifo
    assert MemoryModel.RMO.sb_at_dispatch
    assert not MemoryModel.PSO.sb_at_dispatch


def test_core_stats_derived():
    c = CoreStats()
    assert c.avg_rob_occupancy == 0.0
    assert c.l1_hit_rate == 0.0
    c.rob_occupancy_sum, c.rob_occupancy_samples = 100, 10
    c.l1_hits, c.l1_misses = 30, 10
    assert c.avg_rob_occupancy == 10.0
    assert c.l1_hit_rate == 0.75


def test_sim_stats_aggregation():
    a = CoreStats(core_id=0, cycles=100, fence_stall_cycles=40, instructions=10)
    b = CoreStats(core_id=1, cycles=100, fence_stall_cycles=10, instructions=20)
    s = SimStats(cores=[a, b], total_cycles=100)
    assert s.fence_stall_cycles == 50
    assert s.instructions == 30
    assert s.fence_stall_fraction == 50 / 200
    assert s.summary()["total_cycles"] == 100


def test_empty_stats_summary():
    s = SimStats()
    assert s.fence_stall_fraction == 0.0
    assert s.avg_rob_occupancy == 0.0
