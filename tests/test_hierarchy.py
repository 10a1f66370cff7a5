"""Unit tests for the two-level hierarchy latency model."""

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import SimConfig
from repro.sim.stats import CoreStats


@pytest.fixture
def hier() -> MemoryHierarchy:
    return MemoryHierarchy(SimConfig(n_cores=2))


@pytest.fixture
def stats() -> CoreStats:
    return CoreStats()


def test_cold_miss_costs_memory_latency(hier, stats):
    cfg = hier.config
    assert hier.access(0, 100, False, stats) == cfg.mem_latency
    assert stats.l1_misses == 1
    assert stats.l2_misses == 1


def test_l1_hit_after_fill(hier, stats):
    cfg = hier.config
    hier.access(0, 100, False, stats)
    assert hier.access(0, 100, False, stats) == cfg.l1_latency
    assert stats.l1_hits == 1


def test_same_line_different_word_hits(hier, stats):
    cfg = hier.config
    hier.access(0, 96, False, stats)   # line 12 (8 words/line)
    assert hier.access(0, 97, False, stats) == cfg.l1_latency


def test_l2_hit_when_peer_fetched_line(hier, stats):
    cfg = hier.config
    hier.access(1, 100, False, stats)
    assert hier.access(0, 100, False, stats) == cfg.l2_latency
    assert stats.l2_hits == 1


def test_write_upgrade_invalidates_sharers(hier, stats):
    cfg = hier.config
    hier.access(0, 100, False, stats)
    hier.access(1, 100, False, stats)
    # both share the line; core 0 writes -> upgrade, core 1 invalidated
    assert hier.access(0, 100, True, stats) == cfg.l2_latency
    assert not hier.resident_in_l1(1, 100)
    # core 1's next read is a cache-to-cache / L2 transfer
    lat = hier.access(1, 100, False, stats)
    assert lat == cfg.l2_latency + cfg.cache_to_cache_latency


def test_exclusive_write_hit_is_cheap(hier, stats):
    cfg = hier.config
    hier.access(0, 100, True, stats)  # miss + claim
    assert hier.access(0, 100, True, stats) == cfg.l1_latency


def test_l2_inclusive_back_invalidation(stats):
    # tiny L2: 2 lines, direct-ish; force an L2 eviction
    cfg = SimConfig(n_cores=1, l1_kb=1, l1_assoc=1, l2_kb=1, l2_assoc=1)
    hier = MemoryHierarchy(cfg)
    n_l2_lines = cfg.l2_lines
    hier.access(0, 0, False, stats)
    # fill enough conflicting lines to evict line 0 from L2
    for i in range(1, n_l2_lines + 1):
        hier.access(0, i * n_l2_lines * cfg.words_per_line, False, stats)
    assert not hier.resident_in_l2(0)
    assert not hier.resident_in_l1(0, 0)  # back-invalidated


def test_warm_into_l2(hier, stats):
    cfg = hier.config
    hier.warm(0, 100, 64)
    assert hier.resident_in_l2(100)
    assert not hier.resident_in_l1(0, 100)
    assert hier.access(0, 100, False, stats) == cfg.l2_latency


def test_warm_into_l1(hier, stats):
    cfg = hier.config
    hier.warm(0, 100, 8, into_l1=True)
    assert hier.access(0, 100, False, stats) == cfg.l1_latency


def test_line_of():
    hier = MemoryHierarchy(SimConfig(n_cores=1))
    wpl = hier.config.words_per_line
    assert hier.line_of(0) == 0
    assert hier.line_of(wpl - 1) == 0
    assert hier.line_of(wpl) == 1


def test_false_sharing_costs_coherence_latency():
    """Two cores ping-ponging on the *same* line pay coherence latency
    that separate lines do not -- why the apps pad records to a line."""
    from repro.isa.program import Program
    from repro.runtime.lang import Env
    from repro.sim.simulator import Simulator

    def run(shared_line: bool) -> int:
        cfg = SimConfig(n_cores=2)
        env = Env(cfg)
        region = env.array("fs.region", 2 * cfg.words_per_line)

        def thread(index):
            def body(tid):
                for i in range(150):
                    yield region.store(index, i)
                    yield region.load(index)
            return body

        other = 1 if shared_line else cfg.words_per_line
        program = Program([thread(0), thread(other)])
        return Simulator(cfg, program, memory=env.memory).run().cycles

    assert run(shared_line=True) > run(shared_line=False) * 1.2
