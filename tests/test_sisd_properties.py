"""Property-based tests for the SiSd backend's cache bookkeeping.

Seeded random access/sync sequences are driven straight into a
:class:`repro.mem.sisd.SiSdHierarchy` (no simulator in the loop) and
the SiSd invariants are checked after every step, mirroring the
delay-set property suite's structure:

* **No stale read survives self-invalidation** -- after an
  acquire-like sync point every resident line of the syncing core is
  dirty (its own writes); every clean line was dropped.
* **No dirty line survives self-downgrade** -- after a release-like
  sync point the syncing core's dirty set is empty and every line it
  downgraded is resident in the LLC (the write-through landed).
* A full sync point does both, leaving the L1 empty.
* ``dirty`` is always a subset of the resident lines (eviction retires
  the dirty bit through a write-back, never silently).
* **No invalidation traffic** -- no access or sync point on one core
  ever perturbs a peer's resident or dirty lines.
* The :class:`~repro.mem.backend.SyncOutcome` counts are exact (the
  clean/dirty populations at the instant of the sync), its latency is
  one LLC round trip iff anything was downgraded, and the running
  counters in ``backend_stats()`` tally the per-sync outcomes.

A tiny L1 (1 KiB: 16 lines, 4-way) over a small address range forces
evictions, so the lazy-downgrade write-back path is exercised too.
"""

from __future__ import annotations

import random

import pytest

from repro.isa.instructions import WAIT_BOTH, WAIT_LOADS, WAIT_STORES
from repro.mem.sisd import SiSdHierarchy
from repro.sim.config import SimConfig
from repro.sim.stats import CoreStats

SEEDS = range(16)
N_STEPS = 120
N_CORES = 3
#: word addresses drawn by the fuzz driver: ~4x the 16-line L1 capacity
ADDR_RANGE = 64 * 8


def _small_config() -> SimConfig:
    return SimConfig(n_cores=N_CORES, l1_kb=1, l1_assoc=4)


def _snapshot(h: SiSdHierarchy):
    """(resident, dirty) per core -- the peer-isolation oracle."""
    return [
        (h.l1[c].resident_lines(), set(h.dirty[c]))
        for c in range(h.config.n_cores)
    ]


def _check_core_invariants(h: SiSdHierarchy):
    for core in range(h.config.n_cores):
        resident = h.l1[core].resident_lines()
        dirty = h.dirty_lines(core)
        assert dirty <= resident, (
            f"core {core}: dirty lines {sorted(dirty - resident)} are not "
            f"resident -- an eviction dropped a line without its write-back"
        )
        assert h.clean_lines(core) == resident - dirty


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sequences_preserve_sisd_invariants(seed):
    rng = random.Random(f"sisd-prop:{seed}")
    h = SiSdHierarchy(_small_config())
    stats = [CoreStats(core_id=c) for c in range(N_CORES)]
    expected = {"sync_points": 0, "self_invalidations": 0,
                "self_downgrades": 0, "eviction_writebacks": 0}

    for _ in range(N_STEPS):
        core = rng.randrange(N_CORES)
        before = _snapshot(h)
        evictions_before = h.counters["eviction_writebacks"]

        if rng.random() < 0.75:
            addr = rng.randrange(ADDR_RANGE)
            is_write = rng.random() < 0.5
            latency = h.access(core, addr, is_write, stats[core])
            cfg = h.config
            assert latency in (cfg.l1_latency, cfg.l2_latency, cfg.mem_latency)
            assert h.resident_in_l1(core, addr)
            assert h.resident_in_l2(addr)
            if is_write:
                assert h.line_of(addr) in h.dirty_lines(core)
        else:
            waits = rng.choice((WAIT_LOADS, WAIT_STORES, WAIT_BOTH))
            clean_before = h.clean_lines(core)
            dirty_before = h.dirty_lines(core)
            sync = h.fence(core, "fence", waits, stats[core])
            assert sync is not None

            if waits & WAIT_LOADS:
                # no stale read survives self-invalidation
                assert h.clean_lines(core) == set()
                assert h.l1[core].resident_lines() <= h.dirty_lines(core)
                if waits & WAIT_STORES:
                    # the downgrade ran first, so every resident line was
                    # clean by the time the invalidation sweep saw it
                    assert sync.invalidated == (
                        len(clean_before) + len(dirty_before)
                    )
                else:
                    assert sync.invalidated == len(clean_before)
            else:
                assert sync.invalidated == 0
            if waits & WAIT_STORES:
                # no dirty line survives self-downgrade
                assert h.dirty_lines(core) == set()
                for line in dirty_before:
                    assert h.llc.contains(line), (
                        f"downgraded line {line} missing from the LLC"
                    )
                assert sync.downgraded == len(dirty_before)
            else:
                assert sync.downgraded == 0
            if waits == WAIT_BOTH:
                assert h.l1[core].resident_lines() == set()
                assert sync.kind == "full"
            elif waits == WAIT_STORES:
                assert sync.kind == "release"
            else:
                assert sync.kind == "acquire"
            assert sync.latency == (
                h.config.l2_latency if sync.downgraded else 0
            )
            expected["sync_points"] += 1
            expected["self_invalidations"] += sync.invalidated
            expected["self_downgrades"] += sync.downgraded

        # no invalidation traffic: peers are untouched by this step
        after = _snapshot(h)
        for other in range(N_CORES):
            if other != core:
                assert after[other] == before[other], (
                    f"core {core}'s step perturbed core {other}'s L1"
                )
        _check_core_invariants(h)
        expected["eviction_writebacks"] += (
            h.counters["eviction_writebacks"] - evictions_before
        )

    got = h.backend_stats()
    expected["eviction_writebacks"] = got["eviction_writebacks"]  # tracked live
    assert got == expected


def test_eviction_write_back_retires_dirty_bit():
    """A dirty victim lands in the LLC and leaves the dirty set."""
    h = SiSdHierarchy(_small_config())
    stats = CoreStats()
    assoc = h.config.l1_assoc
    n_sets = h.config.l1_lines // assoc
    # write assoc+1 lines mapping to set 0: the LRU one must be evicted
    lines = [i * n_sets for i in range(assoc + 1)]
    for line in lines:
        h.access(0, line * h._words_per_line, True, stats)
    victim = lines[0]
    assert not h.l1[0].contains(victim)
    assert victim not in h.dirty_lines(0)
    assert h.llc.contains(victim)
    assert h.backend_stats()["eviction_writebacks"] == 1
    _check_core_invariants(h)


def test_acquire_preserves_own_dirty_lines():
    """Self-invalidation must not drop the core's own unpublished writes."""
    h = SiSdHierarchy(_small_config())
    stats = CoreStats()
    h.access(0, 0, True, stats)    # dirty line
    h.access(0, 64, False, stats)  # clean line (different line: 64 words)
    sync = h.fence(0, "fence.ll", WAIT_LOADS, stats)
    assert sync.kind == "acquire"
    assert sync.invalidated == 1 and sync.downgraded == 0
    assert h.dirty_lines(0) == {h.line_of(0)}
    assert h.resident_in_l1(0, 0)
    assert not h.resident_in_l1(0, 64)


def test_release_is_idempotent():
    """A second release with nothing dirty downgrades nothing, free."""
    h = SiSdHierarchy(_small_config())
    stats = CoreStats()
    h.access(0, 0, True, stats)
    first = h.fence(0, "fence.ss", WAIT_STORES, stats)
    second = h.fence(0, "fence.ss", WAIT_STORES, stats)
    assert first.downgraded == 1 and first.latency == h.config.l2_latency
    assert second.downgraded == 0 and second.latency == 0


def _state(h: SiSdHierarchy):
    """Everything a later access can observe: per-set recency, dirty
    bits and counters."""
    caches = [*h.l1, h.llc]
    return ([list(c._sets) for c in caches], [dict(c._where) for c in caches],
            [set(d) for d in h.dirty], dict(h.counters))


@pytest.mark.parametrize("seed", SEEDS)
def test_load_timed_is_resident_then_access(seed):
    """The fused load walk equals the two-call pair on a twin backend,
    step for step: result, per-core counters and every cache's state."""
    rng = random.Random(f"sisd-load:{seed}")
    # a 32-line LLC as well, so its evictions and recency are observable
    config = _small_config().with_(l2_kb=2)
    fused, pair = SiSdHierarchy(config), SiSdHierarchy(config)
    stats = {h: [CoreStats(core_id=c) for c in range(N_CORES)]
             for h in (fused, pair)}
    for _ in range(N_STEPS):
        core = rng.randrange(N_CORES)
        addr = rng.randrange(ADDR_RANGE)
        roll = rng.random()
        if roll < 0.5:
            got = fused.load_timed(core, addr, stats[fused][core])
            want = (pair.resident_in_l1(core, addr),
                    pair.access(core, addr, False, stats[pair][core]))
            assert got == want
        elif roll < 0.85:
            for h in (fused, pair):
                h.access(core, addr, True, stats[h][core])
        else:
            waits = rng.choice((WAIT_LOADS, WAIT_STORES, WAIT_BOTH))
            assert (fused.fence(core, "fence", waits, stats[fused][core])
                    == pair.fence(core, "fence", waits, stats[pair][core]))
        assert _state(fused) == _state(pair)
        assert stats[fused] == stats[pair]


@pytest.mark.parametrize("seed", SEEDS)
def test_flash_invalidation_equals_per_line_invalidation(seed):
    """``invalidate_all_except`` leaves what one ``invalidate`` per
    dropped line leaves, and counts the same lines."""
    rng = random.Random(f"sisd-flash:{seed}")
    flash, per_line = (SiSdHierarchy(_small_config()).l1[0] for _ in range(2))
    for _ in range(N_STEPS):
        line = rng.randrange(ADDR_RANGE // 8)
        for cache in (flash, per_line):
            cache.fill(line)
        if rng.random() < 0.2:
            resident = flash.resident_lines()
            keep = set(rng.sample(sorted(resident), rng.randrange(len(resident) + 1)))
            dropped = sorted(resident - keep)
            for victim in dropped:
                per_line.invalidate(victim)
            assert flash.invalidate_all_except(keep) == len(dropped)
            assert flash._sets == per_line._sets
            assert flash._where == per_line._where
