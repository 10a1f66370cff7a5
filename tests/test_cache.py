"""Unit tests for the set-associative LRU cache."""

import random

import pytest

from repro.mem.cache import Cache
from repro.sim.config import SimConfig


def test_fill_and_contains():
    c = Cache(8, 2)
    c.fill(5)
    assert c.contains(5)
    assert not c.contains(6)
    assert len(c) == 1


def test_touch_miss_and_hit():
    c = Cache(8, 2)
    assert not c.touch(3)
    c.fill(3)
    assert c.touch(3)


def test_lru_eviction_within_set():
    c = Cache(8, 2)  # 4 sets
    a, b, d = 0, 4, 8  # all map to set 0
    c.fill(a)
    c.fill(b)
    victim = c.fill(d)
    assert victim == a  # least recently used
    assert not c.contains(a)
    assert c.contains(b) and c.contains(d)


def test_touch_refreshes_recency():
    c = Cache(8, 2)
    a, b, d = 0, 4, 8
    c.fill(a)
    c.fill(b)
    c.touch(a)          # a becomes MRU
    victim = c.fill(d)
    assert victim == b


def test_refill_resident_line_updates_recency():
    c = Cache(8, 2)
    a, b, d = 0, 4, 8
    c.fill(a)
    c.fill(b)
    assert c.fill(a) is None  # already resident
    victim = c.fill(d)
    assert victim == b


def test_different_sets_do_not_conflict():
    c = Cache(8, 2)
    for line in range(8):
        c.fill(line)
    assert len(c) == 8  # 4 sets x 2 ways all occupied


def test_invalidate():
    c = Cache(8, 2)
    c.fill(1)
    assert c.invalidate(1)
    assert not c.contains(1)
    assert not c.invalidate(1)


def test_resident_lines_snapshot():
    c = Cache(4, 2)
    c.fill(0)
    c.fill(1)
    assert c.resident_lines() == {0, 1}


def test_invalid_geometry():
    with pytest.raises(ValueError):
        Cache(2, 4)
    with pytest.raises(ValueError):
        Cache(7, 2)


def allocated_sets(c: Cache) -> int:
    return sum(ways is not None for ways in c._sets)


def test_fresh_table3_l2_allocates_no_sets():
    config = SimConfig()
    c = Cache(config.l2_lines, config.l2_assoc)
    assert c.n_sets == 2048
    assert allocated_sets(c) == 0
    assert not c.touch(7) and not c.invalidate(7)
    assert allocated_sets(c) == 0


def test_sets_allocated_only_on_first_fill():
    config = SimConfig()
    c = Cache(config.l2_lines, config.l2_assoc)
    rng = random.Random(3)
    lines = [rng.randrange(1 << 20) for _ in range(500)]
    for i, line in enumerate(lines):
        if i % 2:
            c.fill(line)
        elif not c.touch(line):
            c.fill_absent(line)
    assert allocated_sets(c) == len({line % c.n_sets for line in lines})
