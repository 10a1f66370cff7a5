"""Unit tests for the functional shared memory (relaxed visibility)."""

import pytest

from repro.mem.memory import WORD_MAX, WORD_MIN, SharedMemory
from repro.sim.config import SimConfig


@pytest.fixture
def mem() -> SharedMemory:
    return SharedMemory(1024, n_cores=2)


def test_initial_zero(mem):
    assert mem.read(0, 5) == 0
    assert mem.read_global(5) == 0


def test_buffered_store_invisible_to_others(mem):
    mem.buffer_store(0, 10, 42)
    assert mem.read(0, 10) == 42     # own forwarding
    assert mem.read(1, 10) == 0      # peer sees old value
    assert mem.read_global(10) == 0


def test_drain_publishes(mem):
    mem.buffer_store(0, 10, 42)
    assert mem.drain_store(0, 10) == 42
    assert mem.read(1, 10) == 42
    assert mem.read_global(10) == 42


def test_forwarding_returns_youngest(mem):
    mem.buffer_store(0, 10, 1)
    mem.buffer_store(0, 10, 2)
    assert mem.read(0, 10) == 2


def test_same_address_drains_fifo(mem):
    mem.buffer_store(0, 10, 1)
    mem.buffer_store(0, 10, 2)
    assert mem.drain_store(0, 10) == 1
    assert mem.read_global(10) == 1
    assert mem.read(0, 10) == 2  # still forwarding the younger one
    assert mem.drain_store(0, 10) == 2
    assert mem.read_global(10) == 2


def test_drain_without_pending_raises(mem):
    with pytest.raises(RuntimeError):
        mem.drain_store(0, 10)


def test_has_pending_and_count(mem):
    assert not mem.has_pending(0, 10)
    mem.buffer_store(0, 10, 1)
    mem.buffer_store(0, 11, 2)
    assert mem.has_pending(0, 10)
    assert not mem.has_pending(1, 10)
    assert mem.pending_count(0) == 2
    mem.drain_store(0, 10)
    assert mem.pending_count(0) == 1


def test_cas_success_and_failure(mem):
    mem.write_global(10, 5)
    assert mem.cas(0, 10, 5, 6)
    assert mem.read_global(10) == 6
    assert not mem.cas(1, 10, 5, 7)
    assert mem.read_global(10) == 6


def test_cas_force_drains_own_pending(mem):
    mem.buffer_store(0, 10, 3)
    assert mem.cas(0, 10, 3, 4)
    assert mem.read_global(10) == 4
    assert not mem.has_pending(0, 10)


def test_cas_does_not_see_peer_buffer(mem):
    mem.buffer_store(1, 10, 9)
    assert mem.cas(0, 10, 0, 1)  # peer's store unpublished
    assert mem.read_global(10) == 1
    # the peer's store drains afterwards (coherence order = drain order)
    mem.drain_store(1, 10)
    assert mem.read_global(10) == 9


def test_store_store_reordering_observable(mem):
    """Out-of-order drains make PSO/RMO behaviour architectural."""
    mem.buffer_store(0, 10, 1)   # data
    mem.buffer_store(0, 11, 1)   # flag
    mem.drain_store(0, 11)       # flag drains first (no fence)
    assert mem.read(1, 11) == 1
    assert mem.read(1, 10) == 0  # peer sees flag without data


def test_snapshot_is_copy(mem):
    mem.write_global(1, 7)
    snap = mem.snapshot()
    mem.write_global(0, 99)
    mem.write_global(1, 8)
    assert snap == {1: 7}


def test_snapshot_omits_zero_words_in_address_order(mem):
    mem.write_global(900, 3)
    mem.write_global(5, -1)
    mem.write_global(40, 0)
    mem.write_global(7, 2)
    mem.write_global(7, 0)      # written back to zero
    mem.buffer_store(0, 6, 9)   # pending, not globally visible
    snap = mem.snapshot()
    assert snap == {5: -1, 900: 3}
    assert list(snap) == [5, 900]


@pytest.mark.parametrize("addr", [-1, -1024, 1024, 1 << 40])
def test_out_of_range_access_raises(mem, addr):
    with pytest.raises(IndexError):
        mem.read(0, addr)
    with pytest.raises(IndexError):
        mem.read_global(addr)
    with pytest.raises(IndexError):
        mem.write_global(addr, 1)
    with pytest.raises(IndexError):
        mem.cas(0, addr, 0, 1)
    mem.buffer_store(0, addr, 1)
    with pytest.raises(IndexError):
        mem.drain_store(0, addr)


def test_range_edges_are_valid(mem):
    mem.write_global(0, 1)
    mem.write_global(1023, 2)
    assert mem.read(1, 0) == 1
    assert mem.read_global(1023) == 2


@pytest.mark.parametrize("value", [WORD_MAX + 1, WORD_MIN - 1, 1 << 100])
def test_values_outside_int64_overflow(mem, value):
    with pytest.raises(OverflowError):
        mem.write_global(3, value)
    mem.buffer_store(0, 3, value)
    with pytest.raises(OverflowError):
        mem.drain_store(0, 3)
    with pytest.raises(OverflowError):
        mem.cas(1, 4, 0, value)
    assert mem.read_global(3) == 0
    assert mem.read_global(4) == 0


def test_int64_extremes_round_trip(mem):
    mem.write_global(3, WORD_MAX)
    assert mem.cas(0, 3, WORD_MAX, WORD_MIN)
    assert mem.read_global(3) == WORD_MIN


def test_table_iii_memory_holds_no_words_after_construction():
    cfg = SimConfig()
    size = cfg.mem_size_words
    mem = SharedMemory(size, cfg.n_cores)
    assert mem.size_words == size
    assert mem._mem == {}
    assert mem.snapshot() == {}
    assert mem.read_global(size - 1) == 0
    assert mem._mem == {}, "reading a word must not materialise it"


def test_invalid_size():
    with pytest.raises(ValueError):
        SharedMemory(0, 1)
