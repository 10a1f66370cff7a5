"""Unit tests for the reorder buffer and store buffer models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.rob import K_LOAD, K_STORE, ReorderBuffer, RobEntry
from repro.cpu.store_buffer import S_INFLIGHT, S_WAITING, StoreBuffer


# ---------------------------------------------------------------------- ROB
def test_rob_in_order():
    rob = ReorderBuffer(4)
    a = RobEntry(K_LOAD, 0)
    b = RobEntry(K_STORE, 1)
    rob.push(a)
    rob.push(b)
    assert rob.head() is a
    assert rob.pop_head() is a
    assert rob.head() is b


def test_rob_capacity():
    rob = ReorderBuffer(2)
    rob.push(RobEntry(K_LOAD, 0))
    rob.push(RobEntry(K_LOAD, 0))
    assert rob.full
    with pytest.raises(OverflowError):
        rob.push(RobEntry(K_LOAD, 0))


def test_rob_entries_iteration_order():
    rob = ReorderBuffer(4)
    entries = [RobEntry(K_LOAD, i) for i in range(3)]
    for e in entries:
        rob.push(e)
    assert list(rob.entries()) == entries


def test_rob_invalid_capacity():
    with pytest.raises(ValueError):
        ReorderBuffer(0)


# --------------------------------------------------------------- store buffer
def test_sb_fifo_drain_order():
    sb = StoreBuffer(4, fifo_drain=True)
    a = sb.insert(10, 0)
    b = sb.insert(20, 0)
    assert sb.next_issuable() is a
    sb.mark_inflight(a, 100)
    # FIFO: nothing else may issue while the head is in flight
    assert sb.next_issuable() is None
    sb.remove(a)
    assert sb.next_issuable() is b


def test_sb_relaxed_drain_allows_youngest_first_completion():
    sb = StoreBuffer(4, fifo_drain=False)
    a = sb.insert(10, 0)
    b = sb.insert(20, 0)
    sb.mark_inflight(a, 300)
    # relaxed: b may issue while a is still in flight
    assert sb.next_issuable() is b


def test_sb_relaxed_same_address_stays_ordered():
    sb = StoreBuffer(4, fifo_drain=False)
    a = sb.insert(10, 0)
    b = sb.insert(10, 0)   # same address: must wait for a
    c = sb.insert(20, 0)
    assert sb.next_issuable() is a
    sb.mark_inflight(a, 300)
    assert sb.next_issuable() is c  # b blocked by same-address order
    sb.remove(a)
    sb.mark_inflight(c, 300)
    assert sb.next_issuable() is b


def test_sb_capacity():
    sb = StoreBuffer(1, fifo_drain=False)
    sb.insert(1, 0)
    assert sb.full
    with pytest.raises(OverflowError):
        sb.insert(2, 0)


def test_sb_held_entries_do_not_issue():
    sb = StoreBuffer(4, fifo_drain=False)
    a = sb.insert(10, 0, held=True)
    b = sb.insert(20, 0)
    assert sb.next_issuable() is b
    sb.mark_inflight(b, 10)
    assert sb.next_issuable() is None
    a.held = False
    assert sb.next_issuable() is a


def test_sb_held_blocks_same_address_younger():
    sb = StoreBuffer(4, fifo_drain=False)
    a = sb.insert(10, 0, held=True)
    b = sb.insert(10, 0)
    assert sb.next_issuable() is None  # b behind held same-address a


def test_sb_program_order_iteration():
    sb = StoreBuffer(4, fifo_drain=False)
    a = sb.insert(1, 0)
    b = sb.insert(2, 0)
    assert list(sb.entries()) == [a, b]
    sb.mark_inflight(b, 5)
    assert list(sb.inflight()) == [b]
    assert b.state == S_INFLIGHT and a.state == S_WAITING


# ------------------------------------------------- waiting-count property
def _reference_issuable(sb: StoreBuffer):
    """Brute-force drain choice, straight from the drain policy."""
    entries = list(sb.entries())
    if sb.fifo_drain:
        if entries and entries[0].state == S_WAITING and not entries[0].held:
            return entries[0]
        return None
    seen = set()
    for e in entries:
        if e.state == S_WAITING and not e.held and e.addr not in seen:
            return e
        seen.add(e.addr)
    return None


#: (action, address or entry pick): insert/insert-held take a small
#: address so same-address ordering is exercised; the others pick an
#: existing entry by index modulo the buffer length
_SB_ACTIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert_held", "inflight",
                               "remove", "toggle_held"]),
              st.integers(0, 7)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(fifo=st.booleans(), actions=_SB_ACTIONS)
def test_sb_waiting_count_matches_scan(fifo, actions):
    """``waiting`` counts the not-in-flight entries, held ones included,
    and ``next_issuable`` (which trusts it) agrees with a full scan."""
    sb = StoreBuffer(6, fifo_drain=fifo)
    for action, k in actions:
        entries = list(sb.entries())
        if action.startswith("insert"):
            if not sb.full:
                sb.insert(k, 0, held=action == "insert_held")
        elif entries:
            e = entries[k % len(entries)]
            if action == "inflight":
                sb.mark_inflight(e, k)
            elif action == "remove":
                sb.remove(e)
            else:
                e.held = not e.held
        assert sb.waiting == sum(1 for e in sb.entries() if e.state == S_WAITING)
        assert sb.next_issuable() is _reference_issuable(sb)
