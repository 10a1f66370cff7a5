"""Store buffer model.

Retired stores wait here until the cache accepts them; only at drain
completion does the store become globally visible (the functional
memory applies the value) and do its FSB bits clear.  The drain policy
depends on the memory model:

* SC/TSO: strict FIFO -- only the oldest entry may issue.
* PSO/RMO: any entry may issue as long as no older entry targets the
  same address (per-location coherence order), which makes store-store
  reordering architecturally visible.

One store issues to the cache per cycle (single write port); several
may be in flight concurrently (non-blocking cache).
"""

from __future__ import annotations

# entry states
S_WAITING = 0
S_INFLIGHT = 1


class SBEntry:
    """One buffered store.

    ``held`` marks a store that entered the buffer behind a
    speculatively issued fence (in-window speculation): it may not
    drain -- become globally visible -- until that fence completes.
    Stores are never speculative in real hardware either; only loads
    are issued past a speculative fence.
    """

    __slots__ = ("addr", "fsb_mask", "state", "done_cycle", "seq", "held", "op_seq")

    def __init__(self, addr: int, fsb_mask: int, seq: int, held: bool = False) -> None:
        self.addr = addr
        self.fsb_mask = fsb_mask
        self.state = S_WAITING
        self.done_cycle = -1
        self.seq = seq
        self.held = held
        self.op_seq = 0  # program-order memory sequence number of the store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        st = "waiting" if self.state == S_WAITING else f"inflight->{self.done_cycle}"
        return f"<SBEntry a={self.addr} {st}>"


class StoreBuffer:
    """Bounded buffer of retired, undrained stores.

    ``waiting`` counts the entries not yet in flight, held ones
    included (so toggling ``held`` needs no bookkeeping): when it is
    zero no entry can issue, and :meth:`next_issuable` answers without
    a scan.  Entries enter only through :meth:`insert`.
    """

    __slots__ = ("capacity", "fifo_drain", "_entries", "_next_seq", "waiting")

    def __init__(self, capacity: int, fifo_drain: bool) -> None:
        if capacity < 1:
            raise ValueError("store buffer capacity must be >= 1")
        self.capacity = capacity
        self.fifo_drain = fifo_drain
        self._entries: list[SBEntry] = []
        self.reset()

    def reset(self) -> None:
        """Empty the buffer, in place: the owning core aliases the list."""
        self._entries.clear()
        self._next_seq = 0
        self.waiting = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def insert(self, addr: int, fsb_mask: int, held: bool = False) -> SBEntry:
        if self.full:
            raise OverflowError("store buffer full")
        entry = SBEntry(addr, fsb_mask, self._next_seq, held=held)
        self._next_seq += 1
        self._entries.append(entry)
        self.waiting += 1
        return entry

    def next_issuable(self) -> SBEntry | None:
        """The entry the write port should issue this cycle, if any."""
        if not self.waiting:
            return None
        if self.fifo_drain:
            head = self._entries[0]
            return head if head.state == S_WAITING and not head.held else None
        seen_addrs: set[int] = set()
        for entry in self._entries:  # program order
            if entry.state == S_WAITING and not entry.held and entry.addr not in seen_addrs:
                return entry
            seen_addrs.add(entry.addr)
        return None

    def mark_inflight(self, entry: SBEntry, done_cycle: int) -> None:
        if entry.state == S_WAITING:
            self.waiting -= 1
        entry.state = S_INFLIGHT
        entry.done_cycle = done_cycle

    def next_completion_cycle(self) -> int | None:
        """Earliest drain-completion cycle among in-flight entries.

        Part of the event-scheduler wake-up contract (architecture §9):
        the store buffer reports the exact cycle its next drain becomes
        globally visible, so the scheduler never has to poll it.
        Returns None when nothing is in flight.
        """
        best = None
        for entry in self._entries:
            if entry.state == S_INFLIGHT and (best is None or entry.done_cycle < best):
                best = entry.done_cycle
        return best

    def remove(self, entry: SBEntry) -> None:
        self._entries.remove(entry)
        if entry.state == S_WAITING:
            self.waiting -= 1

    def entries(self):
        """Program-order iteration (oldest first)."""
        return iter(self._entries)

    def inflight(self):
        return (e for e in self._entries if e.state == S_INFLIGHT)
