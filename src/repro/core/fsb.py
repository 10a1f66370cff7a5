"""Fence Scope Bits (FSB) bookkeeping.

In hardware, every ROB and store-buffer entry is extended with one bit
per FSB entry; bit *e* of a memory op is set iff the op belongs to the
scope currently mapped to FSB entry *e* (Section IV-A2/3).  A fence can
issue when the relevant column of bits is clear across both structures.

The simulator represents an op's bits as a plain ``int`` bitmask stored
on its ROB/store-buffer entry, and this class keeps the column-wise
aggregate the issue check needs: per-entry counters of in-flight
(flagged, not yet completed) loads and stores.  A column of bits being
"all clear" is exactly ``pending_loads[e] == pending_stores[e] == 0``.

One dedicated entry -- the last one -- is reserved for set scope
(Section V-A2: "we use a specific FSB entry (e.g., the last entry)").
"""

from __future__ import annotations


class FenceScopeBits:
    """Column-wise pending-op counters for the FSB array."""

    __slots__ = (
        "n_entries",
        "set_entry",
        "pending_loads",
        "pending_stores",
        "total_loads",
        "total_stores",
        "sb_pending_stores",
        "sb_total_stores",
    )

    def __init__(self, n_entries: int) -> None:
        if n_entries < 2:
            raise ValueError("need at least 2 FSB entries (one reserved for set scope)")
        self.n_entries = n_entries
        self.set_entry = n_entries - 1
        self.pending_loads: list[int] = []
        self.pending_stores: list[int] = []
        # store-buffer-side columns: stores that have *retired* into the
        # store buffer and not yet drained.  A fence that reached the ROB
        # head (in-window speculation) only has these left to wait for --
        # every older load has completed by in-order retirement.
        self.sb_pending_stores: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Clear every column, in place: the owning core aliases the lists."""
        zeros = [0] * self.n_entries
        self.pending_loads[:] = zeros
        self.pending_stores[:] = zeros
        self.sb_pending_stores[:] = zeros
        # totals across *all* memory ops, flagged or not: these implement
        # the traditional (global-scope) fence check.
        self.total_loads = 0
        self.total_stores = 0
        self.sb_total_stores = 0

    @property
    def class_entries(self) -> range:
        """Indices usable for class scopes (set entry excluded)."""
        return range(self.n_entries - 1)

    # -- decode-time -----------------------------------------------------------
    def record_dispatch(self, mask: int, is_load: bool) -> None:
        """A memory op with FSB bits ``mask`` entered the window."""
        if is_load:
            self.total_loads += 1
            counters = self.pending_loads
        else:
            self.total_stores += 1
            counters = self.pending_stores
        while mask:
            low = mask & -mask
            counters[low.bit_length() - 1] += 1
            mask ^= low

    # -- retire-time ------------------------------------------------------------
    def record_store_retired(self, mask: int) -> None:
        """A store retired from the ROB into the store buffer."""
        self.sb_total_stores += 1
        while mask:
            low = mask & -mask
            self.sb_pending_stores[low.bit_length() - 1] += 1
            mask ^= low

    # -- completion-time --------------------------------------------------------
    def record_complete(self, mask: int, is_load: bool, in_sb: bool = False) -> None:
        """A memory op completed (load done / store drained); clear its bits.

        ``in_sb`` marks a store that had already retired into the store
        buffer, whose SB-side column must be cleared too.
        """
        if is_load:
            self.total_loads -= 1
            counters = self.pending_loads
        else:
            self.total_stores -= 1
            counters = self.pending_stores
            if in_sb:
                self.sb_total_stores -= 1
                if self.sb_total_stores < 0:
                    raise RuntimeError("SB-side FSB counter underflow")
        if self.total_loads < 0 or self.total_stores < 0:
            raise RuntimeError("FSB completion without matching dispatch")
        m = mask
        while m:
            low = m & -m
            e = low.bit_length() - 1
            counters[e] -= 1
            if counters[e] < 0:
                raise RuntimeError(f"FSB entry {e} counter underflow")
            if in_sb and not is_load:
                self.sb_pending_stores[e] -= 1
                if self.sb_pending_stores[e] < 0:
                    raise RuntimeError(f"SB FSB entry {e} counter underflow")
            m ^= low

    # -- issue checks -------------------------------------------------------------
    def entry_clear(self, entry: int, wait_loads: bool, wait_stores: bool) -> bool:
        """True iff entry's column has no pending ops of the waited kinds."""
        if wait_loads and self.pending_loads[entry]:
            return False
        if wait_stores and self.pending_stores[entry]:
            return False
        return True

    def all_clear(self, wait_loads: bool, wait_stores: bool) -> bool:
        """Traditional-fence check: no pending memory ops at all."""
        if wait_loads and self.total_loads:
            return False
        if wait_stores and self.total_stores:
            return False
        return True

    def entry_clear_sb(self, entry: int) -> bool:
        """True iff no buffered (retired, undrained) store has this bit set."""
        return self.sb_pending_stores[entry] == 0

    def all_clear_sb(self) -> bool:
        """True iff the store buffer holds no stores at all."""
        return self.sb_total_stores == 0

    def entry_idle(self, entry: int) -> bool:
        """True iff no in-flight op has this entry's bit set (recycling test)."""
        return self.pending_loads[entry] == 0 and self.pending_stores[entry] == 0
