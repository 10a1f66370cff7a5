"""Reorder buffer model.

Instructions enter at dispatch in program order, complete out of order
and retire from the head in program order (Section IV-A2).  Each entry
carries the fence scope bits (FSB) mask of its memory op, which is how
the scope tracker's counters and the per-entry bits stay consistent.
"""

from __future__ import annotations

from collections import deque

# entry kinds (ints for speed in the cycle loop)
K_LOAD = 0
K_STORE = 1
K_CAS = 2
K_FENCE = 3
K_COMPUTE = 4
K_BRANCH = 5
K_FS = 6
K_PROBE = 7

KIND_NAMES = {
    K_LOAD: "load",
    K_STORE: "store",
    K_CAS: "cas",
    K_FENCE: "fence",
    K_COMPUTE: "compute",
    K_BRANCH: "branch",
    K_FS: "fs",
    K_PROBE: "probe",
}


class RobEntry:
    """One ROB slot."""

    __slots__ = (
        "kind",
        "done",
        "fsb_mask",
        "addr",
        "value",
        "waits",
        "scope_entry",
        "dispatch_cycle",
        "in_sb",
        "seq",
    )

    def __init__(self, kind: int, dispatch_cycle: int) -> None:
        self.kind = kind
        self.done = False
        self.fsb_mask = 0
        self.addr = -1
        self.value = 0
        self.waits = 0
        self.scope_entry = 0
        self.dispatch_cycle = dispatch_cycle
        self.in_sb = False  # store already placed in the SB at dispatch (RMO)
        self.seq = 0        # memory-op sequence number (program order)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "wait"
        return f"<RobEntry {KIND_NAMES[self.kind]} {state} @{self.dispatch_cycle}>"


class ReorderBuffer:
    """Bounded in-order window of :class:`RobEntry`."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ROB capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[RobEntry] = deque()
        self.reset()

    def reset(self) -> None:
        """Empty the window, in place: the owning core aliases the deque."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, entry: RobEntry) -> None:
        if self.full:
            raise OverflowError("ROB full")
        self._entries.append(entry)

    def head(self) -> RobEntry:
        return self._entries[0]

    def pop_head(self) -> RobEntry:
        return self._entries.popleft()

    def entries(self):
        """Oldest-to-youngest iteration (tests/diagnostics)."""
        return iter(self._entries)
