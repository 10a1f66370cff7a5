"""The cid -> FSB-entry mapping table (Section IV-A3).

``fs_start cid`` looks the class id up here; a hit reuses the mapped
FSB entry, a miss allocates a free entry (or, if none is free, falls
back to one designated *shared* entry -- "for each newly encountered
scope, we simply choose one specific FSB entry", which is safe because
sharing only over-constrains ordering).

A mapping is invalidated when its FSB entry's bits have been cleared in
every ROB/store-buffer slot *and* the entry is no longer on the FSS or
FSS' (the scope is still active otherwise).  The tracker drives that
via :meth:`release_entry`.

If the table itself is full and an unmapped cid arrives, the caller
must enter overflow-counter mode; :meth:`lookup_or_allocate` signals
that by raising :class:`MappingOverflow`.
"""

from __future__ import annotations


class MappingOverflow(Exception):
    """No table slot available for a new cid."""


class MappingTable:
    """Bounded associative table from class ids to FSB entries."""

    __slots__ = ("capacity", "n_fsb_class_entries", "shared_entry", "_map", "_free")

    def __init__(self, capacity: int, n_fsb_class_entries: int) -> None:
        if capacity < 1:
            raise ValueError("mapping table capacity must be >= 1")
        if n_fsb_class_entries < 1:
            raise ValueError("need at least one class-scope FSB entry")
        self.capacity = capacity
        self.n_fsb_class_entries = n_fsb_class_entries
        # the designated fallback when FSB entries run out (entry 0)
        self.shared_entry = 0
        self._map: dict[int, int] = {}
        self._free: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop every mapping; every class entry is free again."""
        self._map.clear()
        self._free[:] = range(self.n_fsb_class_entries - 1, -1, -1)

    def lookup(self, cid: int) -> int | None:
        return self._map.get(cid)

    def lookup_or_allocate(self, cid: int) -> int:
        """Return the FSB entry for ``cid``, allocating on first use.

        Raises :class:`MappingOverflow` when the table is full and the
        cid is unmapped.
        """
        entry = self._map.get(cid)
        if entry is not None:
            return entry
        if len(self._map) >= self.capacity:
            raise MappingOverflow(cid)
        entry = self._free.pop() if self._free else self.shared_entry
        self._map[cid] = entry
        return entry

    def release_entry(self, entry: int) -> None:
        """Invalidate every mapping that points at ``entry``; free it."""
        stale = [cid for cid, e in self._map.items() if e == entry]
        for cid in stale:
            del self._map[cid]
        if stale and entry not in self._free:
            self._free.append(entry)

    def entry_in_use(self, entry: int) -> bool:
        return any(e == entry for e in self._map.values())

    def free_entries(self) -> tuple[int, ...]:
        """Snapshot of the FSB-entry free list (tests/diagnostics)."""
        return tuple(self._free)

    @property
    def size(self) -> int:
        return len(self._map)

    def mappings(self) -> dict[int, int]:
        """Snapshot of the current cid -> entry map (for tests)."""
        return dict(self._map)
