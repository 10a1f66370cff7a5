"""Invalidation-based coherence state (timing only).

Tracks, per cache line, which cores' private L1s may hold the line and
which core (if any) holds it dirty.  The hierarchy consults this to
price accesses (cache-to-cache transfers, upgrade invalidations) and to
keep L1 presence bits honest when another core writes.

This is an approximate MSI directory: precise enough that false/true
sharing produce extra latency and invalidations, which is all the
fence-stall experiments need.  S-Fence itself requires *no* coherence
changes (Section VI-E) -- this module is part of the baseline substrate.
"""

from __future__ import annotations

from collections import defaultdict


class Directory:
    """Per-line sharer/owner bookkeeping."""

    __slots__ = ("_sharers", "_dirty_owner")

    def __init__(self) -> None:
        self._sharers: dict[int, set[int]] = defaultdict(set)
        self._dirty_owner: dict[int, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every sharer and owner."""
        self._sharers.clear()
        self._dirty_owner.clear()

    def sharers(self, line: int) -> set[int]:
        return self._sharers.get(line, set())

    def dirty_owner(self, line: int) -> int | None:
        return self._dirty_owner.get(line)

    def on_read(self, core: int, line: int) -> int | None:
        """Record a read by ``core``.

        Returns the previous dirty owner if the line must be supplied
        by (and downgraded in) a peer L1, else None.
        """
        owner = self._dirty_owner.get(line)
        supplier = None
        if owner is not None and owner != core:
            supplier = owner
            del self._dirty_owner[line]
        self._sharers[line].add(core)
        return supplier

    def on_write(self, core: int, line: int) -> set[int]:
        """Record a write by ``core``; returns the set of cores to invalidate."""
        victims = {c for c in self._sharers.get(line, ()) if c != core}
        self._sharers[line] = {core}
        self._dirty_owner[line] = core
        return victims

    def on_l1_evict(self, core: int, line: int) -> None:
        """Core ``core`` lost the line from its L1 (capacity/back-inval)."""
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core)
            if not sharers:
                del self._sharers[line]
        if self._dirty_owner.get(line) == core:
            del self._dirty_owner[line]
