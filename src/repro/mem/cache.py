"""Set-associative LRU cache timing model.

Purely a *timing* structure: it tracks which line ids are resident and
in what recency order, never data values (values live in
:class:`repro.mem.memory.SharedMemory`).  Lookups and fills are O(assoc)
with an ordered-dict-free implementation tuned for the simulator's
inner loop (plain dicts + per-set recency lists).

A set's recency list is allocated on its first fill, so building a
cache costs O(1) lists rather than one per set: a Table-III L2 has
2,048 sets, and the short runs of the verify matrix touch a handful.
For the same reason :meth:`Cache.reset` frees only the sets a fill
allocated.
"""

from __future__ import annotations


class Cache:
    """One cache level: ``n_lines`` total capacity, ``assoc`` ways."""

    __slots__ = ("n_sets", "assoc", "_sets", "_used", "_where", "name")

    def __init__(self, n_lines: int, assoc: int, name: str = "cache") -> None:
        if n_lines < assoc:
            raise ValueError("cache must have at least one set")
        if n_lines % assoc != 0:
            raise ValueError("n_lines must be a multiple of assoc")
        self.n_sets = n_lines // assoc
        self.assoc = assoc
        self.name = name
        # each set is a list of line ids, LRU at index 0, MRU at the end;
        # None until the set's first fill (touch/invalidate only reach
        # sets that hold a line, so they never see a None)
        self._sets: list[list[int] | None] = [None] * self.n_sets
        self._used: list[int] = []  # indices of the sets that are lists
        self._where: dict[int, int] = {}  # line -> set index (presence map)
        self.reset()

    def reset(self) -> None:
        """Invalidate every line, freeing the sets a fill allocated."""
        sets = self._sets
        for si in self._used:
            sets[si] = None
        self._used.clear()
        self._where.clear()

    def _set_of(self, line: int) -> int:
        return line % self.n_sets

    def contains(self, line: int) -> bool:
        return line in self._where

    def touch(self, line: int) -> bool:
        """Lookup; on hit, update recency and return True."""
        si = self._where.get(line)
        if si is None:
            return False
        ways = self._sets[si]
        # move to MRU position (small lists: O(assoc)); already-MRU hits
        # (common for repeated same-line access) skip the list shuffle
        if ways[-1] != line:
            ways.remove(line)
            ways.append(line)
        return True

    def fill(self, line: int) -> int | None:
        """Insert ``line``; returns the evicted line id or None."""
        si = self._set_of(line)
        ways = self._sets[si]
        if ways is None:
            ways = self._sets[si] = []
            self._used.append(si)
        if line in self._where:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return None
        victim = None
        if len(ways) >= self.assoc:
            victim = ways.pop(0)
            del self._where[victim]
        ways.append(line)
        self._where[line] = si
        return victim

    def fill_absent(self, line: int) -> int | None:
        """:meth:`fill` for a line the caller just saw miss.

        Skips the residency re-check ``fill`` does; only valid when the
        line is known absent (a ``touch`` on it just returned False and
        nothing evicted in between).
        """
        si = line % self.n_sets
        ways = self._sets[si]
        if ways is None:
            ways = self._sets[si] = []
            self._used.append(si)
        victim = None
        if len(ways) >= self.assoc:
            victim = ways.pop(0)
            del self._where[victim]
        ways.append(line)
        self._where[line] = si
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True if it was resident."""
        si = self._where.pop(line, None)
        if si is None:
            return False
        self._sets[si].remove(line)
        return True

    def invalidate_all_except(self, keep: set[int]) -> int:
        """Flash-clear every resident line not in ``keep``; returns how many.

        One pass over the presence map, leaving exactly the state that
        :meth:`invalidate` on each dropped line (in any order) leaves:
        the kept lines hold their sets and their recency order.
        """
        where = self._where
        sets = self._sets
        dropped = [line for line in where if line not in keep]
        for line in dropped:
            sets[where.pop(line)].remove(line)
        return len(dropped)

    def resident_lines(self) -> set[int]:
        """All currently resident line ids (for tests)."""
        return set(self._where)

    def __len__(self) -> int:
        return len(self._where)
