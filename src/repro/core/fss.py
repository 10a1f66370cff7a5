"""Fence Scope Stack (FSS) and its shadow copy FSS'.

The FSS records the FSB entries of the currently open, nested class
scopes: the outermost scope at the bottom, the scope being decoded at
the top (Section IV-A3).  A newly decoded memory op sets the FSB bit of
*every* entry on the FSS, so inner-scope ops also flag their outer
scopes.

Branch prediction can corrupt the FSS: a wrong-path ``fs_end`` pops an
entry that the (re-fetched) correct path will try to pop again.  The
shadow stack FSS' is updated only by ``fs_start``/``fs_end`` ops with no
unconfirmed branch prediction before them; on a misprediction the FSS
is restored from FSS' (Section IV-A3, "Handling branch prediction").

``ScopeStack`` models one stack with bounded capacity.  Overflow is not
handled here -- the tracker's overflow counter takes over when ``push``
would exceed capacity (Section IV-A3, "Handling excessive scopes").
"""

from __future__ import annotations


class ScopeStack:
    """Bounded stack of FSB entry indices."""

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("FSS capacity must be >= 1")
        self.capacity = capacity
        self._items: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Empty the stack."""
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, entry: int) -> None:
        if self.full:
            raise OverflowError("FSS full")
        self._items.append(entry)

    def pop(self) -> int:
        if not self._items:
            raise IndexError("FSS empty")
        return self._items.pop()

    def top(self) -> int:
        if not self._items:
            raise IndexError("FSS empty")
        return self._items[-1]

    def mask(self) -> int:
        """Bitmask of all FSB entries currently on the stack."""
        m = 0
        for e in self._items:
            m |= 1 << e
        return m

    def contains(self, entry: int) -> bool:
        return entry in self._items

    def items(self) -> tuple[int, ...]:
        """Bottom-to-top snapshot (for tests and the shadow copy)."""
        return tuple(self._items)

    def restore_from(self, other: "ScopeStack") -> None:
        """Copy ``other``'s contents into this stack (FSS <- FSS')."""
        self._items = list(other._items)
