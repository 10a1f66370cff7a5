"""Idempotent work stealing (Michael, Vechev & Saraswat, PPoPP'09).

The paper's related work (Section VII, [34]) describes a *different*
road to cheap work stealing: relax the deque's semantics so tasks may
be extracted more than once ("idempotent work stealing") and the
expensive store-load fence in ``take`` disappears altogether.  S-Fence
instead keeps exactly-once semantics and makes the fence cheap; the
two are complementary, and
``tests/test_idempotent_wsq.py::test_scoping_helps_either_deque``
compares them head-to-head on the spanning-tree workload.

This is the idempotent **LIFO** extraction variant: the deque state is
one *anchor* word packing ``(size, tag)``; the owner's ``put`` writes
the task and then plainly overwrites the anchor (no CAS), while
extractors CAS the anchor down.  An anchor overwrite can cancel a
concurrent extraction's CAS, which resurrects the extracted task --
hence at-least-once delivery, and hence *idempotent* tasks only.
"""

from __future__ import annotations

from ..isa.instructions import FenceKind, WAIT_STORES
from ..runtime.lang import Env, ScopedStructure, scoped_method

EMPTY = -1

_TAG_SHIFT = 24
_SIZE_MASK = (1 << _TAG_SHIFT) - 1


def _anchor(size: int, tag: int) -> int:
    return (tag << _TAG_SHIFT) | size


def _unpack(anchor: int) -> tuple[int, int]:
    return anchor & _SIZE_MASK, anchor >> _TAG_SHIFT


class IdempotentLifo(ScopedStructure):
    """Idempotent LIFO work-stealing pool (at-least-once extraction)."""

    def __init__(
        self,
        env: Env,
        name: str = "iwsq",
        capacity: int = 1024,
        scope: FenceKind = FenceKind.CLASS,
    ) -> None:
        super().__init__(env, name, scope)
        if capacity < 1 or capacity > _SIZE_MASK:
            raise ValueError("capacity out of range")
        self.capacity = capacity
        self.anchor = self.svar("ANCHOR")
        self.arr = self.sarray("tasks", capacity)

    @scoped_method
    def put(self, task: int):
        """Owner only: push a task (needs just a store-store fence)."""
        size, tag = _unpack((yield self.anchor.load()))
        if size >= self.capacity:
            raise MemoryError(f"{self.name}: pool full")
        yield self.arr.store(size, task)
        # publication order: the task must be visible before the anchor
        yield self.fence(WAIT_STORES)
        yield self.anchor.store(_anchor(size + 1, (tag + 1) & 0xFF))

    @scoped_method
    def extract(self):
        """Owner take and thief steal are the same code: NO fence.

        The anchor CAS may be overwritten by a concurrent ``put``'s
        plain anchor store, resurrecting this task for someone else --
        the at-least-once relaxation that buys the fence away.
        """
        a = yield self.anchor.load()
        size, tag = _unpack(a)
        if size == 0:
            return EMPTY
        task = yield self.arr.load(size - 1)
        ok = yield self.anchor.cas(a, _anchor(size - 1, tag))
        if not ok:
            return EMPTY
        return task

    # the owner's take and a thief's steal share the extraction path
    take = extract
    steal = extract

    # host helpers --------------------------------------------------------------
    def snapshot(self) -> tuple[int, int]:
        return _unpack(self.anchor.peek())
