"""Per-core S-Fence controller: FSB + FSS/FSS' + mapping table glue.

This is the hardware described in Section IV-A2..4 and V-A2, as one
object per core:

* ``fs_start``/``fs_end`` maintain the FSS (and, for non-speculative
  ops, the shadow FSS') and the mapping table, entering the overflow
  counter mode when either structure is full.
* ``dispatch_mem`` computes the FSB bitmask of a newly decoded memory
  op: one bit per scope on the FSS, plus the dedicated set-scope bit
  when the op carries the compiler's set-scope flag.
* ``complete_mem`` clears bits when a load completes or a store drains
  from the store buffer, and recycles FSB entries/mappings whose
  columns are fully clear and that are no longer on either stack.
* ``fence_ready`` is the issue check: traditional fences wait for all
  prior memory ops, class fences for the FSS-top column, set fences
  for the set column.  With scoped fences disabled (baseline runs) or
  while the overflow counter is non-zero, every fence degrades to a
  traditional fence -- strictly more ordering, hence always safe.
* speculation hooks (``begin_speculation``/``confirm_speculation``/
  ``squash``) implement the FSS' discipline for branch misprediction.
"""

from __future__ import annotations

from ..isa.instructions import FenceKind, WAIT_LOADS, WAIT_STORES
from ..sim.config import SimConfig
from .fsb import FenceScopeBits
from .fss import ScopeStack
from .mapping_table import MappingOverflow, MappingTable


class ScopeTracker:
    """All per-core S-Fence state."""

    __slots__ = (
        "config",
        "fsb",
        "fss",
        "shadow_fss",
        "mapping",
        "overflow_count",
        "shadow_overflow_count",
        "spec_depth",
        "_spec_queue",
        "unmatched_fs_ends",
        "overflow_events",
        "_all_class_mask",
        "chaos_overflow",
    )

    #: ``fs_start``/``fs_end`` outcome sentinels (also used by the chaos
    #: invariant checker to mirror scope state from the event stream)
    OVERFLOWED = -2   # the scope was only counted (overflow mode)
    UNMATCHED = -3    # fs_end with no open scope (wrong-path artefact)

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.fsb = FenceScopeBits(config.fsb_entries)
        # union of all class entries: the conservative mask used while
        # the overflow counter is active (see dispatch_mem)
        self._all_class_mask = (1 << (config.fsb_entries - 1)) - 1
        self.fss = ScopeStack(config.fss_entries)
        self.shadow_fss = ScopeStack(config.fss_entries)
        self.mapping = MappingTable(config.mapping_entries, config.fsb_entries - 1)
        self._reset_own()

    def reset(self) -> None:
        """Back to the state of a core that has dispatched nothing."""
        self.fsb.reset()
        self.fss.reset()
        self.shadow_fss.reset()
        self.mapping.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The tracker's own counters and queue; the structures it owns
        start fresh, so construction runs this alone."""
        self.overflow_count = 0
        self.shadow_overflow_count = 0
        self.spec_depth = 0  # unresolved predicted branches in flight
        # queued shadow actions: (depth_remaining, action, entry)
        self._spec_queue: list[list] = []
        self.unmatched_fs_ends = 0
        self.overflow_events = 0
        # optional fault-injection hook (chaos harness): called as
        # ``chaos_overflow(cid) -> bool`` at each fs_start; True forces
        # the overflow-counter path even though the FSS/mapping table
        # still have room.  Overflow mode over-constrains ordering
        # (every fence degrades to a traditional fence), so forcing it
        # is always safe -- it exercises the degraded path the paper's
        # safety argument leans on.
        self.chaos_overflow = None

    # -- class-scope delimiters -------------------------------------------------
    def fs_start(self, cid: int) -> int:
        """Open a scope; returns its FSB entry or ``OVERFLOWED``."""
        forced = self.chaos_overflow is not None and self.chaos_overflow(cid)
        if forced or self.overflow_count > 0 or self.fss.full:
            # excessive-scope fallback: just count nesting depth
            self.overflow_count += 1
            self.overflow_events += 1
            self._record_shadow("ovf+", 0)
            return self.OVERFLOWED
        try:
            entry = self.mapping.lookup_or_allocate(cid)
        except MappingOverflow:
            self.overflow_count += 1
            self.overflow_events += 1
            self._record_shadow("ovf+", 0)
            return self.OVERFLOWED
        self.fss.push(entry)
        self._record_shadow("push", entry)
        return entry

    def fs_end(self, cid: int) -> int:
        """Close the innermost scope; returns its FSB entry,
        ``OVERFLOWED`` (counter decrement) or ``UNMATCHED`` (no-op)."""
        if self.overflow_count > 0:
            self.overflow_count -= 1
            self._record_shadow("ovf-", 0)
            return self.OVERFLOWED
        if self.fss.empty:
            # unmatched pop (only possible on a wrong speculative path);
            # hardware treats it as a no-op.
            self.unmatched_fs_ends += 1
            return self.UNMATCHED
        entry = self.fss.pop()
        self._record_shadow("pop", entry)
        self._maybe_release(entry)
        return entry

    # -- speculation (branch prediction) ------------------------------------------
    def begin_speculation(self) -> None:
        """A predicted branch entered the window."""
        self.spec_depth += 1

    def confirm_speculation(self) -> None:
        """The oldest in-flight branch resolved as correctly predicted."""
        if self.spec_depth == 0:
            raise RuntimeError("confirm_speculation without begin_speculation")
        self.spec_depth -= 1
        remaining = []
        for item in self._spec_queue:
            item[0] -= 1
            if item[0] <= 0:
                self._apply_shadow(item[1], item[2])
            else:
                remaining.append(item)
        self._spec_queue = remaining

    def squash(self) -> None:
        """Branch misprediction: restore FSS from FSS', drop wrong-path state."""
        self.fss.restore_from(self.shadow_fss)
        self.overflow_count = self.shadow_overflow_count
        self._spec_queue.clear()
        self.spec_depth = 0

    def _record_shadow(self, action: str, entry: int) -> None:
        if self.spec_depth == 0:
            self._apply_shadow(action, entry)
        else:
            self._spec_queue.append([self.spec_depth, action, entry])

    def _apply_shadow(self, action: str, entry: int) -> None:
        if action == "push":
            self.shadow_fss.push(entry)
        elif action == "pop":
            if not self.shadow_fss.empty:
                self.shadow_fss.pop()
            self._maybe_release(entry)
        elif action == "ovf+":
            self.shadow_overflow_count += 1
        elif action == "ovf-":
            self.shadow_overflow_count -= 1

    # -- memory ops ---------------------------------------------------------------
    def dispatch_mem(self, is_load: bool, flagged: bool) -> int:
        """Flag a decoded memory op; returns its FSB bitmask.

        While the overflow counter is active, the op's true scope may
        have no FSB entry (its ``fs_start`` was only counted), so it is
        conservatively flagged with *every* class entry.  Without this,
        a class fence in a later re-activation of the overflowed scope
        would not wait for the op -- the paper's overflow description
        leaves this corner open, and the lockstep property test against
        the Figure 5 semantics (tests/test_semantics_oracle.py) catches
        the unsound variant.
        """
        if self.config.scoped_fences:
            if self.overflow_count > 0:
                mask = self._all_class_mask
            else:
                mask = self.fss.mask()
            if flagged:
                mask |= 1 << self.fsb.set_entry
        else:
            mask = 0
        self.fsb.record_dispatch(mask, is_load)
        return mask

    def store_retired(self, mask: int) -> None:
        """A store moved from the ROB into the store buffer."""
        self.fsb.record_store_retired(mask)

    def complete_mem(self, mask: int, is_load: bool, in_sb: bool = False) -> None:
        """A load completed / a store drained; clear its bits, recycle."""
        self.fsb.record_complete(mask, is_load, in_sb=in_sb)
        m = mask & ~(1 << self.fsb.set_entry)
        while m:
            low = m & -m
            self._maybe_release(low.bit_length() - 1)
            m ^= low

    def _maybe_release(self, entry: int) -> None:
        """Invalidate the mapping of ``entry`` once its scope is fully done."""
        if entry == self.fsb.set_entry:
            return
        if not self.fsb.entry_idle(entry):
            return
        if self.fss.contains(entry) or self.shadow_fss.contains(entry):
            return
        if any(item[1] == "push" and item[2] == entry for item in self._spec_queue):
            return
        self.mapping.release_entry(entry)

    # -- fence issue check -----------------------------------------------------------
    def fence_ready(self, kind: FenceKind, waits: int) -> bool:
        """May a fence of this kind issue right now?"""
        wait_l = bool(waits & WAIT_LOADS)
        wait_s = bool(waits & WAIT_STORES)
        if not self.config.scoped_fences:
            kind = FenceKind.GLOBAL
        elif kind is FenceKind.CLASS and (self.overflow_count > 0 or self.fss.empty):
            kind = FenceKind.GLOBAL
        if kind is FenceKind.GLOBAL:
            return self.fsb.all_clear(wait_l, wait_s)
        if kind is FenceKind.CLASS:
            return self.fsb.entry_clear(self.fss.top(), wait_l, wait_s)
        return self.fsb.entry_clear(self.fsb.set_entry, wait_l, wait_s)

    def would_stall_as_global(self, waits: int) -> bool:
        """True if a traditional fence could not issue now (for stats)."""
        return not self.fsb.all_clear(bool(waits & WAIT_LOADS), bool(waits & WAIT_STORES))

    # -- in-window speculation support ------------------------------------------
    # A speculatively issued fence re-checks its condition when it reaches
    # the ROB head ("before it can be retired from ROB, it has to check
    # the FSBs of store buffer", Section VI-B).  At that point in-order
    # retirement guarantees every older load has completed, so only
    # store-buffer-resident stores can still be pending.  The fence's
    # scope is resolved at dispatch (the FSS moves on afterwards).

    GLOBAL_SCOPE = -1

    def resolve_fence_scope(self, kind: FenceKind) -> int:
        """Resolve the scope of a fence at dispatch time.

        Returns ``GLOBAL_SCOPE`` for a traditional/degraded fence or the
        FSB entry index the fence must watch.
        """
        if not self.config.scoped_fences:
            return self.GLOBAL_SCOPE
        if kind is FenceKind.SET:
            return self.fsb.set_entry
        if kind is FenceKind.CLASS:
            if self.overflow_count > 0 or self.fss.empty:
                return self.GLOBAL_SCOPE
            return self.fss.top()
        return self.GLOBAL_SCOPE

    def fence_ready_at_head(self, scope_entry: int, waits: int) -> bool:
        """Retire-time check for a speculatively issued fence."""
        if not (waits & WAIT_STORES):
            return True  # older loads are complete by in-order retirement
        if scope_entry == self.GLOBAL_SCOPE:
            return self.fsb.all_clear_sb()
        return self.fsb.entry_clear_sb(scope_entry)

    def pending_for_scope(self, scope_entry: int, waits: int) -> int:
        """Count of in-flight memory ops a fence of this scope waits on.

        Used at fence dispatch: at that moment every in-flight op is
        older than the fence, so the window counters are an exact
        snapshot of the fence's wait set (the basis of the per-fence
        countdown in in-window speculation mode).
        """
        count = 0
        if waits & WAIT_LOADS:
            count += (
                self.fsb.total_loads
                if scope_entry == self.GLOBAL_SCOPE
                else self.fsb.pending_loads[scope_entry]
            )
        if waits & WAIT_STORES:
            count += (
                self.fsb.total_stores
                if scope_entry == self.GLOBAL_SCOPE
                else self.fsb.pending_stores[scope_entry]
            )
        return count

    def fence_ready_resolved(self, scope_entry: int, waits: int) -> bool:
        """Window-wide check for a resolved fence scope (early completion).

        Conservative before the fence reaches the ROB head: the window
        counters include ops younger than the fence, so clearing implies
        the fence's real condition holds.
        """
        wait_l = bool(waits & WAIT_LOADS)
        wait_s = bool(waits & WAIT_STORES)
        if scope_entry == self.GLOBAL_SCOPE:
            return self.fsb.all_clear(wait_l, wait_s)
        return self.fsb.entry_clear(scope_entry, wait_l, wait_s)
