"""Structured failure diagnostics for simulation runs.

When a run dies -- deadlock, livelock, cycle budget -- a bare message
("no progress possible at cycle N") is useless for debugging a
simulator this stateful.  :func:`capture` snapshots everything a
post-mortem needs from each core: ROB head and depth, store-buffer
occupancy (including fence-held stores), the open scope stacks (FSS and
FSS'), the overflow counter, the cid -> FSB-entry mapping table, the
cycle of the next pending event, and -- when ``SimConfig.retire_log_len``
enables the ring buffer -- the last N retired ops.  The snapshot rides
on :class:`~repro.sim.simulator.DeadlockError`
and :class:`~repro.sim.simulator.CycleLimitError` as ``exc.diagnostic``
and renders to a readable report via :meth:`SimDiagnostic.render`.

This module reads core state but deliberately imports nothing from
``cpu``/``core`` so it can be used from any layer (the chaos supervisor
re-renders the same snapshots) without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CoreSnapshot:
    """Post-mortem state of one core."""

    core_id: int
    finished: bool
    stall_reason: str | None
    instructions: int
    rob_depth: int
    rob_head: str | None            # repr of the ROB head entry, if any
    sb_depth: int
    sb_held: int                    # stores held behind a speculative fence
    sb_inflight: int
    pending_op: str | None
    open_scopes: tuple[int, ...]    # FSS contents, bottom to top
    shadow_scopes: tuple[int, ...]  # FSS' contents
    overflow_count: int
    open_spec_fences: int           # speculatively issued, incomplete fences
    outstanding_misses: int
    blocked_until: int
    mapping: dict[int, int]         # cid -> FSB entry
    last_retired: tuple = ()        # (cycle, kind, addr) ring, oldest first
    next_event_cycle: int | None = None  # pending wake-up (None: none pending)

    def render(self) -> str:
        lines = [
            f"core {self.core_id}: "
            + ("finished" if self.finished else f"stall={self.stall_reason}")
            + f" insns={self.instructions}"
            f" rob={self.rob_depth} sb={self.sb_depth}"
            + (f" (held={self.sb_held} inflight={self.sb_inflight})" if self.sb_depth else "")
        ]
        if self.rob_head is not None:
            lines.append(f"  rob head: {self.rob_head}")
        if self.pending_op is not None:
            lines.append(f"  pending op: {self.pending_op}")
        lines.append(
            f"  scopes: fss={list(self.open_scopes)} fss'={list(self.shadow_scopes)}"
            f" overflow={self.overflow_count} open_spec_fences={self.open_spec_fences}"
        )
        if self.mapping:
            lines.append(f"  mapping table: {self.mapping}")
        if self.outstanding_misses or self.blocked_until or self.next_event_cycle:
            lines.append(
                f"  outstanding_misses={self.outstanding_misses}"
                f" blocked_until={self.blocked_until}"
                f" next_event={self.next_event_cycle}"
            )
        if self.last_retired:
            ops = ", ".join(f"@{c}:{k}{'' if a in (-1, None) else f'[{a}]'}"
                            for c, k, a in self.last_retired)
            lines.append(f"  last retired: {ops}")
        return "\n".join(lines)


@dataclass
class SimDiagnostic:
    """Whole-simulation post-mortem attached to run failures."""

    reason: str                     # "deadlock" / "cycle-limit"
    cycle: int
    cores: list[CoreSnapshot] = field(default_factory=list)

    @property
    def running_cores(self) -> list[CoreSnapshot]:
        return [c for c in self.cores if not c.finished]

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def progress(self) -> tuple:
        """Per core: ops dispatched, and ops still in the ROB and store
        buffer.  A longer replay of the same run that ends with equal
        progress dispatched nothing and retired or drained nothing."""
        return tuple((c.instructions, c.rob_depth, c.sb_depth) for c in self.cores)

    @property
    def last_wake_up(self) -> int | None:
        """The latest pending wake-up of any running core, if any.

        A run cut off before this cycle may still be waiting out a
        stall (a long compute, a memory access), not stuck.
        """
        return max((c.next_event_cycle for c in self.running_cores
                    if c.next_event_cycle is not None), default=None)

    def render(self) -> str:
        head = f"[{self.reason} @ cycle {self.cycle}] " \
               f"{len(self.running_cores)}/{len(self.cores)} cores still running"
        body = "\n".join(c.render() for c in self.cores if not c.finished)
        return head + ("\n" + body if body else "")


def snapshot_core(core, cycle: int) -> CoreSnapshot:
    """Capture one core's state at ``cycle`` (duck-typed against
    ``cpu.core.Core``); every earlier cycle has been ticked."""
    tracker = core.tracker
    sb_entries = list(core.sb.entries())
    rob_head = None
    if not core.rob.empty:
        rob_head = repr(core.rob.head())
    return CoreSnapshot(
        core_id=core.core_id,
        finished=core.finished,
        stall_reason=core.stall_reason,
        instructions=core.stats.instructions,
        rob_depth=len(core.rob),
        rob_head=rob_head,
        sb_depth=len(sb_entries),
        sb_held=sum(1 for e in sb_entries if e.held),
        sb_inflight=sum(1 for e in sb_entries if e.state != 0),
        pending_op=repr(core._pending_op) if core._pending_op is not None else None,
        open_scopes=tracker.fss.items(),
        shadow_scopes=tracker.shadow_fss.items(),
        overflow_count=tracker.overflow_count,
        open_spec_fences=len(core._spec_fence_groups),
        outstanding_misses=core._outstanding_misses,
        blocked_until=core._blocked_until,
        mapping=tracker.mapping.mappings(),
        last_retired=tuple(core.retire_log) if core.retire_log is not None else (),
        next_event_cycle=None if core.finished else core.next_event_cycle(cycle - 1),
    )


def capture(cores, cycle: int, reason: str) -> SimDiagnostic:
    """Snapshot every core of a (possibly wedged) simulation."""
    return SimDiagnostic(
        reason=reason,
        cycle=cycle,
        cores=[snapshot_core(c, cycle) for c in cores],
    )
