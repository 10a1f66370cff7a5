"""Structured memory-access tracing.

A :class:`TraceCollector` attached to a :class:`~repro.sim.simulator.Simulator`
records every dispatched memory access as ``(core, kind, addr)``.  The
delay-set classifier (:mod:`repro.apps.delay_set`) consumes such traces
to partition addresses into private / shared-read-only /
shared-conflicting, the partition end-to-end-SC fence insertion relies
on for barnes and radiosity (Section VI-B).

A second, finer-grained stream exists for the chaos harness: a *monitor*
attached to a core (``Core.monitor``) receives every ordering-relevant
event -- memory-op dispatch/completion/drain with the op's FSB bitmask,
fence issue and completion with the resolved scope, scope open/close
with the FSB entry the mapping table assigned, and mispredict squashes.
:class:`OrderEvent` is the uniform record; :class:`OrderEventLog`
implements the monitor protocol by recording, and can :meth:`replay
<OrderEventLog.replay>` its records into any other monitor (e.g. the
ordering-invariant checker in :mod:`repro.chaos.invariants`).
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_LOAD = "load"
KIND_STORE = "store"
KIND_CAS = "cas"

# OrderEvent.kind values (the monitor-protocol method each maps to)
EV_MEM_DISPATCH = "mem_dispatch"
EV_MEM_COMPLETE = "mem_complete"
EV_STORE_DRAIN = "store_drain"
EV_FENCE_OPEN = "fence_open"      # speculatively issued, completes later
EV_FENCE_COMPLETE = "fence_complete"
EV_FENCE_PASS = "fence_pass"      # blocking fence whose condition held
EV_SCOPE = "scope"                # fs_start / fs_end
EV_SQUASH = "squash"              # branch mispredict restored FSS from FSS'
EV_COHERENCE_SYNC = "coherence_sync"  # backend sync point (SiSd SI/SD)


@dataclass(frozen=True)
class TraceRecord:
    core: int
    kind: str
    addr: int


class TraceCollector:
    """Accumulates memory-access records during a run."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, core: int, kind: str, addr: int) -> None:
        self.records.append(TraceRecord(core, kind, addr))

    def __len__(self) -> int:
        return len(self.records)

    def by_addr(self) -> dict[int, list[TraceRecord]]:
        out: dict[int, list[TraceRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.addr, []).append(rec)
        return out


@dataclass(frozen=True)
class OrderEvent:
    """One ordering-relevant event from a core's monitor stream.

    Field use per ``kind``:

    =================  ===============================================
    mem_dispatch       op, addr, seq, mask, flagged
    mem_complete       op ("load"/"store"), seq
    store_drain        seq
    fence_open         fid, op (fence kind), waits, scope, seq
    fence_complete     fid
    fence_pass         op (fence kind), waits, scope, seq
    scope              op ("start"/"end"), cid, scope (FSB entry or
                       ScopeTracker.OVERFLOWED / .UNMATCHED)
    squash             scopes (post-restore FSS), overflow
    coherence_sync     op ("acquire"/"release"/"full"), invalidated,
                       downgraded (SiSd self-invalidate/self-downgrade)
    =================  ===============================================
    """

    kind: str
    core: int
    cycle: int
    op: str = ""
    addr: int = -1
    seq: int = -1
    mask: int = 0
    flagged: bool = False
    waits: int = 0
    scope: int = 0
    fid: int = -1
    cid: int = -1
    scopes: tuple[int, ...] = ()
    overflow: int = 0
    invalidated: int = 0
    downgraded: int = 0


class OrderEventLog:
    """Records the monitor protocol as :class:`OrderEvent` rows.

    Implements every ``on_*`` hook a :class:`~repro.cpu.core.Core`
    monitor needs, so it can be attached directly (``core.monitor``) or
    sit in front of a checker via :class:`MonitorFanout`.
    """

    def __init__(self, limit: int | None = None) -> None:
        self.events: list[OrderEvent] = []
        self.limit = limit  # keep only the newest ``limit`` events

    def _push(self, ev: OrderEvent) -> None:
        self.events.append(ev)
        if self.limit is not None and len(self.events) > self.limit:
            del self.events[: len(self.events) - self.limit]

    # -- monitor protocol -----------------------------------------------------
    def on_mem_dispatch(self, core, cycle, seq, op, addr, mask, flagged) -> None:
        self._push(OrderEvent(EV_MEM_DISPATCH, core, cycle, op=op, addr=addr,
                              seq=seq, mask=mask, flagged=flagged))

    def on_mem_complete(self, core, cycle, seq, is_load) -> None:
        self._push(OrderEvent(EV_MEM_COMPLETE, core, cycle,
                              op=KIND_LOAD if is_load else KIND_STORE, seq=seq))

    def on_store_drain(self, core, cycle, seq) -> None:
        self._push(OrderEvent(EV_STORE_DRAIN, core, cycle, seq=seq))

    def on_fence_open(self, core, cycle, fid, kind, waits, scope, seq) -> None:
        self._push(OrderEvent(EV_FENCE_OPEN, core, cycle, op=kind, waits=waits,
                              scope=scope, seq=seq, fid=fid))

    def on_fence_complete(self, core, cycle, fid) -> None:
        self._push(OrderEvent(EV_FENCE_COMPLETE, core, cycle, fid=fid))

    def on_fence_pass(self, core, cycle, kind, waits, scope, seq) -> None:
        self._push(OrderEvent(EV_FENCE_PASS, core, cycle, op=kind, waits=waits,
                              scope=scope, seq=seq))

    def on_scope(self, core, cycle, action, cid, entry) -> None:
        self._push(OrderEvent(EV_SCOPE, core, cycle, op=action, cid=cid,
                              scope=entry))

    def on_squash(self, core, cycle, scopes, overflow) -> None:
        self._push(OrderEvent(EV_SQUASH, core, cycle, scopes=tuple(scopes),
                              overflow=overflow))

    def on_coherence_sync(self, core, cycle, kind, invalidated, downgraded) -> None:
        self._push(OrderEvent(EV_COHERENCE_SYNC, core, cycle, op=kind,
                              invalidated=invalidated, downgraded=downgraded))

    # -- consumption ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def replay(self, monitor) -> None:
        """Feed every recorded event into another monitor, in order."""
        for ev in self.events:
            dispatch_event(monitor, ev)


def dispatch_event(monitor, ev: OrderEvent) -> None:
    """Deliver one :class:`OrderEvent` record via the monitor protocol."""
    k = ev.kind
    if k == EV_MEM_DISPATCH:
        monitor.on_mem_dispatch(ev.core, ev.cycle, ev.seq, ev.op, ev.addr,
                                ev.mask, ev.flagged)
    elif k == EV_MEM_COMPLETE:
        monitor.on_mem_complete(ev.core, ev.cycle, ev.seq, ev.op == KIND_LOAD)
    elif k == EV_STORE_DRAIN:
        monitor.on_store_drain(ev.core, ev.cycle, ev.seq)
    elif k == EV_FENCE_OPEN:
        monitor.on_fence_open(ev.core, ev.cycle, ev.fid, ev.op, ev.waits,
                              ev.scope, ev.seq)
    elif k == EV_FENCE_COMPLETE:
        monitor.on_fence_complete(ev.core, ev.cycle, ev.fid)
    elif k == EV_FENCE_PASS:
        monitor.on_fence_pass(ev.core, ev.cycle, ev.op, ev.waits, ev.scope, ev.seq)
    elif k == EV_SCOPE:
        monitor.on_scope(ev.core, ev.cycle, ev.op, ev.cid, ev.scope)
    elif k == EV_SQUASH:
        monitor.on_squash(ev.core, ev.cycle, ev.scopes, ev.overflow)
    elif k == EV_COHERENCE_SYNC:
        monitor.on_coherence_sync(ev.core, ev.cycle, ev.op, ev.invalidated,
                                  ev.downgraded)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown OrderEvent kind {k!r}")


class MonitorFanout:
    """Forward the monitor protocol to several sinks (log + checker)."""

    def __init__(self, *sinks) -> None:
        self.sinks = [s for s in sinks if s is not None]

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        sinks = self.sinks
        def fan(*args, **kwargs):
            for sink in sinks:
                getattr(sink, name)(*args, **kwargs)
        # cached on the instance: later lookups never reach __getattr__
        setattr(self, name, fan)
        return fan
