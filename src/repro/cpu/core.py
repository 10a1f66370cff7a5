"""Approximate out-of-order core with S-Fence support.

One :class:`Core` per simulated hardware thread.  Each cycle
(:meth:`tick`, the one per-cycle step both simulation engines run) the
core, in order:

1. applies completions scheduled for this cycle (loads, CAS, branches,
   store-buffer drains), then completes the speculatively issued
   fences whose scope condition now holds,
2. retires up to ``retire_width`` instructions from the ROB head
   (stores move into the store buffer),
3. issues at most one buffered store to the cache write port,
4. dispatches up to ``dispatch_width`` new ops pulled from the guest
   generator, applying their *functional* effect immediately and their
   timing effects through the ROB/store-buffer/cache models.

Fence handling is the paper's mechanism:

* without in-window speculation a fence blocks dispatch until the
  scope tracker says its scope's FSB column is clear
  (``ScopeTracker.fence_ready``);
* with in-window speculation (``SimConfig.in_window_speculation``) the
  fence dispatches immediately and re-checks the store-buffer FSB
  column when it reaches the ROB head (Section VI-B).

Cycles in which instruction issue is blocked by a fence (or by the
implicit fence of an atomic CAS) are counted as *fence stall cycles*,
the quantity Figures 13-16 break out.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator

from ..core.scope_tracker import ScopeTracker
from ..isa.instructions import (
    Branch,
    Cas,
    Compute,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Op,
    Probe,
    Store,
    WAIT_BOTH,
    WAIT_LOADS,
    WAIT_STORES,
)
from ..mem.backend import CoherenceBackend
from ..mem.memory import SharedMemory
from ..sim.config import MemoryModel, SimConfig
from ..sim.stats import CoreStats
from .rob import (
    K_BRANCH,
    K_CAS,
    K_COMPUTE,
    K_FENCE,
    K_FS,
    K_LOAD,
    K_PROBE,
    K_STORE,
    KIND_NAMES,
    ReorderBuffer,
    RobEntry,
)
from .store_buffer import StoreBuffer

_heappush = heapq.heappush
_heappop = heapq.heappop

# event payload kinds in the completion heap
_EV_ROB = 0
_EV_SB = 1


class Core:
    """One out-of-order core executing one guest thread."""

    # slotted: a core carries more attributes than an instance's inline
    # value cache holds, so without slots every hot-loop attribute read
    # is a dict lookup, and every simulation pays the dict's growth
    __slots__ = (
        "core_id", "config", "memory", "hierarchy", "stats", "rob", "sb",
        "_rob_q", "_sb_q", "tracker", "predictor", "_events", "_ev_seq",
        "_gen", "_gen_done", "_pending_op", "_last_result",
        "_blocking_entry", "_blocked_until", "_spec_fence_groups",
        "_mem_seq", "_next_fence_id", "_outstanding_misses",
        "_sb_hold_until", "_idle_deltas", "_width", "_rob_cap", "_mshrs",
        "_sb_cap", "_retire_width", "_scoped", "_at_dispatch", "_hot",
        "_in_window", "_sc", "_skip_until", "finished", "finish_cycle",
        "stall_reason", "chaos", "monitor", "retire_log",
    )

    def __init__(
        self,
        core_id: int,
        config: SimConfig,
        memory: SharedMemory,
        hierarchy: CoherenceBackend,
        stats: CoreStats,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.memory = memory
        self.hierarchy = hierarchy
        self.rob = ReorderBuffer(config.rob_size)
        self.sb = StoreBuffer(config.sb_size, config.memory_model.sb_fifo)
        # hot-loop aliases: both containers are stable objects, and the
        # per-tick property/len indirection on them is measurable in the
        # cycle loop (tick runs hundreds of thousands of times per run)
        self._rob_q = self.rob._entries
        self._sb_q = self.sb._entries
        self.tracker = ScopeTracker(config)
        if config.use_branch_predictor:
            from .predictor import TwoBitPredictor

            self.predictor = TwoBitPredictor()
        else:
            self.predictor = None
        self._events: list[tuple[int, int, int, object]] = []
        # dispatch-loop constants hoisted once (the config never changes
        # after construction): the dispatch lanes and the event engine's
        # per-tick paths read these instead of chasing config attributes
        self._width = config.dispatch_width
        self._rob_cap = config.rob_size
        self._mshrs = config.mshrs
        self._sb_cap = config.sb_size
        self._retire_width = config.retire_width
        self._scoped = config.scoped_fences
        self._at_dispatch = config.memory_model.sb_at_dispatch
        self._in_window = config.in_window_speculation
        self._sc = config.memory_model is MemoryModel.SC
        # in-window speculation: [fence entry, held stores, countdown of
        # older in-scope memory ops the fence still waits for]
        self._spec_fence_groups: list[list] = []
        self.retire_log: deque | None = (
            deque(maxlen=config.retire_log_len) if config.retire_log_len > 0 else None
        )
        self._reset_own(stats)

    def reset(self, stats: CoreStats) -> None:
        """Back to the just-built state, counting into ``stats``.

        Every structure the core owns empties (ROB, store buffer, scope
        tracker, predictor, event heap, retire log), the chaos and
        monitor hooks unhook, and no thread is bound.  The containers
        the hot path aliases are cleared in place, so the rebuilt
        ``_hot`` differs from the last one only in its stats.  Shared
        memory and the backend are the simulator's to reset.
        """
        self.rob.reset()
        self.sb.reset()
        self.tracker.reset()
        if self.predictor is not None:
            self.predictor.reset()
        self._reset_own(stats)

    def _reset_own(self, stats: CoreStats) -> None:
        """The core's own per-run fields; the ROB, store buffer, scope
        tracker and predictor start fresh, so construction runs this
        alone."""
        self.stats = stats
        self._events.clear()
        self._ev_seq = 0
        self._gen: Generator[Op, object, object] | None = None
        self._gen_done = True
        self._pending_op: Op | None = None
        self._last_result: object = None
        self._blocking_entry: RobEntry | None = None  # CAS serialization
        self._blocked_until = 0  # compute chains / mispredict penalty
        self._spec_fence_groups.clear()
        self._mem_seq = 0  # program-order sequence numbers for memory ops
        self._next_fence_id = 0  # ids for speculatively issued fences
        self._outstanding_misses = 0  # loads missing L1, bounded by MSHRs
        self._sb_hold_until = 0  # chaos: store-drain throttle release cycle
        # stall counters a no-progress tick bumps, as per-cycle deltas;
        # account_idle replays them for every cycle the event scheduler
        # skips so fast-path stats stay byte-identical to the dense loop
        self._idle_deltas = (0, 0, 0, 0)  # fence, rob_full, sb_full, mshr
        # every stable object the dispatch lanes touch, bundled
        # so one attribute fetch + tuple unpack replaces ~20 per call.
        # All members but the stats are fixed for the core's lifetime:
        # containers are only ever mutated in place, and bound methods
        # pin their receivers.
        fsb = self.tracker.fsb
        self._hot = (
            stats,
            self._rob_q,
            self._sb_q,
            self._events,
            self.tracker,
            fsb,
            fsb.pending_loads,
            fsb.pending_stores,
            fsb.sb_pending_stores,
            self.memory.pending_map(self.core_id),
            self.memory.read,
            self.hierarchy.resident_in_l1,
            self.hierarchy.access,
            self.hierarchy.load_timed,
            self.sb,
        )
        # probe-skip hint (event engine): after a progress tick, the
        # earliest cycle the next tick could possibly progress at, when
        # every tick before it is provably a zero-delta blocked probe;
        # 0 means "tick me at cycle+1 as usual"
        self._skip_until = 0
        self.finished = True
        self.finish_cycle = 0
        self.stall_reason: str | None = None
        # chaos-harness hooks: ``chaos`` injects faults (forced branch
        # mispredictions, store-drain throttling), ``monitor`` receives
        # the ordering-event stream the invariant checker consumes.
        # Both default to None and cost one attribute test when unused.
        self.chaos = None
        self.monitor = None
        if self.retire_log is not None:
            self.retire_log.clear()

    # ------------------------------------------------------------------ set-up
    def bind(self, gen: Generator[Op, object, object] | None) -> None:
        """Attach the guest thread generator (None leaves the core idle)."""
        self._gen = gen
        self._gen_done = gen is None
        self.finished = gen is None

    def attach_units(self, ops) -> None:
        """Bind a static op list as this core's guest thread.

        Shorthand for :meth:`bind` over a generator replaying ``ops``;
        the simulator itself always binds ``Program`` generators.
        """
        self.bind(op for op in ops)

    # ------------------------------------------------------------------ events
    def _schedule(self, cycle: int, kind: int, payload: object) -> None:
        self._ev_seq += 1
        heapq.heappush(self._events, (cycle, self._ev_seq, kind, payload))

    def next_event_cycle(self, now: int) -> int | None:
        """Exact earliest future cycle at which this core can change state.

        This is the wake-up contract the event-driven scheduler relies
        on (architecture §9): after a tick at ``now`` made no progress,
        ticking this core at any cycle strictly before the returned
        value makes no progress and mutates no architectural state, so
        the scheduler may skip straight to it (replaying per-cycle stall
        accounting via :meth:`account_idle`).  ``None`` means no event
        will ever wake this core again -- it can only progress via a
        future event, so a ``None`` from every running core is a proven
        deadlock.

        Wake-up sources, each reporting an exact cycle:

        * the completion event heap (ROB completions scheduled from the
          coherence backend's :meth:`~repro.mem.backend.CoherenceBackend.
          completion_cycle`, branch resolutions, compute latencies, and
          store-buffer drains),
        * the store buffer's own earliest in-flight drain
          (:meth:`~repro.cpu.store_buffer.StoreBuffer.next_completion_cycle`),
        * the dependent-chain release cycle (``_blocked_until``), and
        * the chaos write-port throttle release (``_sb_hold_until``).
        """
        best = None
        if self._events:
            c = self._events[0][0]
            if c > now:
                best = c
        c = self.sb.next_completion_cycle()
        if c is not None and c > now and (best is None or c < best):
            best = c
        c = self._blocked_until
        if c > now and (best is None or c < best):
            best = c
        c = self._sb_hold_until
        if c > now and self._sb_q and (best is None or c < best):
            best = c
        return best

    # ------------------------------------------------------------------- tick
    def tick(self, cycle: int) -> bool:
        """Advance one cycle; returns True if any state changed.

        The core's one tick, run by both engines: the dense loop ticks
        every core on every cycle, the event scheduler only the cores
        due (architecture §9).  Completions, retire and store issue are
        inlined; dispatch is :meth:`_dispatch_lanes`.  A no-progress
        tick records its stall-counter deltas for :meth:`account_idle`'s
        replay.  A progress tick publishes the probe-skip hint
        ``_skip_until``, which only the event scheduler reads: the
        dense loop ticks the probes it covers, and the wake-up
        soundness battery (tests/test_fastpath_soundness.py) checks
        each one against the hint.
        """
        if self.finished:
            return False
        stats = self.stats
        pre_fence = stats.fence_stall_cycles
        pre_rob_full = stats.rob_full_stalls
        pre_sb_full = stats.sb_full_stalls
        pre_mshr = stats.mshr_stalls
        self.stall_reason = None
        progress = False

        # Completions: the maturity test runs every tick, so the loop
        # set-up is only paid when an event is actually due; mask-0 load completions (unscoped straight-
        # line code) reduce complete_mem to one checked decrement, and
        # the open-fence countdown is skipped when no fence is open
        # (both are exact: the skipped calls are no-ops).
        events = self._events
        if events and events[0][0] <= cycle:
            progress = True
            mon = self.monitor
            tracker = self.tracker
            fsb = tracker.fsb
            groups = self._spec_fence_groups
            core_id = self.core_id
            while events and events[0][0] <= cycle:
                ev = _heappop(events)
                if ev[2] == _EV_ROB:
                    entry = ev[3]
                    entry.done = True
                    ekind = entry.kind
                    if ekind == K_LOAD:
                        mask = entry.fsb_mask
                        if mask:
                            tracker.complete_mem(mask, is_load=True)
                        else:
                            fsb.total_loads -= 1
                            if fsb.total_loads < 0:
                                # record_complete's underflow check
                                raise RuntimeError(
                                    "FSB completion without matching dispatch"
                                )
                        if groups:
                            self._fence_countdown(mask, True, entry.seq)
                        if entry.value:
                            self._outstanding_misses -= 1
                        if mon is not None:
                            mon.on_mem_complete(core_id, cycle, entry.seq, True)
                    elif ekind == K_CAS:
                        tracker.complete_mem(entry.fsb_mask, is_load=False)
                        if groups:
                            self._fence_countdown(entry.fsb_mask, False, entry.seq)
                        if mon is not None:
                            mon.on_mem_complete(core_id, cycle, entry.seq, False)
                    elif ekind == K_BRANCH:
                        if entry.value:  # mispredict flag stored in .value
                            tracker.squash()
                            if mon is not None:
                                mon.on_squash(
                                    core_id, cycle,
                                    tracker.fss.items(),
                                    tracker.overflow_count,
                                )
                        else:
                            tracker.confirm_speculation()
                else:  # _EV_SB: store drain completed -> globally visible
                    sbe = ev[3]
                    self.memory.drain_store(core_id, sbe.addr)
                    tracker.complete_mem(sbe.fsb_mask, is_load=False, in_sb=True)
                    if groups:
                        self._fence_countdown(sbe.fsb_mask, False, sbe.op_seq)
                    self.sb.remove(sbe)
                    if mon is not None:
                        mon.on_store_drain(core_id, cycle, sbe.op_seq)
        if self._spec_fence_groups:
            progress |= self._try_complete_open_fences(cycle)
        rob_q = self._rob_q
        sb_q = self._sb_q
        # Retire, then store issue.  Retire only does work when the
        # head entry is done (a store head may also insert into the SB,
        # but only once done): the guard skips the loop set-up on the
        # many ticks spent waiting on a head.
        sb = self.sb
        if rob_q and rob_q[0].done:
            retire_log = self.retire_log
            n = self._retire_width
            while n and rob_q:
                head = rob_q[0]
                if not head.done:
                    break
                if head.kind == K_STORE and not head.in_sb:
                    if len(sb_q) >= self._sb_cap:
                        stats.sb_full_stalls += 1
                        break
                    sbe = sb.insert(head.addr, head.fsb_mask)
                    sbe.op_seq = head.seq
                    self.tracker.store_retired(head.fsb_mask)
                rob_q.popleft()
                if retire_log is not None:
                    retire_log.append((cycle, KIND_NAMES[head.kind], head.addr))
                n -= 1
                progress = True
        # with every buffered store already in flight nothing can issue
        # (and no chaos hook is consulted): skip the lookup
        if sb.waiting and cycle >= self._sb_hold_until:
            entry = sb.next_issuable()
            if entry is not None:
                chaos = self.chaos
                hold = (chaos.drain_delay(self.core_id, cycle)
                        if chaos is not None else 0)
                if hold > 0:
                    # chaos: delay the drain (the store stays buffered)
                    self._sb_hold_until = cycle + hold
                else:
                    done = self.hierarchy.completion_cycle(
                        cycle, self.core_id, entry.addr, True, stats
                    )
                    sb.mark_inflight(entry, done)
                    self._ev_seq += 1
                    _heappush(self._events, (done, self._ev_seq, _EV_SB, entry))
                    progress = True
        if self._dispatch_lanes(cycle):
            progress = True

        stats.rob_occupancy_sum += len(rob_q)
        stats.rob_occupancy_samples += 1

        if (not rob_q and not sb_q and self._gen_done
                and self._pending_op is None):
            self.finished = True
            self.finish_cycle = cycle
            stats.cycles = cycle
            return True
        if not progress:
            self._idle_deltas = (
                stats.fence_stall_cycles - pre_fence,
                stats.rob_full_stalls - pre_rob_full,
                stats.sb_full_stalls - pre_sb_full,
                stats.mshr_stalls - pre_mshr,
            )
            return False
        # Publish the probe-skip hint: the earliest cycle the next tick
        # could possibly progress at, when every tick before it is
        # provably a no-progress probe whose stall deltas are known now.
        # Preconditions shared by both cases -- nothing but dispatch can
        # act: no open fence groups, no retirable ROB head (the head
        # only becomes done via a completion event), and no issuable
        # buffered store (store-buffer state only changes via drain
        # events, which live in the same event heap; the chaos guard
        # keeps the write-port throttle out of the proof).
        self._skip_until = 0
        if (not self._spec_fence_groups
                and not (rob_q and rob_q[0].done)
                and (not sb_q
                     or (self.chaos is None
                         and self.sb.next_issuable() is None))):
            events = self._events
            if self._blocked_until > cycle + 1:
                # dependent-chain block: the blocked dispatch path
                # returns before any stall counter, so the skipped
                # probes are zero-delta
                e = self._blocked_until
                if events and events[0][0] < e:
                    e = events[0][0]
                if e > cycle + 1:
                    self._skip_until = e
                    self._idle_deltas = (0, 0, 0, 0)
            elif events:
                op = self._pending_op
                if (op is not None and op.__class__ is Fence
                        and not (self._in_window and op.speculable)
                        and len(rob_q) < self._rob_cap
                        and not self.tracker.fence_ready(op.kind, op.waits)):
                    # pending non-speculative fence waiting on its FSB
                    # column, which only completions/drains can clear:
                    # each skipped probe is exactly one fence stall
                    e = events[0][0]
                    if e > cycle + 1:
                        self._skip_until = e
                        self._idle_deltas = (1, 0, 0, 0)
        return True

    # the name the block-compiling engine gave this tick; the
    # end-to-end benchmark's tracer (benchmarks/e2e/layers.py) wraps
    # it by name, so it stays an alias until the next benchmark change
    tick_compiled = tick

    def account_idle(self, delta: int) -> None:
        """Attribute ``delta`` skipped cycles to this core's stats.

        Replays, once per skipped cycle, exactly the increments the last
        no-progress tick made -- ROB-occupancy sampling plus whichever
        stall counters that tick bumped -- so a warped run's statistics
        are byte-identical to the dense per-cycle loop's.
        """
        if self.finished or delta <= 0:
            return
        stats = self.stats
        stats.rob_occupancy_sum += len(self._rob_q) * delta
        stats.rob_occupancy_samples += delta
        d_fence, d_rob_full, d_sb_full, d_mshr = self._idle_deltas
        if d_fence:
            stats.fence_stall_cycles += d_fence * delta
        if d_rob_full:
            stats.rob_full_stalls += d_rob_full * delta
        if d_sb_full:
            stats.sb_full_stalls += d_sb_full * delta
        if d_mshr:
            stats.mshr_stalls += d_mshr * delta

    # ------------------------------------------------------------------ fences
    def _fence_countdown(self, mask: int, is_load: bool, seq: int) -> None:
        """A memory op completed: notify the open speculative fences.

        Each open fence counts down the *older* in-scope ops it still
        waits for; hitting zero is exactly its ordering condition
        (checked in :meth:`_try_complete_open_fences`).
        """
        for grp in self._spec_fence_groups:
            fe = grp[0]
            if fe.done or seq > fe.seq:
                continue
            if is_load:
                if not (fe.waits & WAIT_LOADS):
                    continue
            elif not (fe.waits & WAIT_STORES):
                continue
            if fe.scope_entry != ScopeTracker.GLOBAL_SCOPE and not (
                (mask >> fe.scope_entry) & 1
            ):
                continue
            grp[2] -= 1

    def _try_complete_open_fences(self, cycle: int) -> bool:
        """Complete speculative fences whose condition already holds.

        A fence completes when its countdown of older in-scope memory
        ops reaches zero.  Fences complete strictly oldest-first:
        releasing a younger fence's stores while an older fence is
        still open would leak visibility past the older fence.
        """
        progress = False
        while self._spec_fence_groups and self._spec_fence_groups[0][2] <= 0:
            grp = self._spec_fence_groups[0]
            fe = grp[0]
            fe.done = True
            if self.monitor is not None:
                self.monitor.on_fence_complete(self.core_id, cycle, grp[3])
            self._coherence_sync(cycle, grp[4], fe.waits)
            self._release_fence_holds(fe)
            progress = True
        return progress

    def _release_fence_holds(self, fence_entry: RobEntry) -> None:
        """A speculative fence completed: its held stores may now drain."""
        for i, grp in enumerate(self._spec_fence_groups):
            if grp[0] is fence_entry:
                for sbe in grp[1]:
                    sbe.held = False
                    self.tracker.store_retired(sbe.fsb_mask)
                del self._spec_fence_groups[i]
                return

    def _coherence_sync(self, cycle: int, kind: str, waits: int) -> None:
        """A fence's ordering condition held: run the backend sync point.

        Invalidation-based backends (mesi) return ``None`` -- sync
        points are architecturally free there, and this path must stay
        byte-identical to the pre-multi-backend core.  SiSd returns a
        :class:`~repro.mem.backend.SyncOutcome`: its self-downgrade
        latency blocks younger dispatch (an LLC write-through round
        trip) and the sync is reported to the monitor stream so the
        ordering checker can audit backend behaviour.
        """
        sync = self.hierarchy.fence(self.core_id, kind, waits, self.stats)
        if sync is None:
            return
        if sync.latency > 0:
            self._blocked_until = max(self._blocked_until, cycle + sync.latency)
        if self.monitor is not None:
            self.monitor.on_coherence_sync(
                self.core_id, cycle, sync.kind, sync.invalidated, sync.downgraded
            )

    def _youngest_open_fence(self) -> RobEntry | None:
        """The most recent speculatively issued, not-yet-complete fence.

        A completing fence's group is removed from the list by
        ``_release_fence_holds``, so every listed fence is still open.
        """
        if self._spec_fence_groups:
            return self._spec_fence_groups[-1][0]
        return None

    # ---------------------------------------------------------------- dispatch
    def _dispatch_one(self, op: Op, cycle: int, dispatched: int) -> bool:
        """Dispatch one op the lanes hand over; False if it must stall.

        Only the rare kinds reach it: CAS, branches, probes and
        speculatively issued fences (in-window speculation).
        """
        cfg = self.config
        stats = self.stats
        tracker = self.tracker
        cls = type(op)

        if cls is Fence:
            # speculatively issued: opens a fence group whose countdown
            # of older in-scope memory ops completes it later
            waits = op.waits
            entry = RobEntry(K_FENCE, cycle)
            entry.waits = waits
            entry.scope_entry = tracker.resolve_fence_scope(op.kind)
            entry.done = False
            entry.seq = self._mem_seq  # ops <= seq are older
            self.rob.push(entry)
            countdown = tracker.pending_for_scope(entry.scope_entry, waits)
            self._next_fence_id += 1
            self._spec_fence_groups.append(
                [entry, [], countdown, self._next_fence_id, op.kind.value]
            )
            if self.monitor is not None:
                self.monitor.on_fence_open(
                    self.core_id, cycle, self._next_fence_id,
                    op.kind.value, waits, entry.scope_entry, entry.seq,
                )
            stats.fences += 1
            if tracker.would_stall_as_global(waits):
                stats.sfence_early_issues += 1
            return True

        if cls is Cas:
            # The paper's substrate is MIPS-like: LL/SC atomics carry no
            # implicit ordering, only per-location coherence order.  With
            # cas_fence=True the CAS behaves like an x86 locked RMW: it
            # waits for all prior memory ops and blocks younger issue.
            if cfg.cas_fence and not tracker.fence_ready(FenceKind.GLOBAL, WAIT_BOTH):
                if dispatched == 0:
                    stats.fence_stall_cycles += 1
                    self.stall_reason = "fence"
                return False
            # a CAS publishes globally at dispatch, so it may never pass a
            # speculatively issued fence: wait until all open fences retire
            if self._youngest_open_fence() is not None:
                if dispatched == 0:
                    stats.fence_stall_cycles += 1
                    self.stall_reason = "fence"
                return False
            # never reorder a CAS with an own buffered store to the same
            # address (per-location order is never relaxed)
            if self.memory.has_pending(self.core_id, op.addr):
                if dispatched == 0:
                    stats.fence_stall_cycles += 1
                    self.stall_reason = "fence"
                return False
            if not self._sc_ready(dispatched):
                return False
            entry = RobEntry(K_CAS, cycle)
            entry.addr = op.addr
            self._mem_seq += 1
            entry.seq = self._mem_seq
            entry.fsb_mask = tracker.dispatch_mem(is_load=False, flagged=op.flagged)
            if self.monitor is not None:
                self.monitor.on_mem_dispatch(
                    self.core_id, cycle, entry.seq, "cas", op.addr,
                    entry.fsb_mask, op.flagged,
                )
            success = self.memory.cas(self.core_id, op.addr, op.expected, op.new)
            done = self.hierarchy.completion_cycle(
                cycle, self.core_id, op.addr, True, stats
            )
            self._schedule(done, _EV_ROB, entry)
            self.rob.push(entry)
            if cfg.cas_fence:
                self._blocking_entry = entry  # later ops wait for the atomic
                # an x86-style locked RMW is a full sync point for the
                # coherence backend too (free under mesi)
                self._coherence_sync(cycle, FenceKind.GLOBAL.value, WAIT_BOTH)
            self._last_result = success
            stats.cas_ops += 1
            return True

        if cls is Branch:
            entry = RobEntry(K_BRANCH, cycle)
            if self.predictor is not None:
                mispredict = self.predictor.update(op.pc, op.taken)
            else:
                mispredict = op.mispredict
            if self.chaos is not None and not mispredict:
                # chaos: forcing a mispredict squashes speculative scope
                # state and restores FSS from FSS' -- always safe, only
                # slower (the guest stream itself is never wrong-path)
                mispredict = self.chaos.force_mispredict(self.core_id, op.pc)
            entry.value = 1 if mispredict else 0
            resolve = cycle + cfg.branch_latency
            tracker.begin_speculation()
            self._schedule(resolve, _EV_ROB, entry)
            self.rob.push(entry)
            if mispredict:
                stats.branch_mispredicts += 1
                self._blocked_until = resolve + cfg.mispredict_penalty
            return True

        if cls is Probe:
            if op.fn is not None:
                op.fn(cycle)
            entry = RobEntry(K_PROBE, cycle)
            entry.done = True
            self.rob.push(entry)
            return True

        raise TypeError(f"unknown guest op {op!r}")

    def _sc_ready(self, dispatched: int) -> bool:
        """Under SC every memory op waits for all prior memory ops."""
        if not self._sc or self.tracker.fsb.all_clear(True, True):
            return True
        if dispatched == 0:
            self.stall_reason = "rob_full"  # implicit-ordering stall, not a fence
        return False

    # ------------------------------------------------------- dispatch lanes
    def _dispatch_lanes(self, cycle: int) -> bool:
        """Dispatch up to ``dispatch_width`` ops; the core's one dispatch path.

        :meth:`tick` calls it under both engines, monitored or not,
        under every memory model.  Loads and stores (plain, set-scope
        flagged and ``serialize``), computes, scope delimiters and
        non-speculative fences run inlined lanes over state hoisted
        into locals; CAS, branches, probes and speculatively issued
        fences go through :meth:`_dispatch_one`.  The lanes emit the monitor events in op
        order behind one hoisted ``mon`` test, and gate loads and stores
        on SC's all-prior-ops-complete rule through one hoisted bool
        (:meth:`_sc_ready`'s check, with the same stall reason).
        """
        # Probe early-outs: almost half of all ticks cannot dispatch at
        # all (dependent-chain block, CAS serialization, drained stream,
        # clogged ROB with the stalled op already pulled, a pending
        # fence whose FSB column is not clear).  Resolve those before
        # the full lane-state hoist below; each charges exactly the
        # stall counters the lane's own check would.
        if cycle < self._blocked_until:
            return False
        be = self._blocking_entry
        if be is not None:
            if be.done:
                self._blocking_entry = None
            else:
                self.stats.fence_stall_cycles += 1
                self.stall_reason = "fence"
                return False
        op = self._pending_op
        if op is None:
            if self._gen_done:
                return False
        elif len(self._rob_q) >= self._rob_cap:
            stats = self.stats
            stats.rob_full_stalls += 1
            head = self._rob_q[0]
            if head.kind == K_FENCE and not head.done:
                # issue is blocked because a waiting fence clogs the ROB
                stats.fence_stall_cycles += 1
                self.stall_reason = "fence"
            else:
                self.stall_reason = "rob_full"
            return False
        elif (op.__class__ is Fence
                and not (self._in_window and op.speculable)
                and not self.tracker.fence_ready(op.kind, op.waits)):
            # non-speculative fence waiting on its FSB column: by far
            # the most common stall probe (fence_ready is pure)
            self.stats.fence_stall_cycles += 1
            self.stall_reason = "fence"
            return False

        (stats, rob_q, sb_q, events, tracker, fsb, pend_loads,
         pend_stores, sb_pend_stores, pend_map, mem_read, resident,
         access, load_timed, sb) = self._hot
        mon = self.monitor
        sc = self._sc
        rob_cap = self._rob_cap
        width = self._width
        mshrs = self._mshrs
        scoped = self._scoped
        at_dispatch = self._at_dispatch
        sb_cap = self._sb_cap
        in_window = self._in_window
        dispatched = 0
        core_id = self.core_id
        # the FSB mask every lane memory op is stamped with, and its set
        # bits, without and with the set-scope bit; constant until a
        # scope delimiter or an op dispatched through _dispatch_one
        # resets it
        mask_entries: tuple | None = None
        flag_entries: tuple = ()
        base_mask = 0
        set_entry = fsb.set_entry
        set_bit = 1 << set_entry

        # _blocked_until and _blocking_entry were resolved by the probe
        # early-outs above; only the compute, serialize-load and fence
        # lanes and _dispatch_one can re-arm them, and those paths
        # re-check or break explicitly, so the loop head does not
        # re-read them every op
        while dispatched < width:
            op = self._pending_op
            if op is None:
                if self._gen_done:
                    break
                try:
                    op = self._gen.send(self._last_result)
                except StopIteration:
                    self._gen_done = True
                    break
                self._last_result = None
                if not isinstance(op, Op):
                    raise TypeError(
                        f"guest thread yielded {op!r}, expected an Op"
                    )
                self._pending_op = op

            if len(rob_q) >= rob_cap:
                if dispatched == 0:
                    stats.rob_full_stalls += 1
                    head = rob_q[0]
                    if head.kind == K_FENCE and not head.done:
                        stats.fence_stall_cycles += 1
                        self.stall_reason = "fence"
                    else:
                        self.stall_reason = "rob_full"
                break

            cls = op.__class__
            if cls is Load or cls is Store:
                if sc and not fsb.all_clear(True, True):
                    # SC: every memory op waits for all prior memory ops
                    # (an implicit-ordering stall, not a fence stall)
                    if dispatched == 0:
                        self.stall_reason = "rob_full"
                    break
                if mask_entries is None:
                    # ScopeTracker.dispatch_mem's mask: every open class
                    # scope, or every class entry in overflow mode
                    if scoped:
                        base_mask = (tracker._all_class_mask
                                     if tracker.overflow_count
                                     else tracker.fss.mask())
                    else:
                        base_mask = 0
                    entries = []
                    m = base_mask
                    while m:
                        low = m & -m
                        entries.append(low.bit_length() - 1)
                        m ^= low
                    mask_entries = tuple(entries)
                    flag_entries = mask_entries + (set_entry,)
                # the set-scope flag only counts when scoped fences are on
                if scoped and op.flagged:
                    mask = base_mask | set_bit
                    bits = flag_entries
                else:
                    mask = base_mask
                    bits = mask_entries
                addr = op.addr
                if cls is Load:
                    # --------------------------------------- load lane
                    fifo = pend_map.get(addr)
                    if fifo is not None:
                        # store-to-load forwarding from the own buffer
                        value = fifo[-1]
                        latency = 1
                        stats.sb_forwards += 1
                        needs_mshr = False
                    elif mshrs == 0 or self._outstanding_misses < mshrs:
                        # MSHR headroom known: residency + latency in one
                        # fused cache walk (the value read is pure, so
                        # its position relative to the timed access is
                        # free)
                        was_res, latency = load_timed(core_id, addr, stats)
                        needs_mshr = bool(mshrs) and not was_res
                        value = mem_read(core_id, addr)
                    else:
                        # a load that will miss the L1 needs a free MSHR
                        needs_mshr = not resident(core_id, addr)
                        if needs_mshr:
                            if dispatched == 0:
                                stats.mshr_stalls += 1
                                self.stall_reason = "mshr"
                            break
                        value = mem_read(core_id, addr)
                        latency = access(core_id, addr, False, stats)
                    entry = RobEntry(K_LOAD, cycle)
                    entry.addr = addr
                    self._mem_seq += 1
                    seq = entry.seq = self._mem_seq
                    entry.fsb_mask = mask
                    fsb.total_loads += 1
                    for e in bits:
                        pend_loads[e] += 1
                    if mon is not None:
                        mon.on_mem_dispatch(core_id, cycle, seq, "load", addr,
                                            mask, op.flagged)
                    if needs_mshr:
                        entry.value = 1  # holds an MSHR until completion
                        self._outstanding_misses += 1
                    self._ev_seq += 1
                    _heappush(events, (cycle + latency,
                                       self._ev_seq, _EV_ROB, entry))
                    rob_q.append(entry)
                    self._last_result = value
                    stats.loads += 1
                    if op.serialize:
                        # address dependency: nothing younger dispatches
                        # until the pointer value is available; the
                        # group ends only if that is after this cycle
                        if cycle + latency > self._blocked_until:
                            self._blocked_until = cycle + latency
                        if cycle < self._blocked_until:
                            self._pending_op = None
                            dispatched += 1
                            stats.instructions += 1
                            break
                else:
                    # -------------------------------------- store lane
                    if at_dispatch and len(sb_q) >= sb_cap:
                        # senior store queue full: issue stalls until a
                        # drain frees it
                        if dispatched == 0:
                            stats.sb_full_stalls += 1
                            self.stall_reason = "sb_full"
                        break
                    entry = RobEntry(K_STORE, cycle)
                    entry.addr = addr
                    self._mem_seq += 1
                    seq = entry.seq = self._mem_seq
                    entry.fsb_mask = mask
                    entry.done = True  # value and address are ready
                    fsb.total_stores += 1
                    for e in bits:
                        pend_stores[e] += 1
                    if mon is not None:
                        mon.on_mem_dispatch(core_id, cycle, seq, "store", addr,
                                            mask, op.flagged)
                    pend_map[addr].append(op.value)  # buffer_store
                    if at_dispatch:
                        # RMO: the store enters the store buffer at
                        # dispatch and its ROB slot retires as a no-op.
                        # Behind a speculatively issued fence it is held
                        # (not globally visible) until the fence
                        # completes: stores are never speculative.
                        entry.in_sb = True
                        sbe = sb.insert(addr, mask)
                        sbe.op_seq = seq
                        groups = self._spec_fence_groups
                        if groups:
                            sbe.held = True
                            groups[-1][1].append(sbe)
                        else:
                            fsb.sb_total_stores += 1
                            for e in bits:
                                sb_pend_stores[e] += 1
                    rob_q.append(entry)
                    stats.stores += 1
            elif cls is Compute:
                # --------------------------------------- compute lane
                latency = op.cycles
                if latency < 1:
                    latency = 1
                entry = RobEntry(K_COMPUTE, cycle)
                self._ev_seq += 1
                _heappush(events, (cycle + latency,
                                   self._ev_seq, _EV_ROB, entry))
                rob_q.append(entry)
                # a dependent ALU chain: issue resumes when it finishes
                self._blocked_until = cycle + latency
                # latency >= 1: the next iteration is guaranteed blocked
                self._pending_op = None
                dispatched += 1
                stats.instructions += 1
                break
            elif cls is Fence and not (in_window and op.speculable):
                # ------------------------------ non-speculative fence lane
                kind = op.kind
                waits = op.waits
                if not tracker.fence_ready(kind, waits):
                    if dispatched == 0:
                        stats.fence_stall_cycles += 1
                        self.stall_reason = "fence"
                    break
                if tracker.would_stall_as_global(waits):
                    stats.sfence_early_issues += 1
                if mon is not None:
                    mon.on_fence_pass(core_id, cycle, kind.value, waits,
                                      tracker.resolve_fence_scope(kind),
                                      self._mem_seq)
                self._coherence_sync(cycle, kind.value, waits)
                entry = RobEntry(K_FENCE, cycle)
                entry.done = True
                rob_q.append(entry)
                stats.fences += 1
                self._pending_op = None
                dispatched += 1
                stats.instructions += 1
                # a backend sync point (SiSd self-downgrade) may have
                # blocked younger dispatch
                if cycle < self._blocked_until:
                    break
                continue
            elif cls is FsStart or cls is FsEnd:
                # ------------------------------ scope delimiter lane
                if cls is FsStart:
                    action = "start"
                    placed = tracker.fs_start(op.cid)
                else:
                    action = "end"
                    placed = tracker.fs_end(op.cid)
                if mon is not None:
                    mon.on_scope(core_id, cycle, action, op.cid, placed)
                entry = RobEntry(K_FS, cycle)
                entry.done = True
                rob_q.append(entry)
                mask_entries = None  # the FSS moved
            else:
                # CAS, branch, probe, speculative fence
                if not self._dispatch_one(op, cycle, dispatched):
                    break
                # rather than reason about each of these ops' side
                # effects (a probe runs a guest callback), recompute
                # the cached mask
                mask_entries = None
                self._pending_op = None
                dispatched += 1
                stats.instructions += 1
                # _dispatch_one may have re-armed the dependent-chain
                # block (mispredict) or installed a blocking entry (CAS)
                if cycle < self._blocked_until:
                    break
                be = self._blocking_entry
                if be is not None:
                    if be.done:
                        self._blocking_entry = None
                    else:
                        break
                continue
            self._pending_op = None
            dispatched += 1
            stats.instructions += 1
        return dispatched > 0
