"""Multicore cycle-level simulation loop.

Two execution engines produce byte-identical results (final memory,
stats counters, retire logs, monitor event streams, timelines --
tests/test_fastpath_equivalence.py is the differential suite):

* **Dense reference loop** (``SimConfig.dense_loop=True``): every core
  is ticked on every cycle, in core-index order.  Trivially correct and
  trivially slow at 300-cycle memory latencies; kept as the oracle for
  what the fast path adds -- its scheduling (wake-ups, probe-skip,
  idle replay) -- which the differential suites check (on every offset
  pair ``verify`` sweeps, among others), and as the baseline the perf
  harness times it against.

* **Event-driven fast path** (the default): each core sleeps between
  ticks on which it can make progress.  After a no-progress tick the
  core reports its exact next wake-up cycle (``Core.next_event_cycle``
  -- completion events, store-buffer drains, branch redirect and drain
  holds; see docs/architecture.md §9) and the scheduler jumps it
  straight there, attributing the skipped span to stall accounting
  (``Core.account_idle``, only when that tick bumped a stall counter)
  and to the timeline as an explicit skipped-span marker.  The
  probe-skip hint a progress tick publishes cuts the remaining blocked
  probes; in an unmonitored dependent-chain block it wakes the core
  only for its ROB head (or a chain end or store drain), and the wake
  tick applies the younger entries' completions it passed over.

Both engines run the same per-cycle step (``Core.tick``), so nothing
inside a tick -- completions, retire, store issue, the fused dispatch
lanes -- is checked by engine agreement: the verify oracle, the chaos
ordering checkers (which observe the monitor events) and the committed
goldens and pinned probe digests check it.

Equivalence rests on two invariants, both enforced by tests:

1. *Wake-up soundness*: ticking a stalled core strictly before its
   reported wake-up cycle makes no progress and mutates no observable
   state; inside a probe-skip span a tick may progress only by
   completing entries behind a ROB head that is not done, which
   nothing reads before the wake tick applies them
   (tests/test_fastpath_soundness.py).
2. *Idle-delta replay*: a no-progress tick's stall-counter increments
   are a pure function of core state, so replaying the recorded deltas
   once per skipped cycle reproduces the dense loop's counters exactly.
   ROB occupancy is counted per op at retire, so it needs no replay.

Because skipped ticks touch nothing another core can see, the
interleaving of the ticks that *do* run is the same in both engines
(core-index order at each cycle), which keeps every shared-memory
access -- and therefore every value read, monitor event and chaos RNG
draw -- identical.

A core whose no-progress tick reports no next event can never progress
again, so both engines raise :class:`DeadlockError` on the first such
tick, naming the core.  Each engine meets it at the same (cycle, core):
the core's first stuck tick follows its last progress tick in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heapreplace

from ..cpu.core import Core
from ..isa.program import Program
from ..mem.backend import create_backend
from ..mem.memory import SharedMemory
from .config import SimConfig
from .diagnostics import SimDiagnostic, capture
from .stats import CoreStats, SimStats
from .timeline import core_state


class SimulationFailure(RuntimeError):
    """A run that ended abnormally; carries a :class:`SimDiagnostic`.

    ``diagnostic`` holds per-core post-mortem state (ROB head,
    store-buffer depth, open scopes, mapping table, last retired ops)
    so failures are debuggable without re-running under a debugger.
    """

    def __init__(self, message: str, diagnostic: SimDiagnostic | None = None) -> None:
        if diagnostic is not None:
            message = f"{message}\n{diagnostic.render()}"
        super().__init__(message)
        self.diagnostic = diagnostic


class DeadlockError(SimulationFailure):
    """A core that has not finished can never make progress again."""


class CycleLimitError(SimulationFailure):
    """The run exceeded ``SimConfig.max_cycles``."""


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    stats: SimStats
    memory: SharedMemory
    cycles: int
    #: ``Core.tick`` calls the engine made: a measure of the
    #: scheduler's work, not of the simulated machine, so it stays out
    #: of the stats both engines must agree on
    ticks: int = 0

    @property
    def fence_stall_cycles(self) -> int:
        return self.stats.fence_stall_cycles

    @property
    def fence_stall_fraction(self) -> float:
        return self.stats.fence_stall_fraction


class Simulator:
    """Owns the shared memory, hierarchy and one core per thread."""

    def __init__(
        self,
        config: SimConfig,
        program: Program,
        memory: SharedMemory | None = None,
        timeline=None,
    ) -> None:
        self.config = config
        self.memory = memory if memory is not None else SharedMemory(
            config.mem_size_words, config.n_cores
        )
        if self.memory.n_cores != config.n_cores:
            raise ValueError("shared memory core count does not match config")
        self.hierarchy = create_backend(config)
        self.core_stats = [CoreStats(core_id=c) for c in range(config.n_cores)]
        self.cores = [
            Core(c, config, self.memory, self.hierarchy, stats)
            for c, stats in enumerate(self.core_stats)
        ]
        self._load(program, timeline)

    def reset(self, program: Program, timeline=None) -> None:
        """Make this machine a just-built one that will run ``program``.

        The backend and every core go back to their construction state,
        hooks unhooked, and each core counts into fresh
        :class:`CoreStats`, so the stats of a result an earlier run
        returned never change.  The shared memory object is reused as
        it stands: resetting and initialising it is the caller's
        (:meth:`SharedMemory.reset`), and an earlier result's
        ``memory`` is this same object, so read what a run left there
        before the next one starts.
        """
        self._load(program, timeline)
        self.hierarchy.reset()
        self.core_stats = [CoreStats(core_id=c) for c in range(self.config.n_cores)]
        for core, stats in zip(self.cores, self.core_stats):
            core.reset(stats)

    def _load(self, program: Program, timeline) -> None:
        """Take ``program`` and ``timeline`` for the next run: all that
        construction does past building, since the backend and cores it
        builds start fresh."""
        if program.n_threads > self.config.n_cores:
            raise ValueError(
                f"program has {program.n_threads} threads but config has "
                f"{self.config.n_cores} cores"
            )
        self.program = program
        self.timeline = timeline

    def run(self, max_cycles: int | None = None) -> SimResult:
        """Execute the program to completion; returns statistics."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        gens = self.program.spawn()
        for core, gen in zip(self.cores, gens):
            core.bind(gen)
        for core in self.cores[len(gens):]:
            core.bind(None)
        bound = len(gens)

        if self.config.dense_loop:
            ticks = self._run_dense(limit)
        else:
            ticks = self._run_event(limit, bound)

        stats = SimStats(cores=self.core_stats)
        stats.total_cycles = max((c.finish_cycle for c in self.cores), default=0)
        # cores that idled from cycle 0 (no thread) report zero cycles
        return SimResult(stats=stats, memory=self.memory,
                         cycles=stats.total_cycles, ticks=ticks)

    # ---------------------------------------------------------- dense engine
    def _run_dense(self, limit: int) -> int:
        """Reference loop: tick every core on every cycle.

        The probe-skip hint (``Core._skip_until``) is ignored: the loop
        runs every probe the hint would have replayed as idle.  A
        no-progress tick of an unfinished core with no next event is a
        deadlock, raised before the next core ticks.  Returns the number
        of ticks.
        """
        cores = self.cores
        timeline = self.timeline
        cycle = 0
        while cycle < limit:
            running = 0
            for core in cores:
                if (not core.tick(cycle) and not core.finished
                        and core.next_event_cycle(cycle) is None):
                    self._raise_deadlock(cycle, core.core_id)
                if not core.finished:
                    running += 1
            if timeline is not None:
                timeline.sample(cycle, cores)
            if running == 0:
                return (cycle + 1) * len(cores)
            cycle += 1
        self._close_occupancy(limit)
        raise CycleLimitError(
            f"simulation exceeded {limit} cycles "
            f"({sum(1 for c in cores if not c.finished)} cores still running)",
            diagnostic=capture(cores, limit, "cycle-limit"),
        )

    # ---------------------------------------------------------- event engine
    def _run_event(self, limit: int, bound: int) -> int:
        """Event-driven scheduler: sleep each core until its next event.

        A min-heap of ``(wake_cycle, core_index)`` holds every unfinished
        core; each step takes the earliest entry, ticks that core once
        and puts it back at its next due cycle, so a sleeping core costs
        nothing per skipped cycle (a linear per-cycle scan would cap the
        speedup at roughly the core count).  Heap ties pop in core-index
        order, which is the dense loop's tick order within a cycle.

        After a no-progress tick the core sleeps until
        ``Core.next_event_cycle``; the skipped span's stall accounting
        and timeline skip marker are applied when it goes to sleep.  A
        core with no next event can never progress again (the wake-up
        contract), so its first such tick raises :class:`DeadlockError`
        -- at the same (cycle, core) as the dense loop, which meets it
        after the same last progress tick.  The stall counters of cores
        still asleep at that point already include their whole sleep;
        a failed run's counters are not compared between engines, its
        diagnostic is.

        *Probe-skip*: a progress tick of ``Core.tick`` may prove that
        every tick up to some later cycle is a blocked probe with known
        stall deltas (or, in an unmonitored dependent-chain block, only
        completes entries behind the not-done ROB head, which the wake
        tick applies), and the scheduler replays that span as idle
        instead of ticking it.  Idle replay is skipped when the deltas
        are None: the span bumps no stall counter.  Returns the number
        of ticks.
        """
        cores = self.cores
        timeline = self.timeline
        # pre-bound tick methods: shaves a lookup per tick
        ticks = [c.tick for c in cores]
        heap = [(0, i) for i in range(len(cores)) if not cores[i].finished]
        unfinished = len(heap)
        n_ticks = 0
        while unfinished:
            cycle, i = heap[0]
            if cycle >= limit:
                break
            core = cores[i]
            progressed = ticks[i](cycle)
            n_ticks += 1
            if timeline is not None:
                timeline.sample_core(cycle, core)
            if progressed:
                if core.finished:
                    heappop(heap)
                    unfinished -= 1
                    continue
                nxt = cycle + 1
                # probe-skip hint: every tick in [cycle+1, skip) is a
                # provably blocked probe with known stall deltas (see
                # Core.tick), so replay it as idle instead of ticking
                skip = core._skip_until
                if skip > nxt and skip < limit and timeline is None:
                    if core._idle_deltas is not None:
                        core.account_idle(skip - nxt)
                    nxt = skip
            else:
                nxt = core.next_event_cycle(cycle)
                if nxt is None:
                    self._raise_deadlock(cycle, core.core_id)
                # a wake past the limit is charged only up to it, as the
                # dense loop ticks no further
                if nxt > limit:
                    nxt = limit
                span_end = nxt - 1
                if span_end > cycle:
                    if core._idle_deltas is not None:
                        core.account_idle(span_end - cycle)
                    if timeline is not None:
                        timeline.skip(
                            core.core_id, cycle + 1, span_end, core_state(core),
                        )
            heapreplace(heap, (nxt, i))
        if unfinished:
            self._close_occupancy(limit)
            raise CycleLimitError(
                f"simulation exceeded {limit} cycles "
                f"({unfinished} cores still running)",
                diagnostic=capture(cores, limit, "cycle-limit"),
            )
        # Close the timeline: the dense loop samples every core as
        # "done" through the cycle the last core finishes.
        if timeline is not None:
            end = max((c.finish_cycle for c in cores), default=0)
            for i, core in enumerate(cores):
                start = core.finish_cycle + 1 if i < bound else 0
                timeline.skip(core.core_id, start, end, "done")
        return n_ticks

    def _close_occupancy(self, cycle: int) -> None:
        """Close every core's ROB-occupancy count: the run stopped at
        ``cycle``, every core having ticked (or slept) through
        ``cycle - 1``."""
        for core in self.cores:
            core.close_occupancy(cycle)

    def _raise_deadlock(self, cycle: int, core_id: int) -> None:
        # Bring every other core to where the dense loop stands: cores
        # before the stuck one have ticked ``cycle``, the later ones
        # ``cycle - 1``.  The event engine may have left completions of
        # a head-only wake pending in them; the dense loop applied them.
        for core in self.cores:
            core.settle(cycle if core.core_id <= core_id else cycle - 1)
        self._close_occupancy(cycle)
        raise DeadlockError(
            f"core {core_id} stuck at cycle {cycle}: no event can ever wake it",
            diagnostic=capture(self.cores, cycle, "deadlock", stuck_core=core_id),
        )


def run_program(program: Program, config: SimConfig | None = None, **config_overrides) -> SimResult:
    """Convenience one-shot runner used by examples and tests."""
    cfg = config if config is not None else SimConfig()
    if config_overrides:
        cfg = cfg.with_(**config_overrides)
    return Simulator(cfg, program).run()
