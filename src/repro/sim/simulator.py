"""Multicore cycle-level simulation loop.

Two execution engines produce byte-identical results (final memory,
stats counters, retire logs, monitor event streams, timelines --
tests/test_fastpath_equivalence.py is the differential suite):

* **Dense reference loop** (``SimConfig.dense_loop=True``): every core
  is ticked on every cycle, in core-index order.  Trivially correct and
  trivially slow at 300-cycle memory latencies; kept as the oracle for
  what the fast path adds -- its scheduling (wake-ups, probe-skip,
  chaining, idle replay) -- which the differential suites check (on
  every offset pair ``verify`` sweeps, among others), and as the
  baseline the perf harness times it against.

* **Event-driven fast path** (the default): each core sleeps between
  ticks on which it can make progress.  After a no-progress tick the
  core reports its exact next wake-up cycle (``Core.next_event_cycle``
  -- completion events, store-buffer drains, branch redirect and drain
  holds; see docs/architecture.md §9) and the scheduler jumps it
  straight there, attributing the skipped span to stall accounting
  (``Core.account_idle``) and to the timeline as an explicit
  skipped-span marker.  The probe-skip hint a progress tick publishes
  and same-core chaining cut the remaining blocked probes and heap
  round trips.

Both engines run the same per-cycle step (``Core.tick``), so nothing
inside a tick -- completions, retire, store issue, the fused dispatch
lanes -- is checked by engine agreement: the verify oracle, the chaos
ordering checkers (which observe the monitor events) and the committed
goldens and pinned probe digests check it.

Equivalence rests on two invariants, both enforced by tests:

1. *Wake-up soundness*: ticking a stalled core strictly before its
   reported wake-up cycle makes no progress and mutates no observable
   state (tests/test_fastpath_soundness.py).
2. *Idle-delta replay*: a no-progress tick's stall-counter increments
   are a pure function of core state, so replaying the recorded deltas
   once per skipped cycle reproduces the dense loop's counters exactly.

Because skipped ticks are side-effect free, the interleaving of the
ticks that *do* run is the same in both engines (core-index order at
each cycle), which keeps every shared-memory access -- and therefore
every value read, monitor event and chaos RNG draw -- identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

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
    """No core can ever make progress again."""


class CycleLimitError(SimulationFailure):
    """The run exceeded ``SimConfig.max_cycles``."""


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    stats: SimStats
    memory: SharedMemory
    cycles: int

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
        self.cores = [
            Core(c, config, self.memory, self.hierarchy, CoreStats(core_id=c))
            for c in range(config.n_cores)
        ]
        self.reset(program, timeline)

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
        if program.n_threads > self.config.n_cores:
            raise ValueError(
                f"program has {program.n_threads} threads but config has "
                f"{self.config.n_cores} cores"
            )
        self.program = program
        self.timeline = timeline
        self.hierarchy.reset()
        self.core_stats = [CoreStats(core_id=c) for c in range(self.config.n_cores)]
        for core, stats in zip(self.cores, self.core_stats):
            core.reset(stats)

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
            self._run_dense(limit)
        else:
            self._run_event(limit, bound)

        stats = SimStats(cores=self.core_stats)
        stats.total_cycles = max((c.finish_cycle for c in self.cores), default=0)
        # cores that idled from cycle 0 (no thread) report zero cycles
        return SimResult(stats=stats, memory=self.memory, cycles=stats.total_cycles)

    # ---------------------------------------------------------- dense engine
    def _run_dense(self, limit: int) -> None:
        """Reference loop: tick every core on every cycle.

        The probe-skip hint (``Core._skip_until``) is ignored: the loop
        runs every probe the hint would have replayed as idle.
        """
        cores = self.cores
        timeline = self.timeline
        cycle = 0
        while cycle < limit:
            progress = False
            running = 0
            for core in cores:
                if core.tick(cycle):
                    progress = True
                if not core.finished:
                    running += 1
            if timeline is not None:
                timeline.sample(cycle, cores)
            if running == 0:
                return
            if not progress and not any(
                core.next_event_cycle(cycle) is not None
                for core in cores
                if not core.finished
            ):
                self._raise_deadlock(cycle)
            cycle += 1
        raise CycleLimitError(
            f"simulation exceeded {limit} cycles "
            f"({sum(1 for c in cores if not c.finished)} cores still running)",
            diagnostic=capture(cores, limit, "cycle-limit"),
        )

    # ---------------------------------------------------------- event engine
    def _run_event(self, limit: int, bound: int) -> None:
        """Event-driven scheduler: sleep each core until its next event.

        A min-heap of ``(wake_cycle, core_index)`` holds every sleeping
        core; each scheduler round pops the cores due at the earliest
        pending cycle and ticks only those, so a sleeping core costs
        nothing per skipped cycle (a linear per-cycle scan would cap the
        speedup at roughly the core count).  Heap ties pop in core-index
        order, matching the dense loop's tick order within a cycle.

        ``wake[i]`` mirrors the heap; ``INF`` marks a stuck core (no
        future event -- it can never progress again, by the wake-up
        soundness contract), which leaves the heap entirely.  Stall
        accounting and timeline skip markers for a sleeping span are
        applied eagerly when the core goes to sleep; stuck cores are
        accounted lazily at deadlock/cycle-limit time, since only then
        is the span known.

        Two shortcuts go beyond waking cores on their events.
        *Probe-skip*: a progress tick of ``Core.tick`` may prove
        that every tick up to some later cycle is a blocked probe with
        known stall deltas, and the scheduler replays that span as
        idle.  *Same-core chaining*: when the core just ticked is due
        again strictly before every sleeping core, it keeps running
        without a heap round trip.  Chaining only fires when the next
        due cycle is *strictly* earlier than the heap top, so heap ties
        still pop in core-index order and the global tick interleaving
        -- and with it every observable -- is untouched.
        """
        cores = self.cores
        timeline = self.timeline
        n = len(cores)
        INF = limit + 1
        wake = [0] * n
        last_tick = [0] * n
        # pre-bound tick methods: shaves a lookup per tick
        ticks = [c.tick for c in cores]
        heap = [(0, i) for i in range(n) if not cores[i].finished]
        unfinished = len(heap)
        while heap and unfinished:
            cycle = heap[0][0]
            if cycle >= limit:
                break
            progress = False
            while heap and heap[0][0] == cycle:
                i = heappop(heap)[1]
                core = cores[i]
                tick = ticks[i]
                while True:
                    if tick(cycle):
                        progress = True
                        if timeline is not None:
                            timeline.sample_core(cycle, core)
                        if core.finished:
                            unfinished -= 1
                            break
                        nxt = cycle + 1
                        # probe-skip hint: every tick in [cycle+1, skip)
                        # is a provably blocked probe with known stall
                        # deltas (see Core.tick), so replay it as idle
                        # instead of ticking
                        skip = core._skip_until
                        if skip > nxt and skip < limit and timeline is None:
                            core.account_idle(skip - nxt)
                            nxt = skip
                    else:
                        if timeline is not None:
                            timeline.sample_core(cycle, core)
                        last_tick[i] = cycle
                        ev = core.next_event_cycle(cycle)
                        if ev is None:
                            wake[i] = INF  # stuck: no event can ever wake it
                            break
                        # clamp to the limit so INF stays reserved for
                        # stuck cores; a wake at `limit` simply drives
                        # the loop to its cycle-limit exit
                        ev = min(ev, limit)
                        span_end = ev - 1
                        if span_end > cycle:
                            core.account_idle(span_end - cycle)
                            if timeline is not None:
                                timeline.skip(
                                    core.core_id, cycle + 1, span_end,
                                    core_state(core),
                                )
                        nxt = ev
                    if nxt < limit and (
                        not heap
                        or heap[0][0] > nxt
                        or (heap[0][0] == nxt and heap[0][1] > i)
                    ):
                        # same-core chain: no other core is due before
                        # this one -- either strictly earlier than the
                        # heap top, or tied with it at a lower core
                        # index (dense ticks ties in index order, and
                        # the remaining tied cores pop right after this
                        # chain ends because `cycle` advances with it)
                        cycle = nxt
                        progress = False
                        continue
                    wake[i] = nxt
                    heappush(heap, (nxt, i))
                    break
            if unfinished and not heap:
                # Every unfinished core is stuck.  The dense loop would
                # detect this at its first all-no-progress cycle: this
                # one if nothing progressed, otherwise the next (after
                # one more round of no-progress ticks, which the settle
                # below replays).  Charge stuck cores the cycles dense
                # would have ticked them since they stalled.
                deadlock_at = cycle if not progress else cycle + 1
                if deadlock_at < limit:
                    self._settle_stuck(deadlock_at, wake, last_tick, INF)
                    self._raise_deadlock(deadlock_at)
                break  # proven stuck at the limit boundary: cycle-limit
        if unfinished:
            self._settle_stuck(limit - 1, wake, last_tick, INF)
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

    def _settle_stuck(self, upto: int, wake, last_tick, INF: int) -> None:
        """Account idle cycles for stuck cores through cycle ``upto``."""
        timeline = self.timeline
        for i, core in enumerate(self.cores):
            if core.finished or wake[i] < INF:
                continue
            span = upto - last_tick[i]
            if span > 0:
                core.account_idle(span)
                if timeline is not None:
                    timeline.skip(
                        core.core_id, last_tick[i] + 1, upto, core_state(core)
                    )

    def _raise_deadlock(self, cycle: int) -> None:
        raise DeadlockError(
            f"no progress possible at cycle {cycle}",
            diagnostic=capture(self.cores, cycle, "deadlock"),
        )


def run_program(program: Program, config: SimConfig | None = None, **config_overrides) -> SimResult:
    """Convenience one-shot runner used by examples and tests."""
    cfg = config if config is not None else SimConfig()
    if config_overrides:
        cfg = cfg.with_(**config_overrides)
    return Simulator(cfg, program).run()
