"""Two-level MESI-style cache hierarchy latency model (Table III).

The default (``mesi``) :class:`~repro.mem.backend.CoherenceBackend`:
``access`` resolves one memory access to a latency in cycles and
updates cache/coherence state:

* L1 hit (and no coherence upgrade needed)         -> ``l1_latency``
* L1 miss, L2 hit                                  -> ``l2_latency``
* L1 miss, dirty in a peer L1 (cache-to-cache)     -> ``l2 + c2c``
* L2 miss                                          -> ``mem_latency``
* write upgrade (hit but peers share the line)     -> ``l2_latency``

L2 is inclusive of the L1s: an L2 eviction back-invalidates every L1.

Fence sync points are free here (:meth:`MemoryHierarchy.fence` returns
``None``): invalidation-based coherence keeps every cache coherent
continuously, so a fence is purely a core-side ordering matter -- the
property that keeps this backend bit-for-bit identical to the
pre-multi-backend simulator.
"""

from __future__ import annotations

from ..sim.config import SimConfig
from ..sim.stats import CoreStats
from .backend import CoherenceBackend
from .cache import Cache
from .coherence import Directory


class MemoryHierarchy(CoherenceBackend):
    """Private L1s + shared L2 + DRAM, with an MSI-style directory."""

    name = "mesi"

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        shift = config.line_bytes // config.word_bytes
        # words per line is a power of two for all sane configs; fall back
        # to division if not.
        self._line_shift = shift.bit_length() - 1 if shift & (shift - 1) == 0 else None
        self._words_per_line = shift
        self.l1 = [
            Cache(config.l1_lines, config.l1_assoc, name=f"l1.{c}")
            for c in range(config.n_cores)
        ]
        self.l2 = Cache(config.l2_lines, config.l2_assoc, name="l2")
        self.directory = Directory()
        # latency constants hoisted out of the per-access config chase
        self._l1_lat = config.l1_latency
        self._l2_lat = config.l2_latency
        self._c2c_lat = config.cache_to_cache_latency
        self._mem_lat = config.mem_latency
        self._reset_own()

    def reset(self) -> None:
        """Empty every cache and the directory; unhook ``fault``."""
        for cache in self.l1:
            cache.reset()
        self.l2.reset()
        self.directory.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The backend's own fields; the caches it builds start empty."""
        # optional fault-injection hook (chaos harness): called as
        # ``fault(core, addr, is_write, latency) -> latency`` after the
        # architectural latency is resolved.  Injected latency may only
        # model slower memory, never a functional change, so every
        # perturbation keeps the run architecturally valid.
        self.fault = None

    def line_of(self, addr: int) -> int:
        if self._line_shift is not None:
            return addr >> self._line_shift
        return addr // self._words_per_line

    # ------------------------------------------------------------------------
    def access(self, core: int, addr: int, is_write: bool, stats: CoreStats) -> int:
        """Perform one timed access; returns the latency in cycles."""
        latency = self._access(core, addr, is_write, stats)
        fault = self.fault
        if fault is not None:
            latency = max(1, fault(core, addr, is_write, latency))
        return latency

    def completion_cycle(
        self, now: int, core: int, addr: int, is_write: bool, stats: CoreStats
    ) -> int:
        """Perform one timed access; returns the exact completion cycle.

        Part of the event-scheduler wake-up contract (architecture §9):
        the hierarchy resolves each access to an absolute wake-up cycle
        (``now`` + architectural latency + any injected fault latency)
        that the core schedules as a completion event, so memory never
        needs to be polled for readiness.
        """
        return now + self.access(core, addr, is_write, stats)

    def load_timed(self, core: int, addr: int, stats: CoreStats) -> tuple[bool, int]:
        """``(was_resident_in_l1, latency)`` for one read, in one walk.

        Exactly ``(resident_in_l1(), access())``: the L1 ``touch``
        doubles as the residency probe (it reports the pre-access hit
        state and never fills), so the fused load lane's
        resident-then-access pair collapses into a single set lookup.
        """
        line = (addr >> self._line_shift if self._line_shift is not None
                else addr // self._words_per_line)
        if self.l1[core].touch(line):
            stats.l1_hits += 1
            supplier = self.directory.on_read(core, line)
            latency = self._l2_lat if supplier is not None else self._l1_lat
            fault = self.fault
            if fault is not None:
                latency = max(1, fault(core, addr, False, latency))
            return True, latency

        stats.l1_misses += 1
        directory = self.directory
        supplier = directory.on_read(core, line)
        peer_dirty = supplier is not None
        l2 = self.l2
        in_l2 = l2.touch(line)
        if in_l2 or peer_dirty:
            stats.l2_hits += 1
            latency = self._l2_lat + (self._c2c_lat if peer_dirty else 0)
        else:
            stats.l2_misses += 1
            latency = self._mem_lat
        # _fill, with the touch results reused: the L1 insert is for a
        # line that just missed, and the L2 insert is a no-op whenever
        # the touch above already hit (it only refreshed recency)
        victim = self.l1[core].fill_absent(line)
        if victim is not None:
            directory.on_l1_evict(core, victim)
        if not in_l2:
            l2_victim = l2.fill_absent(line)
            if l2_victim is not None and l2_victim != line:
                for c, cache in enumerate(self.l1):
                    if cache.invalidate(l2_victim):
                        directory.on_l1_evict(c, l2_victim)
        fault = self.fault
        if fault is not None:
            latency = max(1, fault(core, addr, False, latency))
        return False, latency

    def fence(self, core: int, kind: str, waits: int, stats: CoreStats) -> None:
        """Sync points are free under invalidation-based coherence.

        Returning ``None`` (not a zero-cost :class:`~repro.mem.backend.
        SyncOutcome`) tells the core to emit no monitor event and charge
        nothing, so the mesi path stays byte-identical to the simulator
        before the backend interface existed.
        """
        return None

    def _access(self, core: int, addr: int, is_write: bool, stats: CoreStats) -> int:
        cfg = self.config
        line = self.line_of(addr)
        l1 = self.l1[core]

        if l1.touch(line):
            stats.l1_hits += 1
            if not is_write:
                # a hit read may still need a downgrade if a peer holds it
                # dirty; the directory makes that impossible (dirty implies
                # exclusive), so a resident read is always a plain hit.
                supplier = self.directory.on_read(core, line)
                if supplier is not None:
                    # stale presence (peer wrote since): treat as upgrade read
                    return cfg.l2_latency
                return cfg.l1_latency
            victims = self.directory.on_write(core, line)
            if victims:
                self._invalidate_l1s(victims, line)
                return cfg.l2_latency  # upgrade round-trip
            return cfg.l1_latency

        # L1 miss
        stats.l1_misses += 1
        if is_write:
            victims = self.directory.on_write(core, line)
            self._invalidate_l1s(victims, line)
            peer_dirty = bool(victims)
        else:
            supplier = self.directory.on_read(core, line)
            peer_dirty = supplier is not None

        if self.l2.touch(line):
            stats.l2_hits += 1
            latency = cfg.l2_latency + (cfg.cache_to_cache_latency if peer_dirty else 0)
        elif peer_dirty:
            # line lives dirty in a peer L1 but fell out of L2 (rare with an
            # inclusive L2; possible transiently) -- cache-to-cache transfer.
            stats.l2_hits += 1
            latency = cfg.l2_latency + cfg.cache_to_cache_latency
        else:
            stats.l2_misses += 1
            latency = cfg.mem_latency

        self._fill(core, line)
        return latency

    # ------------------------------------------------------------------------
    def _fill(self, core: int, line: int) -> None:
        l1 = self.l1[core]
        victim = l1.fill(line)
        if victim is not None:
            self.directory.on_l1_evict(core, victim)
        l2_victim = self.l2.fill(line)
        if l2_victim is not None and l2_victim != line:
            # inclusive L2: back-invalidate all L1 copies of the victim
            for c, cache in enumerate(self.l1):
                if cache.invalidate(l2_victim):
                    self.directory.on_l1_evict(c, l2_victim)

    def _invalidate_l1s(self, cores, line: int) -> None:
        for c in cores:
            if self.l1[c].invalidate(line):
                self.directory.on_l1_evict(c, line)

    # -- warm-up ------------------------------------------------------------------
    def warm(self, core: int, base: int, length: int, into_l1: bool = False) -> None:
        """Pre-load an address range into the caches without charging time.

        Models the warm-up phase a cycle-accurate simulator runs before
        measurement: the range is installed in the shared L2 (and
        optionally the core's L1) in read state.
        """
        first = self.line_of(base)
        last = self.line_of(base + length - 1)
        for line in range(first, last + 1):
            l2_victim = self.l2.fill(line)
            if l2_victim is not None and l2_victim != line:
                for c, cache in enumerate(self.l1):
                    if cache.invalidate(l2_victim):
                        self.directory.on_l1_evict(c, l2_victim)
            if into_l1:
                victim = self.l1[core].fill(line)
                if victim is not None:
                    self.directory.on_l1_evict(core, victim)
                self.directory.on_read(core, line)

    # -- introspection helpers (tests) -----------------------------------------
    def resident_in_l1(self, core: int, addr: int) -> bool:
        return self.l1[core].contains(self.line_of(addr))

    def resident_in_l2(self, addr: int) -> bool:
        return self.l2.contains(self.line_of(addr))

    def backend_stats(self) -> dict:
        """MESI keeps no per-sync counters; per-access ones live in CoreStats."""
        return {}
