"""Self-invalidation/self-downgrade (SiSd) coherence backend.

The rival design to invalidation-based coherence ("Mending Fences with
Self-Invalidation and Self-Downgrade", Abdulla et al.): caches are kept
coherent *only at synchronization points*, by the owning core itself,
with no directory, no invalidation traffic and no cache-to-cache
transfers.  Each core's L1 classifies resident lines as *clean* (read
in) or *dirty* (written by this core); the shared LLC backs everything.

Per ordinary access (:meth:`SiSdHierarchy.access`):

* L1 hit                       -> ``l1_latency`` (a write marks dirty)
* L1 miss, LLC hit             -> ``l2_latency``
* L1 miss, LLC miss            -> ``mem_latency``
* an evicted dirty line writes back into the LLC (lazy downgrade)

No access ever consults or perturbs a peer's L1 -- the structural
"no invalidation traffic" property the property tests pin.

Per fence sync point (:meth:`SiSdHierarchy.fence`), dispatched by the
core once its own ordering condition held:

* release-like (the fence waits on stores, ``WAIT_STORES``):
  **self-downgrade** -- every dirty line writes through to the LLC and
  becomes clean; one LLC round trip (``l2_latency``) covers the burst
  (write-throughs pipeline).
* acquire-like (the fence waits on loads, ``WAIT_LOADS``):
  **self-invalidate** -- every *clean* line is dropped, so the next
  read refetches a possibly-updated copy from the LLC.  Dirty lines
  survive (they are this core's own writes, not stale data);
  invalidation is a local valid-bit flash-clear and costs nothing.
* a full fence (``WAIT_BOTH``) does both, leaving the L1 empty.

The backend is timing-only, like every
:class:`~repro.mem.backend.CoherenceBackend`: values are resolved by
:class:`~repro.mem.memory.SharedMemory` and the store buffers, so SiSd
changes which interleavings a sweep reaches (and what they cost), never
what a load may return.  The verify matrix and the litmus fuzz suite
prove the resulting outcomes stay within the reference allowed sets.
"""

from __future__ import annotations

from ..isa.instructions import WAIT_LOADS, WAIT_STORES
from ..sim.config import SimConfig
from ..sim.stats import CoreStats
from .backend import CoherenceBackend, SyncOutcome
from .cache import Cache


class SiSdHierarchy(CoherenceBackend):
    """Per-core write-back L1s over a shared LLC, synced by SI/SD."""

    name = "sisd"

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        shift = config.line_bytes // config.word_bytes
        self._line_shift = shift.bit_length() - 1 if shift & (shift - 1) == 0 else None
        self._words_per_line = shift
        self.l1 = [
            Cache(config.l1_lines, config.l1_assoc, name=f"sisd-l1.{c}")
            for c in range(config.n_cores)
        ]
        self.llc = Cache(config.l2_lines, config.l2_assoc, name="sisd-llc")
        # latency constants hoisted out of the per-access config chase
        self._l1_lat = config.l1_latency
        self._l2_lat = config.l2_latency
        self._mem_lat = config.mem_latency
        #: per-core dirty-line sets; always a subset of the core's
        #: resident lines (eviction retires the dirty bit via write-back)
        self.dirty: list[set[int]] = [set() for _ in range(config.n_cores)]
        self._reset_own()

    def reset(self) -> None:
        """Empty every cache and dirty set, zero the counters, unhook ``fault``."""
        for cache in self.l1:
            cache.reset()
        self.llc.reset()
        for dirty in self.dirty:
            dirty.clear()
        self._reset_own()

    def _reset_own(self) -> None:
        """The backend's own fields; the caches and dirty sets it builds
        start empty."""
        # same chaos hook contract as the mesi backend: injected latency
        # may only model slower memory, never a functional change
        self.fault = None
        self.counters = {
            "sync_points": 0,
            "self_invalidations": 0,   # clean lines dropped at acquires
            "self_downgrades": 0,      # dirty lines written through at releases
            "eviction_writebacks": 0,  # dirty victims lazily downgraded
        }

    def line_of(self, addr: int) -> int:
        if self._line_shift is not None:
            return addr >> self._line_shift
        return addr // self._words_per_line

    # ------------------------------------------------------------------ access
    def access(self, core: int, addr: int, is_write: bool, stats: CoreStats) -> int:
        """Perform one timed access; returns the latency in cycles."""
        line = self.line_of(addr)
        l1 = self.l1[core]

        if l1.touch(line):
            stats.l1_hits += 1
            latency = self._l1_lat
        else:
            stats.l1_misses += 1
            if self.llc.touch(line):
                stats.l2_hits += 1
                latency = self._l2_lat
            else:
                stats.l2_misses += 1
                latency = self._mem_lat
                self.llc.fill(line)
            self._fill_l1(core, line)
        if is_write:
            self.dirty[core].add(line)

        fault = self.fault
        if fault is not None:
            latency = max(1, fault(core, addr, is_write, latency))
        return latency

    def load_timed(self, core: int, addr: int, stats: CoreStats) -> tuple[bool, int]:
        """``(was_resident_in_l1, latency)`` for one read, in one walk.

        Exactly ``(resident_in_l1(), access())``: the L1 ``touch``
        doubles as the residency probe, and a missed line goes into
        each level with ``fill_absent`` (the touch just proved it
        absent; the LLC fill cannot evict from an L1).
        """
        line = (addr >> self._line_shift if self._line_shift is not None
                else addr // self._words_per_line)
        resident = self.l1[core].touch(line)
        if resident:
            stats.l1_hits += 1
            latency = self._l1_lat
        else:
            stats.l1_misses += 1
            llc = self.llc
            if llc.touch(line):
                stats.l2_hits += 1
                latency = self._l2_lat
            else:
                stats.l2_misses += 1
                latency = self._mem_lat
                llc.fill_absent(line)
            victim = self.l1[core].fill_absent(line)
            dirty = self.dirty[core]
            if victim is not None and victim in dirty:
                # _fill_l1's lazy downgrade
                dirty.discard(victim)
                llc.fill(victim)
                self.counters["eviction_writebacks"] += 1
        fault = self.fault
        if fault is not None:
            latency = max(1, fault(core, addr, False, latency))
        return resident, latency

    def _fill_l1(self, core: int, line: int) -> None:
        victim = self.l1[core].fill(line)
        if victim is not None and victim in self.dirty[core]:
            # lazy downgrade: an evicted dirty line becomes the LLC's copy
            self.dirty[core].discard(victim)
            self.llc.fill(victim)
            self.counters["eviction_writebacks"] += 1

    # ------------------------------------------------------------- sync points
    def fence(self, core: int, kind: str, waits: int, stats: CoreStats):
        """Self-downgrade and/or self-invalidate this core's L1."""
        downgraded = 0
        invalidated = 0
        l1 = self.l1[core]
        dirty = self.dirty[core]

        if waits & WAIT_STORES:
            for line in sorted(dirty):
                self.llc.fill(line)
            downgraded = len(dirty)
            dirty.clear()

        if waits & WAIT_LOADS:
            # the flash-clear: every clean line's valid bit in one pass
            invalidated = l1.invalidate_all_except(dirty)

        if waits & WAIT_STORES and waits & WAIT_LOADS:
            sync_kind = "full"
        elif waits & WAIT_STORES:
            sync_kind = "release"
        elif waits & WAIT_LOADS:
            sync_kind = "acquire"
        else:  # pragma: no cover - fences always wait on something
            return None

        self.counters["sync_points"] += 1
        self.counters["self_downgrades"] += downgraded
        self.counters["self_invalidations"] += invalidated
        # write-throughs pipeline into one LLC round trip; invalidation
        # is a local flash-clear of valid bits and costs nothing
        latency = self._l2_lat if downgraded else 0
        return SyncOutcome(sync_kind, latency, invalidated, downgraded)

    # ---------------------------------------------------------------- warm-up
    def warm(self, core: int, base: int, length: int, into_l1: bool = False) -> None:
        """Pre-load an address range into the caches without charging time."""
        first = self.line_of(base)
        last = self.line_of(base + length - 1)
        for line in range(first, last + 1):
            self.llc.fill(line)
            if into_l1:
                self._fill_l1(core, line)

    # -- introspection helpers (tests) -----------------------------------------
    def resident_in_l1(self, core: int, addr: int) -> bool:
        return self.l1[core].contains(self.line_of(addr))

    def resident_in_l2(self, addr: int) -> bool:
        return self.llc.contains(self.line_of(addr))

    def dirty_lines(self, core: int) -> set[int]:
        """This core's dirty line ids (property-test oracle surface)."""
        return set(self.dirty[core])

    def clean_lines(self, core: int) -> set[int]:
        """This core's resident-but-clean line ids."""
        return self.l1[core].resident_lines() - self.dirty[core]

    def backend_stats(self) -> dict:
        return dict(self.counters)
