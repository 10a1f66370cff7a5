"""The formal coherence-backend interface and its factory.

The simulator is multi-backend: every timing question about the memory
system goes through one :class:`CoherenceBackend` instance, selected by
``SimConfig.mem_backend`` and constructed by :func:`create_backend`.
Two backends exist today:

* ``mesi`` -- :class:`repro.mem.hierarchy.MemoryHierarchy`: private L1s
  + inclusive shared L2 with an MSI-style directory (invalidation-based
  coherence, cache-to-cache transfers).  Fence sync points are a no-op
  (``fence`` returns ``None``): an invalidation protocol keeps caches
  coherent continuously, so a fence is purely a core-side ordering
  matter.
* ``sisd`` -- :class:`repro.mem.sisd.SiSdHierarchy`: self-invalidation/
  self-downgrade coherence (Abdulla et al.).  No directory, no
  invalidation traffic, no cache-to-cache transfers; instead each core
  *self-invalidates* its clean lines at acquire-like sync points and
  *self-downgrades* (writes through) its dirty lines at release-like
  points.  ``fence`` performs that sync and returns a
  :class:`SyncOutcome` the core turns into dispatch-blocking latency
  and an ``on_coherence_sync`` monitor event.

The contract both sides honour:

* **Cores and runtimes call only the members named in**
  :data:`BACKEND_INTERFACE`.  ``tests/test_backend_interface.py``
  greps the source tree for ``hierarchy.<attr>`` call sites and fails
  on anything outside this surface, so neither backend's internals can
  leak back into the core model.
* **Backends are timing-only.**  Functional values live in
  :class:`~repro.mem.memory.SharedMemory` and the store buffers; a
  backend resolves latencies and sync outcomes, never data.  That is
  what makes a new backend *sound by construction* -- it can change
  which interleavings a sweep reaches, not what a load may return --
  and the verify/fuzz batteries then prove the claim empirically
  (observed outcomes stay within the reference allowed sets).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import MEM_BACKENDS, SimConfig
from ..sim.stats import CoreStats

#: the complete public surface of a coherence backend: the only
#: attributes code outside ``repro.mem`` may touch on ``sim.hierarchy``
#: (enforced by tests/test_backend_interface.py's call-site scan)
BACKEND_INTERFACE = (
    "name",
    "config",
    "fault",
    "access",
    "load_timed",
    "completion_cycle",
    "fence",
    "warm",
    "reset",
    "line_of",
    "resident_in_l1",
    "resident_in_l2",
    "backend_stats",
)


@dataclass(frozen=True)
class SyncOutcome:
    """What one fence sync point did inside the backend.

    Returned by :meth:`CoherenceBackend.fence` when the backend has
    per-sync-point work (SiSd); ``None`` from a backend means the sync
    point is architecturally free (MESI) and the core must emit no
    event and charge no latency -- which is exactly what keeps the
    default backend byte-identical to the pre-refactor hierarchy.
    """

    kind: str         # "acquire" / "release" / "full"
    latency: int      # extra cycles the core blocks dispatch for
    invalidated: int  # clean lines dropped (self-invalidation)
    downgraded: int   # dirty lines written through (self-downgrade)


class CoherenceBackend:
    """Abstract timing model of the memory system below the cores.

    Subclasses implement every method; ``fault`` is a plain attribute
    (the chaos harness installs a latency-perturbation hook there) and
    ``name`` identifies the backend in reports and cache keys.
    """

    #: backend identifier, one of :data:`repro.sim.config.MEM_BACKENDS`
    name = "abstract"

    config: SimConfig
    #: optional chaos hook ``fault(core, addr, is_write, latency) -> latency``
    fault = None

    def access(self, core: int, addr: int, is_write: bool, stats: CoreStats) -> int:
        """Perform one timed access; returns the latency in cycles."""
        raise NotImplementedError

    def load_timed(self, core: int, addr: int, stats: CoreStats) -> tuple[bool, int]:
        """One timed read access as ``(was_resident_in_l1, latency)``.

        Semantically ``(resident_in_l1(core, addr), access(core, addr,
        False, stats))`` -- residency sampled before the access runs
        (the MSHR allocation test), then the access performed.  Backends
        may override it to resolve both in a single cache walk; the
        event engine's fused load lane issues this instead of the
        two-call sequence whenever an MSHR is known to be available.
        """
        return self.resident_in_l1(core, addr), self.access(core, addr, False, stats)

    def completion_cycle(
        self, now: int, core: int, addr: int, is_write: bool, stats: CoreStats
    ) -> int:
        """Perform one timed access; returns the exact completion cycle.

        Part of the event-scheduler wake-up contract (architecture §9):
        the backend resolves each access to an absolute wake-up cycle
        (``now`` + architectural latency + any injected fault latency)
        that the core schedules as a completion event.
        """
        return now + self.access(core, addr, is_write, stats)

    def fence(self, core: int, kind: str, waits: int, stats: CoreStats):
        """One fence sync point passed on ``core``.

        ``kind`` is the fence's :class:`~repro.isa.instructions.FenceKind`
        value string, ``waits`` its WAIT_LOADS/WAIT_STORES mask.  Returns
        a :class:`SyncOutcome` when the backend did per-sync work the
        core must account (latency, monitor event), or ``None`` when the
        sync point is free.  Called *after* the core's own ordering
        condition held -- the backend never decides whether a fence may
        pass, only what passing costs.
        """
        raise NotImplementedError

    def warm(self, core: int, base: int, length: int, into_l1: bool = False) -> None:
        """Pre-load an address range into the caches without charging time."""
        raise NotImplementedError

    def reset(self) -> None:
        """Back to the just-built state: empty caches, zero counters and
        no ``fault`` hook.  The backend's own fields are set by one
        method that both ``__init__`` and ``reset`` end with, so the two
        agree, and the caches ``__init__`` builds are not reset twice."""
        raise NotImplementedError

    def line_of(self, addr: int) -> int:
        """The cache line index holding ``addr``."""
        raise NotImplementedError

    def resident_in_l1(self, core: int, addr: int) -> bool:
        """Whether ``addr`` currently hits in ``core``'s L1 (MSHR check)."""
        raise NotImplementedError

    def resident_in_l2(self, addr: int) -> bool:
        """Whether ``addr`` currently hits in the shared level."""
        raise NotImplementedError

    def backend_stats(self) -> dict:
        """Backend-specific counters (JSON-safe; may be empty)."""
        return {}


def create_backend(config: SimConfig) -> CoherenceBackend:
    """The backend instance ``config.mem_backend`` names.

    The single construction point every :class:`~repro.sim.simulator.
    Simulator` uses; backends are resolved lazily so importing one
    never drags in the other's module.
    """
    name = config.mem_backend
    if name == "mesi":
        from .hierarchy import MemoryHierarchy

        return MemoryHierarchy(config)
    if name == "sisd":
        from .sisd import SiSdHierarchy

        return SiSdHierarchy(config)
    raise KeyError(f"unknown mem_backend {name!r} (have {MEM_BACKENDS})")
