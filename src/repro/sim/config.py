"""Simulation configuration.

Defaults reproduce Table III of the paper:

=============  =======================================
Processor      8 core CMP, out-of-order
ROB size       128
L1 Cache       private 32 KB, 4 way, 2-cycle latency
L2 Cache       shared 1 MB, 8 way, 10-cycle latency
Memory         300-cycle latency
FSB entries    4
FSS entries    4
=============  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


#: coherence backends the simulator can run on (see repro.mem.backend).
#: ``mesi`` is the default invalidation-based hierarchy the paper
#: assumes; ``sisd`` is the self-invalidation/self-downgrade rival
#: design (Abdulla et al., "Mending Fences with Self-Invalidation and
#: Self-Downgrade").
MEM_BACKENDS = ("mesi", "sisd")


class MemoryModel(enum.Enum):
    """Supported relaxed consistency models.

    The paper evaluates under RMO (Section III, "Memory consistency
    models"); the other models exist for litmus tests and the A3
    ablation.  The model controls (a) the store-buffer drain policy and
    (b) implicit ordering at dispatch:

    * ``SC``  -- every memory op waits for all prior memory ops.
    * ``TSO`` -- store buffer drains strictly in FIFO order; loads may
      bypass buffered stores (with forwarding).
    * ``PSO`` -- stores may drain out of order (same-address FIFO).
    * ``RMO`` -- like PSO plus no implicit load ordering in the timing
      model (multiple loads outstanding).
    """

    SC = "sc"
    TSO = "tso"
    PSO = "pso"
    RMO = "rmo"

    @property
    def sb_fifo(self) -> bool:
        """Whether the store buffer must drain in FIFO order."""
        return self in (MemoryModel.SC, MemoryModel.TSO)

    @property
    def sb_at_dispatch(self) -> bool:
        """Whether stores enter the store buffer at dispatch.

        The paper's core retires stores "to the store buffer as soon as
        the value and destination address are available" -- a senior
        store queue.  Draining a younger store before an older load
        completes reorders load->store, which only RMO permits; the
        other models insert at in-order retirement.
        """
        return self is MemoryModel.RMO


@dataclass(frozen=True)
class SimConfig:
    """All architectural and behavioural knobs of the simulator."""

    # --- Table III defaults -------------------------------------------------
    n_cores: int = 8
    rob_size: int = 128
    l1_kb: int = 32
    l1_assoc: int = 4
    l1_latency: int = 2
    l2_kb: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 10
    mem_latency: int = 300
    fsb_entries: int = 4
    fss_entries: int = 4

    # --- Additional microarchitectural parameters ---------------------------
    sb_size: int = 8              # store buffer entries (Section VI-E uses 8)
    dispatch_width: int = 4
    retire_width: int = 4
    # outstanding load misses per core (miss-status holding registers);
    # 0 disables the limit.  Bounds memory-level parallelism.
    mshrs: int = 16
    mapping_entries: int = 4      # cid -> FSB-entry mapping table capacity
    line_bytes: int = 64
    word_bytes: int = 8
    branch_latency: int = 2       # cycles to resolve a branch
    mispredict_penalty: int = 12  # flush/refetch penalty on misprediction
    cache_to_cache_latency: int = 10  # dirty line supplied by a peer L1

    # --- Behavioural switches ------------------------------------------------
    # coherence backend the hierarchy factory instantiates (MEM_BACKENDS):
    # the timing side of every memory access and fence sync point.
    # Functional values always come from SharedMemory + store buffers,
    # so the backend choice changes timing (and therefore which relaxed
    # interleavings a sweep reaches), never what a program may compute.
    mem_backend: str = "mesi"
    memory_model: MemoryModel = MemoryModel.RMO
    scoped_fences: bool = True    # False: every S-Fence degrades to GLOBAL
    in_window_speculation: bool = False  # Gharachorloo-style speculation
    # MIPS-style LL/SC atomics carry no implicit ordering (the paper's
    # SESC/MIPS substrate); set cas_fence=True for x86-style atomics that
    # behave as full fences (ablation A2).
    cas_fence: bool = False
    # predict Branch ops with a per-core two-bit predictor (indexed by
    # Branch.pc) instead of trusting the guest-stamped mispredict flag
    use_branch_predictor: bool = False
    predictor_entries: int = 512
    seed: int = 12345

    # keep the last N retired ops per core in a ring buffer for failure
    # diagnostics (0 disables; the chaos harness enables it)
    retire_log_len: int = 0

    # --- Execution engine ----------------------------------------------------
    # Run the reference per-cycle loop that ticks every core on every
    # cycle instead of the event-driven scheduler.  Both engines produce
    # byte-identical results (cycles, stats, retire logs, monitor event
    # streams -- see tests/test_fastpath_equivalence.py); the dense loop
    # exists as an escape hatch (``--dense-loop`` on every CLI command)
    # and as the baseline the perf harness times the fast path against.
    dense_loop: bool = False

    # --- Limits ---------------------------------------------------------------
    mem_size_words: int = 1 << 22  # address bound of the functional memory, in words
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.rob_size < 2:
            raise ValueError("rob_size must be >= 2")
        if self.sb_size < 1:
            raise ValueError("sb_size must be >= 1")
        if self.fsb_entries < 2:
            raise ValueError("fsb_entries must be >= 2 (one is reserved for set scope)")
        if self.line_bytes % self.word_bytes != 0:
            raise ValueError("line_bytes must be a multiple of word_bytes")
        if self.mem_backend not in MEM_BACKENDS:
            raise ValueError(
                f"unknown mem_backend {self.mem_backend!r} (have {MEM_BACKENDS})"
            )
        for name in ("l1_kb", "l1_assoc", "l2_kb", "l2_assoc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    # Convenience derived values ------------------------------------------------
    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    @property
    def l1_lines(self) -> int:
        return self.l1_kb * 1024 // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_kb * 1024 // self.line_bytes

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)


#: The exact configuration of Table III.
TABLE_III = SimConfig()
