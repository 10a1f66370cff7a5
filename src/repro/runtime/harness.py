"""Tunable-workload harness pieces (Section VI-A).

The paper evaluates the lock-free algorithms with harness programs that
repeatedly (1) access shared data through the lock-free algorithm and
(2) perform computation on private variables whose accesses need not be
ordered by the algorithm's fences.  The *workload level* scales step
(2); Figure 12 sweeps it from 1 (low) to 6 (high).

:class:`PrivateWork` emits step (2) with the structure that produces
the paper's rise-then-fall speedup curve:

* a dependent compute chain (``compute_per_level * level`` cycles),
* ``hot_per_level * level`` stores + ``loads_per_level * level`` loads
  over a per-thread 64 KB working set -- misses the 32 KB L1, hits the
  shared L2, so these drain quickly;
* up to :data:`COLD_CAP` *cold* stores per iteration (``0.5 * level``
  on average), streaming over a large never-reused region -- these are
  the long-latency (300-cycle) accesses a traditional fence in the next
  lock-free operation must wait out while a scoped fence does not.

The cold count saturating at :data:`COLD_CAP` is what bends the curve
down again: past the peak the traditional fence's extra stall stops
growing while the compute term keeps rising, so the relative benefit
shrinks (exactly the paper's explanation of Figure 12).
"""

from __future__ import annotations

from ..isa.instructions import Branch, Compute, Fence, FenceKind, WAIT_BOTH
from .lang import Env, SharedArray


#: synth mode lattice name -> instruction fence kind
MODE_KIND = {
    "full": FenceKind.GLOBAL,
    "sfence-class": FenceKind.CLASS,
    "sfence-set": FenceKind.SET,
}


class FencePlan:
    """A per-slot fence-mode assignment for a guest program.

    The lock-free algorithms and apps name each hand-written fence
    *slot* ("put.publish", "gather", ...).  A plan maps slot names to
    synth lattice modes (``none``/``sfence-set``/``sfence-class``/
    ``full``); slots absent from the map fall back to ``default`` --
    ``"hand"`` keeps the structure's own scope choice, ``"none"``
    elides the fence (the old ``use_fences=False``).  This is how the
    whole-program synthesizer swaps placements into the real guests
    without touching their code.
    """

    def __init__(self, modes: dict[str, str] | None = None,
                 default: str = "hand"):
        self.modes = dict(modes or {})
        self.default = default
        # fence ops are immutable once built (the simulator keys on
        # RobEntry state, never op identity), so each slot's tuple is
        # built once and replayed -- guests call fence() per iteration
        self._fence_memo: dict[tuple, tuple] = {}

    @classmethod
    def hand(cls) -> "FencePlan":
        """Every slot keeps its hand-written mode."""
        return cls({}, default="hand")

    @classmethod
    def none(cls) -> "FencePlan":
        """Every slot elided: the unfenced baseline."""
        return cls({}, default="none")

    def mode(self, slot: str, hand_kind: FenceKind) -> FenceKind | None:
        mode = self.modes.get(slot, self.default)
        if mode == "hand":
            return hand_kind
        if mode == "none":
            return None
        return MODE_KIND[mode]

    def fence(self, slot: str, hand_kind: FenceKind,
              waits: int = WAIT_BOTH, speculable: bool = True):
        """The ops for one slot: ``()`` or a single named fence.

        Call sites splice it with ``yield from``, so an elided slot
        costs nothing and emits nothing.
        """
        key = (slot, hand_kind, waits, speculable)
        ops = self._fence_memo.get(key)
        if ops is None:
            kind = self.mode(slot, hand_kind)
            ops = () if kind is None else (
                Fence(kind=kind, waits=waits, speculable=speculable,
                      name=slot),)
            self._fence_memo[key] = ops
        return ops


#: distinct synthetic branch pcs handed out to PrivateWork instances
_next_branch_pc = [0x100]

#: per-thread hot working set (words): 64 KB -> L1-missing, L2-hitting
HOT_WORDS = 8_192
#: per-thread cold region (words): streamed, never re-used before wrap;
#: eight threads stream 4 MB total >> the 1 MB shared L2
COLD_WORDS = 65_536

#: workload-level scaling
HOT_STORES_PER_LEVEL = 2
LOADS_PER_LEVEL = 1
COMPUTE_PER_LEVEL = 400
#: average cold stores per iteration = COLD_PER_LEVEL * (level - 1), capped:
#: level 1 has (almost) no long-latency private accesses pending at the
#: fence, so both fence flavours stall alike; the cap bends the curve
#: back down once compute dominates
COLD_PER_LEVEL = 1.0
COLD_CAP = 3


class ScratchSpill:
    """Per-thread private spill area with a controlled cold-miss rate.

    The full applications spill intermediate results to private scratch
    memory right before their fences; how often such a spill is a
    long-latency (cold) miss controls how much a *traditional* fence
    stalls on private traffic.  ``cold_every=k`` makes every k-th spill
    stream into never-reused memory (a 300-cycle store) while the rest
    hit a small L1-resident hot buffer.
    """

    def __init__(
        self,
        env: Env,
        tid: int,
        name: str,
        cold_every: int = 3,
        hot_words: int = 64,
        cold_words: int = COLD_WORDS,
    ) -> None:
        if cold_every < 1:
            raise ValueError("cold_every must be >= 1")
        self.cold_every = cold_every
        self.words_per_line = env.config.words_per_line
        self.hot: SharedArray = env.private_array(f"{name}.hotspill", tid, hot_words)
        self.cold: SharedArray = env.private_array(f"{name}.coldspill", tid, cold_words)
        self._count = 0
        self._hot_cursor = 0
        self._cold_cursor = 0

    def store(self, value: int):
        """One spill store op (guest yields the result)."""
        self._count += 1
        if self._count % self.cold_every == 0:
            idx = self._cold_cursor
            self._cold_cursor = (self._cold_cursor + self.words_per_line) % len(self.cold)
            return self.cold.store(idx, value)
        idx = self._hot_cursor
        self._hot_cursor = (self._hot_cursor + 1) % len(self.hot)
        return self.hot.store(idx, value)


class FlaggedExchange:
    """Shared *conflicting* traffic with poor locality (delay-set flagged).

    Both SPLASH-2 applications have genuinely conflicting data beyond
    the headline arrays (barnes: cell/body ownership exchanged between
    threads each step; radiosity: mutable interaction/task structures).
    Those accesses are flagged by delay-set analysis, so even a
    set-scope fence must wait for them -- which is why the paper's
    S-Fence removes only 40-50% of the fence stalls rather than all of
    them (Figure 13).

    Each ``emit`` (rate-limited by ``every``) publishes one record into
    the thread's streaming slot and reads the neighbouring thread's
    slot; the region is sized so these are long-latency misses.
    """

    def __init__(
        self,
        env: Env,
        tid: int,
        n_threads: int,
        array: SharedArray,
        every: int = 2,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.tid = tid
        self.n_threads = n_threads
        self.array = array
        self.every = every
        self.slice_len = len(array) // n_threads
        self._count = 0
        self._cursor = 0

    @staticmethod
    def make_region(env: Env, name: str, n_threads: int, words_per_thread: int = 4096) -> SharedArray:
        """The shared flagged region all threads exchange through."""
        return env.line_array(name, n_threads * words_per_thread, flagged=True)

    def emit(self, token: int = 0):
        """Guest fragment: one flagged store + one flagged load, rate-limited."""
        self._count += 1
        if self._count % self.every:
            return 0
        own = self.tid * self.slice_len + self._cursor
        peer = ((self.tid + 1) % self.n_threads) * self.slice_len + self._cursor
        self._cursor = (self._cursor + 1) % self.slice_len
        yield self.array.store(own, token)
        value = yield self.array.load(peer)
        return value


class PrivateWork:
    """Per-thread private computation with calibrated cache behaviour."""

    def __init__(
        self,
        env: Env,
        tid: int,
        level: int,
        name: str = "priv",
        hot_words: int = HOT_WORDS,
        cold_words: int = COLD_WORDS,
        compute_per_level: int = COMPUTE_PER_LEVEL,
        cold_per_level: float = COLD_PER_LEVEL,
        cold_cap: int = COLD_CAP,
        emit_branches: bool = False,
    ) -> None:
        if level < 0:
            raise ValueError("workload level must be >= 0")
        self.level = level
        self.words_per_line = env.config.words_per_line
        self.hot: SharedArray = env.private_array(f"{name}.hot", tid, hot_words)
        self.cold: SharedArray = env.private_array(f"{name}.cold", tid, cold_words)
        # steady-state residency: the hot set lives in the shared L2
        # (it exceeds the 32 KB L1, so it is *not* warmed into L1)
        env.request_warm(self.hot, tid)
        self._hot_cursor = 0
        self._cold_cursor = 0
        # cold loads stream the other half of the region so they never
        # touch lines the cold stores just wrote
        self._cold_load_cursor = cold_words // 2
        self._cold_budget = 0.0
        self.n_hot_stores = HOT_STORES_PER_LEVEL * level
        self.n_loads = LOADS_PER_LEVEL * level
        self.compute_cycles = compute_per_level * level
        self.cold_rate = min(cold_per_level * max(0, level - 1), float(cold_cap))
        self.emit_branches = emit_branches
        self._branch_pc = _next_branch_pc[0]
        _next_branch_pc[0] += 1
        self._emit_count = 0

    def _hot_index(self) -> int:
        idx = self._hot_cursor
        self._hot_cursor = (self._hot_cursor + self.words_per_line) % len(self.hot)
        return idx

    def _cold_index(self) -> int:
        idx = self._cold_cursor
        self._cold_cursor = (self._cold_cursor + self.words_per_line) % (len(self.cold) // 2)
        return idx

    def _cold_load_index(self) -> int:
        idx = self._cold_load_cursor
        half = len(self.cold) // 2
        self._cold_load_cursor = half + (
            self._cold_load_cursor - half + self.words_per_line
        ) % (len(self.cold) - half)
        return idx

    def emit(self, token: int = 0):
        """Yield one iteration of private work (a guest fragment).

        Ordering matters: loads and compute come first (their latency is
        hidden by the time the next lock-free operation runs), the cold
        stores come *last* so they are still draining when that
        operation's fence executes.
        """
        acc = 0
        for _ in range(self.n_loads):
            acc ^= yield self.hot.load(self._hot_index())
        if self.compute_cycles:
            yield Compute(self.compute_cycles)
        for _ in range(self.n_hot_stores):
            yield self.hot.store(self._hot_index(), token)
        self._cold_budget += self.cold_rate
        while self._cold_budget >= 1.0:
            self._cold_budget -= 1.0
            yield self.cold.store(self._cold_index(), token)
            acc ^= yield self.cold.load(self._cold_load_index())
        if self.emit_branches:
            # the iteration's loop-back branch: taken except every 8th
            # time (loop exit), the classic two-bit-predictor pattern
            self._emit_count += 1
            yield Branch(taken=self._emit_count % 8 != 0, pc=self._branch_pc)
        return acc
