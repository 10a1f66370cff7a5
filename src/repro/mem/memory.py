"""Functional shared memory with relaxed store visibility.

The simulator is *functional-first*: a load binds its value when the
core dispatches it, but a plain store only becomes visible to other
cores when it drains from the simulated store buffer.  This module
implements that split:

* ``SharedMemory.read(core, addr)`` returns the youngest *pending*
  store of the reading core for ``addr`` if one exists (store-to-load
  forwarding), else the globally visible value.
* ``SharedMemory.buffer_store(core, addr, value)`` records a pending
  store at dispatch time.
* ``SharedMemory.drain_store(core, addr)`` is called when the store
  buffer finishes writing the oldest pending store for ``addr``; only
  then does the value become globally visible.
* ``Cas`` bypasses the buffer: ``cas`` reads (with forwarding) and, on
  success, publishes immediately -- atomics act as fences and are
  modelled as draining synchronously at their serialization point.

This gives genuinely relaxed inter-core behaviour: under PSO/RMO drain
order, store-store reordering is architecturally observable (e.g. the
phantom-task bug of the unfenced Chase-Lev deque).
"""

from __future__ import annotations

from collections import defaultdict

#: a word holds a signed 64-bit value
WORD_MIN = -(1 << 63)
WORD_MAX = (1 << 63) - 1


class SharedMemory:
    """Word-addressed functional memory shared by all cores.

    Globally visible memory is sparse: a dict from address to word,
    where an absent word reads as 0.  Construction is O(1) whatever
    ``size_words`` is; ``size_words`` is only the address bound, and an
    address outside ``[0, size_words)`` raises :class:`IndexError` on
    read and on write.
    """

    def __init__(self, size_words: int, n_cores: int) -> None:
        if size_words < 1:
            raise ValueError("size_words must be positive")
        self._mem: dict[int, int] = {}
        self.size_words = size_words
        self.n_cores = n_cores
        # pending[core][addr] -> FIFO list of not-yet-drained values
        self._pending: list[dict[int, list[int]]] = [
            defaultdict(list) for _ in range(n_cores)
        ]
        self.reset()

    def reset(self) -> None:
        """Every word back to 0, every store buffer's values dropped.

        The pending maps are cleared in place: cores alias them
        (:meth:`pending_map`).
        """
        self._mem.clear()
        for pending in self._pending:
            pending.clear()

    # -- functional access ----------------------------------------------------
    def read(self, core: int, addr: int) -> int:
        """Load with store-to-load forwarding from the core's own buffer."""
        pend = self._pending[core].get(addr)
        if pend:
            return pend[-1]
        value = self._mem.get(addr)
        if value is None:
            # only in-range addresses are ever written, so only a miss
            # needs the bounds check
            if not 0 <= addr < self.size_words:
                self._reject(addr, 0)
            return 0
        return value

    def read_global(self, addr: int) -> int:
        """Read the globally visible value (no forwarding); for checkers."""
        value = self._mem.get(addr)
        if value is None:
            if not 0 <= addr < self.size_words:
                self._reject(addr, 0)
            return 0
        return value

    def write_global(self, addr: int, value: int) -> None:
        """Directly set the globally visible value (initialisation)."""
        if not (0 <= addr < self.size_words and WORD_MIN <= value <= WORD_MAX):
            self._reject(addr, value)
        self._mem[addr] = value

    def _reject(self, addr: int, value: int) -> None:
        """Raise for an address outside memory or a value that is not a word."""
        if not 0 <= addr < self.size_words:
            raise IndexError(
                f"address {addr} outside memory [0, {self.size_words})")
        raise OverflowError(f"value {value} does not fit a signed 64-bit word")

    def buffer_store(self, core: int, addr: int, value: int) -> None:
        """Record a store at dispatch; visible only to ``core`` until drain."""
        self._pending[core][addr].append(value)

    def drain_store(self, core: int, addr: int) -> int:
        """Publish the oldest pending store of ``core`` for ``addr``.

        Same-address stores drain in program order (coherence order per
        location), so FIFO-per-address is exact.  Returns the published
        value.
        """
        fifo = self._pending[core][addr]
        if not fifo:
            raise RuntimeError(f"core {core} has no pending store for addr {addr}")
        value = fifo[0]
        if not (0 <= addr < self.size_words and WORD_MIN <= value <= WORD_MAX):
            self._reject(addr, value)
        del fifo[0]
        if not fifo:
            del self._pending[core][addr]
        self._mem[addr] = value
        return value

    def cas(self, core: int, addr: int, expected: int, new: int) -> bool:
        """Atomic compare-and-swap at the global serialization point.

        Any pending stores of *this core* to ``addr`` are force-drained
        first (a real CAS drains the store buffer); other cores'
        buffers are untouched -- their stores simply have not been
        published yet.
        """
        fifo = self._pending[core].get(addr)
        while fifo:
            self.drain_store(core, addr)
            fifo = self._pending[core].get(addr)
        if self.read_global(addr) == expected:
            if not WORD_MIN <= new <= WORD_MAX:
                self._reject(addr, new)
            self._mem[addr] = new
            return True
        return False

    def has_pending(self, core: int, addr: int) -> bool:
        """True if ``core`` has a buffered (undrained) store to ``addr``."""
        return bool(self._pending[core].get(addr))

    def pending_map(self, core: int):
        """``core``'s live pending-store map (addr -> value FIFO).

        A stable dict the fused dispatch path hoists once per call:
        forwarding checks become one ``in`` test and buffered stores
        one ``append``, with exactly :meth:`has_pending` /
        :meth:`buffer_store` semantics.  Callers must not mutate it
        beyond appending through ``buffer_store``'s contract.
        """
        return self._pending[core]

    def pending_count(self, core: int) -> int:
        """Number of buffered (unpublished) stores for ``core``."""
        return sum(len(v) for v in self._pending[core].values())

    def snapshot(self) -> dict[int, int]:
        """Copy of globally visible memory (for end-of-run checkers).

        ``{addr: word}`` for every non-zero word, in address order.
        """
        return {addr: self._mem[addr] for addr in sorted(self._mem)
                if self._mem[addr]}
