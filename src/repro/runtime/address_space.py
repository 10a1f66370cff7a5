"""Guest address space management.

A simple bump allocator over the word-addressed functional memory.
Every named allocation is cache-line aligned by default so unrelated
variables never share a line (the paper's benchmarks would be padded
the same way; false sharing can still be produced on purpose with
``line_aligned=False``).
"""

from __future__ import annotations


class AddressSpace:
    """Bump allocator handing out disjoint word ranges."""

    def __init__(self, size_words: int, words_per_line: int) -> None:
        if size_words < 1 or words_per_line < 1:
            raise ValueError("sizes must be positive")
        self.size_words = size_words
        self.words_per_line = words_per_line
        self._next = words_per_line  # keep address 0 unused (null pointer)
        self._regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, n_words: int, line_aligned: bool = True) -> int:
        """Reserve ``n_words``; returns the base address."""
        if n_words < 1:
            raise ValueError("n_words must be >= 1")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        base = self._next
        if line_aligned:
            wpl = self.words_per_line
            base = (base + wpl - 1) // wpl * wpl
        end = base + n_words
        if end > self.size_words:
            raise MemoryError(
                f"address space exhausted allocating {name!r} "
                f"({end} > {self.size_words} words)"
            )
        self._regions[name] = (base, n_words)
        self._next = end
        return base

    def region(self, name: str) -> tuple[int, int]:
        """(base, length) of a named region."""
        return self._regions[name]

    def regions(self) -> dict[str, tuple[int, int]]:
        return dict(self._regions)

    def owner_of(self, addr: int) -> str | None:
        """Name of the region containing ``addr`` (diagnostics)."""
        for name, (base, length) in self._regions.items():
            if base <= addr < base + length:
                return name
        return None
