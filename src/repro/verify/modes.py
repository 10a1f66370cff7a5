"""Fence-mode variants of a litmus test.

The verifier certifies each corpus test not just as written but across
a matrix of fence placements, so every fence implementation path gets
the same exhaustive treatment:

* ``orig``         -- the test exactly as the corpus wrote it (its own
  fence kinds, masks and placements);
* ``none``         -- every fence stripped: the maximally relaxed
  baseline whose allowed set the others must shrink;
* ``full``         -- traditional ``fence`` (WAIT_BOTH, global scope)
  inserted after every memory operation;
* ``sfence-class`` -- ``fence.class`` at the same points: the S-Fence
  class-scope hardware path (ScopeTracker); a litmus program runs
  outside any method, so the FENCE rule's conservative empty-``FSeq``
  interpretation applies and the *allowed set* must equal ``full``;
* ``sfence-set``   -- ``fence.set`` at the same points with **every**
  variable set-scope-flagged: the FSB/mapping-table set-scope path,
  again with an allowed set equal to ``full``.

``full`` / ``sfence-class`` / ``sfence-set`` being reference-equivalent
is the point, not an accident: the three modes drive three different
hardware mechanisms through identical ordering obligations, so a
simulator outcome that leaks past one of them indicts that mechanism
specifically.  Insertion is canonical -- after each store/load, with a
trailing fence (nothing left to order) dropped -- so the matrix is
well-defined even for tests the corpus wrote fence-free.

``delay`` statements survive every rewrite: they are timing-only but
give the simulator sweep its schedule diversity.
"""

from __future__ import annotations

from ..litmus.dsl import LitmusTest, litmus_variables, stmt_kind
from ..sim.config import MEM_BACKENDS

#: the verification matrix, in report order
FENCE_MODES = ("orig", "none", "full", "sfence-class", "sfence-set")

#: coherence-backend axis of the verification matrix (report order).
#: Every fence-mode cell can run on every backend; ``mesi`` is the
#: default and its cells keep their historical ``event`` report key,
#: while other backends report under ``event@<backend>`` columns.  A
#: backend is *sound* when observed stays within the same DPOR/reference
#: allowed sets -- the backend never appears in the allowed-set
#: computation, only in the simulator sweep, because coherence backends
#: are timing-only by contract (repro.mem.backend).
BACKENDS = MEM_BACKENDS

_MODE_FENCE = {
    "none": None,
    "full": "fence",
    "sfence-class": "fence.class",
    "sfence-set": "fence.set",
}


def apply_fence_mode(test: LitmusTest, mode: str) -> LitmusTest:
    """The ``mode`` variant of ``test`` (a fresh :class:`LitmusTest`)."""
    if mode == "orig":
        return test
    if mode not in _MODE_FENCE:
        raise KeyError(f"unknown fence mode {mode!r} (have {FENCE_MODES})")
    fence_stmt = _MODE_FENCE[mode]
    threads: list[list[str]] = []
    for stmts in test.threads:
        rewritten: list[str] = []
        for stmt in stmts:
            kind = stmt_kind(stmt)
            if kind == "fence":
                continue
            rewritten.append(stmt)
            if fence_stmt is not None and kind in ("store", "load"):
                rewritten.append(fence_stmt)
        while rewritten and rewritten[-1] == fence_stmt:
            rewritten.pop()
        threads.append(rewritten)
    flagged = set(test.flagged)
    if mode == "sfence-set":
        flagged |= litmus_variables(test)
    return LitmusTest(test.name, threads, dict(test.init), flagged, test.condition)
