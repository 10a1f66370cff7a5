"""Executable operational semantics of class scope (Figure 5).

The paper defines class scope with four inference rules over the state
``<FSeq x Scope x pc>``:

* ``SCOPEENT``: ``enter_md f``  pushes ``f`` onto ``FSeq``.
* ``SCOPEEX``:  ``exit_md f``   pops ``f`` from ``FSeq``.
* ``MEMOP``:    a memory op ``mop`` is added to ``Scope(C(f))`` for
  every distinct method ``f`` in ``FSeq``.
* ``FENCE``:    a fence may complete only when ``Scope(C(f))`` is empty
  for the class of the innermost method.

This module implements those rules directly, as an *oracle*: property
tests drive random instruction streams through both this abstract
machine and the hardware :class:`~repro.core.scope_tracker.ScopeTracker`
and check that the hardware never lets a fence proceed while the
abstract scope still has pending ops (hardware is allowed to be
stricter -- entry sharing and overflow only add ordering).

Here a "method" is identified by its class id (cid): the semantics only
ever uses ``C(f)``, so tracking cids directly loses nothing.
"""

from __future__ import annotations

import itertools
from collections import Counter


class AbstractScopeMachine:
    """Direct implementation of the Figure 5 rules for one processor."""

    def __init__(self) -> None:
        self.fseq: list[int] = []          # nested method invocations (cids)
        self.scope: dict[int, set[int]] = {}  # cid -> pending mem-op ids
        self._next_op_id = 0
        self._op_scopes: dict[int, set[int]] = {}  # op id -> cids it was added to

    # -- rules -------------------------------------------------------------------
    def enter_method(self, cid: int) -> None:
        """[SCOPEENT] stmt(pc) = enter_md f."""
        self.fseq.append(cid)

    def exit_method(self, cid: int) -> None:
        """[SCOPEEX] stmt(pc) = exit_md f; requires FSeq = s . f."""
        if not self.fseq or self.fseq[-1] != cid:
            raise ValueError(f"exit_method({cid}) does not match FSeq {self.fseq}")
        self.fseq.pop()

    def mem_op(self) -> int:
        """[MEMOP] add a new memory op to every scope in [[FSeq]].

        Returns the op id used later by :meth:`complete`.
        """
        op_id = self._next_op_id
        self._next_op_id += 1
        cids = set(self.fseq)
        self._op_scopes[op_id] = cids
        for cid in cids:
            self.scope.setdefault(cid, set()).add(op_id)
        return op_id

    def complete(self, op_id: int) -> None:
        """The memory subsystem completed ``op_id``: remove it everywhere."""
        for cid in self._op_scopes.pop(op_id):
            pend = self.scope.get(cid)
            pend.discard(op_id)
            if not pend:
                del self.scope[cid]

    def fence_pending(self) -> set[int]:
        """[FENCE] the op ids a class fence at this point must wait for.

        Empty set means the fence may complete (``Scope(C(f)) = {}``).
        A fence outside any method has no class scope; we return all
        outstanding ops (the conservative global interpretation the
        hardware also uses).
        """
        if not self.fseq:
            return self.all_pending()
        return set(self.scope.get(self.fseq[-1], ()))

    def fence_ready(self) -> bool:
        return not self.fence_pending()

    # -- helpers --------------------------------------------------------------------
    def all_pending(self) -> set[int]:
        """Every outstanding memory op (the traditional fence's wait set)."""
        return set(self._op_scopes)

    def pending_in(self, cid: int) -> set[int]:
        return set(self.scope.get(cid, ()))

    def depth(self) -> int:
        return len(self.fseq)

    def scope_multiplicity(self) -> Counter:
        """How many pending ops each cid currently has (diagnostics)."""
        return Counter({cid: len(ops) for cid, ops in self.scope.items()})


# ---------------------------------------------------------------------------
# Reference memory model: the allowed-outcome set of a litmus program.
#
# The differential fuzz tests need an oracle that is *at least as weak*
# as the simulator under RMO, so that every outcome the simulator
# observes must fall inside the oracle's allowed set.  The model below
# is axiomatic-by-enumeration: each thread's memory operations may be
# reordered into any linear extension of a small constraint set, the
# reordered threads are interleaved every possible way over a single
# multi-copy-atomic memory, and a load returns the most recent store to
# its location in that global order.
#
# Per-thread ordering constraints (everything else may reorder):
#
# * same-location program order is preserved (coherence; also covers
#   store->load forwarding, which reads the in-order value), and
# * a fence orders every prior *waited-on, in-scope* operation before
#   every subsequent operation: loads when the fence waits on loads,
#   stores when it waits on stores; a ``global`` fence scopes every
#   operation, a ``set`` fence only set-scope-flagged ones.  This is
#   the FENCE rule of Figure 5 with [[FSeq]] collapsed to the flagged
#   set -- a fence may complete only once its scope has drained, and
#   nothing later dispatches before it completes.
#
# The simulator is strictly stronger (it binds load values at dispatch
# in program order and publishes stores through one shared image), so
# observed ⊆ allowed must hold for every program; a violation is a
# fence-semantics bug, not schedule noise.  The enumeration is exact,
# not sampled: for litmus-sized programs (<= ~4 memory ops per thread)
# the state space is tiny.
#
# Abstract op forms (plain tuples so any front-end can produce them):
#
#   ("store", var, value, flagged)
#   ("load",  var, reg,   flagged)
#   ("fence", waits, scope)          waits: REF_WAIT_* mask
#                                    scope: "global" | "set"
# ---------------------------------------------------------------------------

REF_WAIT_LOADS = 0b01
REF_WAIT_STORES = 0b10
REF_WAIT_BOTH = REF_WAIT_LOADS | REF_WAIT_STORES


def thread_order_constraints(ops: list[tuple]) -> tuple[list[tuple], set[tuple[int, int]]]:
    """One thread's memory ops and the pairs that must stay ordered.

    Returns ``(mems, before)`` where ``mems`` is the thread's memory
    operations in program order (fences removed) and ``before`` holds
    index pairs ``(a, b)`` over ``mems`` meaning ``mems[a]`` must
    execute before ``mems[b]``: same-location program order plus every
    fence-induced edge (waited-on, in-scope priors before all
    subsequents).  This is the single definition of the per-thread
    ordering axioms; both the permutation enumerator below and the
    DPOR explorer in :mod:`repro.verify.explorer` consume it, so the
    two allowed-outcome implementations can only diverge in the
    *search*, never in the model.
    """
    mems = [op for op in ops if op[0] != "fence"]
    index_of: dict[int, int] = {}
    mem_positions = []
    for pos, op in enumerate(ops):
        if op[0] != "fence":
            index_of[pos] = len(mem_positions)
            mem_positions.append(pos)

    before: set[tuple[int, int]] = set()
    for a, b in itertools.combinations(range(len(mems)), 2):
        if mems[a][1] == mems[b][1]:  # same location: keep program order
            before.add((a, b))
    for pos, op in enumerate(ops):
        if op[0] != "fence":
            continue
        _, waits, scope = op
        for ppos in mem_positions:
            if ppos > pos:
                continue
            prior = ops[ppos]
            kind_bit = REF_WAIT_LOADS if prior[0] == "load" else REF_WAIT_STORES
            if not waits & kind_bit:
                continue
            if scope == "set" and not prior[3]:
                continue
            for npos in mem_positions:
                if npos > pos:
                    before.add((index_of[ppos], index_of[npos]))
    return mems, before


def _thread_orders(ops: list[tuple]) -> list[list[tuple]]:
    """Every permitted local order of one thread's memory operations."""
    mems, before = thread_order_constraints(ops)
    if not mems:
        return [[]]
    orders = []
    for perm in itertools.permutations(range(len(mems))):
        rank = {idx: r for r, idx in enumerate(perm)}
        if all(rank[a] < rank[b] for a, b in before):
            orders.append([mems[i] for i in perm])
    return orders


def _interleavings(sequences: list[list[tuple]]):
    """Every merge of the given per-thread sequences (order-preserving)."""
    yield from _merge(sequences, [0] * len(sequences), [])


def _merge(sequences: list[list[tuple]], state: list[int], prefix: list[tuple]):
    """:func:`_interleavings` from the position ``state`` after ``prefix``.

    Module-level rather than a nested closure: a closure that calls
    itself is a reference cycle and outlives its caller until the
    cyclic GC runs.
    """
    live = [t for t, i in enumerate(state) if i < len(sequences[t])]
    if not live:
        yield list(prefix)
        return
    for t in live:
        op = sequences[t][state[t]]
        state[t] += 1
        prefix.append(op)
        yield from _merge(sequences, state, prefix)
        prefix.pop()
        state[t] -= 1


def reference_allowed_outcomes(
    threads: list[list[tuple]],
    init: dict | None = None,
) -> set[tuple]:
    """All register outcomes the reference model allows.

    ``threads`` holds one abstract-op list per thread (see the tuple
    forms above).  Returns outcomes as tuples of register values in
    sorted register-name order -- the same shape
    :func:`repro.litmus.dsl.run_litmus` reports observed outcomes in.
    """
    init = init or {}
    regs = sorted(
        op[2] for ops in threads for op in ops if op[0] == "load"
    )
    outcomes: set[tuple] = set()
    per_thread = [_thread_orders(ops) for ops in threads]
    for combo in itertools.product(*per_thread):
        for sequence in _interleavings(list(combo)):
            memory = dict(init)
            values: dict[str, int] = {}
            for op in sequence:
                if op[0] == "store":
                    memory[op[1]] = op[2]
                else:
                    values[op[2]] = memory.get(op[1], 0)
            outcomes.add(tuple(values[r] for r in regs))
    return outcomes
