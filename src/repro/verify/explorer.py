"""Stateless exhaustive interleaving explorer with sleep-set DPOR.

The reference model in :mod:`repro.core.semantics` enumerates every
per-thread linear order and then every order-preserving merge -- exact,
but factorially wasteful: most merges differ only in the order of
*independent* operations (different locations, or two loads) and land
in the same final state.  This module explores the identical outcome
space as a transition system and prunes that redundancy with dynamic
partial-order reduction, so the full litmus corpus x fence-mode matrix
completes in well under a second.

The transition system
---------------------

Each thread is the *partial order* of its memory operations returned by
:func:`repro.core.semantics.thread_order_constraints` -- same-location
program order plus fence-induced edges.  A state is (per-thread set of
executed ops, memory, register bindings); a transition executes one op
whose intra-thread predecessors have all executed.  The set of complete
executions is exactly the set of interleavings of the per-thread linear
extensions that the reference model enumerates, so both implementations
compute the same allowed-outcome set by construction of the shared
constraint function -- and :mod:`tests.test_verify_dpor` checks it
anyway, per corpus test and fence mode.

The reduction
-------------

Two transitions are *dependent* iff they touch the same location and at
least one is a store; everything else commutes (same final state, and
enabledness here is monotone -- executing an op never disables another,
it only unlocks intra-thread successors).  The explorer runs a DFS with
**sleep sets** (Godefroid): after fully exploring transition ``a`` from
a state, ``a`` is put to sleep for the remaining siblings, and a child
reached via ``b`` inherits the sleeping transitions independent of
``b``.  Every Mazurkiewicz trace is explored exactly once, so the
outcome set is preserved while the number of walked interleavings drops
from "all linear extensions" to "one per trace" -- the counts are
reported in :class:`Exploration` and asserted in the tests to prove the
pruning is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.semantics import thread_order_constraints


@dataclass
class Exploration:
    """Result of one exhaustive exploration."""

    outcomes: set[tuple] = field(default_factory=set)
    registers: list[str] = field(default_factory=list)
    interleavings: int = 0    # complete executions reached
    transitions: int = 0      # DFS edges walked
    dpor: bool = True


def _dependent(op_a: tuple, op_b: tuple) -> bool:
    """Same location with a store involved: the pair must not commute."""
    return op_a[1] == op_b[1] and (op_a[0] == "store" or op_b[0] == "store")


def explore_allowed_outcomes(
    threads: list[list[tuple]],
    init: dict | None = None,
    dpor: bool = True,
) -> Exploration:
    """All register outcomes reachable in the reference memory model.

    ``threads`` uses the abstract-op tuples of
    :func:`repro.litmus.dsl.abstract_threads`.  With ``dpor=False`` the
    DFS degenerates to naive full enumeration of every interleaving --
    the brute-force baseline the DPOR tests compare against.  Outcomes
    are tuples in sorted register-name order, the same shape both
    :func:`repro.core.semantics.reference_allowed_outcomes` and
    :func:`repro.litmus.dsl.run_litmus` report.
    """
    init = init or {}
    per_thread = [thread_order_constraints(ops) for ops in threads]
    mems = [mems for mems, _ in per_thread]
    preds: list[list[int]] = []
    for t, (ops, before) in enumerate(per_thread):
        masks = [0] * len(ops)
        for a, b in before:
            masks[b] |= 1 << a
        preds.append(masks)

    regs = sorted(op[2] for ops in mems for op in ops if op[0] == "load")
    result = Exploration(registers=regs, dpor=dpor)

    n_threads = len(mems)
    done = [0] * n_threads                       # executed-op bitmask per thread
    full = [(1 << len(ops)) - 1 for ops in mems]
    memory: dict[str, int] = dict(init)
    values: dict[str, int] = {}

    def enabled() -> list[tuple[int, int]]:
        out = []
        for t in range(n_threads):
            mask = done[t]
            for i, need in enumerate(preds[t]):
                if not mask >> i & 1 and mask & need == need:
                    out.append((t, i))
        return out

    def walk(sleep: set[tuple[int, int]]) -> None:
        choices = enabled()
        if not choices:
            result.interleavings += 1
            result.outcomes.add(tuple(values[r] for r in regs))
            return
        asleep: set[tuple[int, int]] = set(sleep) if dpor else set()
        for t, i in choices:
            if (t, i) in asleep:
                continue
            op = mems[t][i]
            result.transitions += 1
            done[t] |= 1 << i
            if op[0] == "store":
                undo = ("mem", op[1], memory.get(op[1]))
                memory[op[1]] = op[2]
            else:
                undo = ("reg", op[2], values.get(op[2]))
                values[op[2]] = memory.get(op[1], 0)
            child_sleep = (
                {s for s in asleep if not _dependent(mems[s[0]][s[1]], op)}
                if dpor else asleep
            )
            walk(child_sleep)
            done[t] &= ~(1 << i)
            kind, key, old = undo
            store = memory if kind == "mem" else values
            if old is None:
                store.pop(key, None)
            else:
                store[key] = old
            if dpor:
                asleep.add((t, i))

    walk(set())
    # walk calls itself through its closure cell: clear the cell so the
    # closure dies by refcount instead of waiting for the cyclic GC
    del walk
    return result
