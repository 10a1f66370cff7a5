"""Delay-set analysis (Shasha-Snir) and trace-based access classification.

The paper's barnes/radiosity experiments rely on a compiler that
enforces sequential consistency by inserting fences at *delay pairs*
found by delay-set analysis [38], and on the observation that accesses
to private or shared-read-only data are never part of a conflict and
therefore are not flagged for set-scope fences (Section VI-B, citing
Singh et al. [40]).

Two tools here:

* :func:`classify_trace` -- dynamic classification: partition the
  addresses of a memory trace into ``private`` / ``shared_read_only`` /
  ``conflicting``.  An address conflicts iff at least two cores access
  it and at least one of them writes.  The set-scope flag assignments
  of the barnes/radiosity guests are validated against this partition
  in the test suite.
* :func:`delay_pairs` -- static Shasha-Snir analysis for small
  (litmus-sized) programs: find the program-order pairs that lie on a
  *critical cycle* of the conflict graph; exactly those pairs need a
  fence to restore SC.  Dekker's classic two delay pairs fall out of
  this directly.

Whole-program extension (the apps-wide synthesis path): real programs
here are Python generators, so their "program graph" is obtained by
*concrete replay* -- :func:`record_program` drives the guest
generators against functional memory (no simulator) and records every
memory access and fence into a :class:`ProgramSkeleton`.
:func:`critical_cycle_summary` walks the skeleton's two-thread critical
cycles as pairs of thread blocks (program order is transitive, so the
two accesses of a block may be many ops apart) and returns their count,
delay pairs, component count and block pairs without listing the
cycles; :func:`required_patterns` / :func:`enforced_patterns` turn the
delay pairs into the runtime-checkable ordering requirements the
synthesizer and the chaos oracle consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ..isa.instructions import (
    Branch,
    Cas,
    Compute,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Probe,
    Store,
    WAIT_STORES,
)
from ..sim.trace import TraceCollector


@dataclass(frozen=True)
class AddressClassification:
    """Partition of traced addresses."""

    private: frozenset[int]
    shared_read_only: frozenset[int]
    conflicting: frozenset[int]

    def flagged(self) -> frozenset[int]:
        """The addresses a set-scope compiler must flag."""
        return self.conflicting


def classify_trace(trace: TraceCollector) -> AddressClassification:
    """Classify every address appearing in ``trace``."""
    readers: dict[int, set[int]] = {}
    writers: dict[int, set[int]] = {}
    for rec in trace.records:
        if rec.kind == "load":
            readers.setdefault(rec.addr, set()).add(rec.core)
        else:  # store or cas
            writers.setdefault(rec.addr, set()).add(rec.core)
    private: set[int] = set()
    read_only: set[int] = set()
    conflicting = set()
    for addr in set(readers) | set(writers):
        r = readers.get(addr, set())
        w = writers.get(addr, set())
        cores = r | w
        if len(cores) <= 1:
            private.add(addr)
        elif not w:
            read_only.add(addr)
        else:
            conflicting.add(addr)
    return AddressClassification(
        frozenset(private), frozenset(read_only), frozenset(conflicting)
    )


# --------------------------------------------------------------------- static
class _Nodes(dict):
    """Node -> attribute dict; ``nodes(data=True)`` yields the pairs."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class DiGraph:
    """The directed graph the delay-set analysis builds and walks.

    Just the part of a graph API this module needs: attributed nodes
    and edges kept in insertion order, successor dicts (``succ``,
    ``g[u][v]``) and an edge iterator.  Both ends of an edge must be
    added as nodes first.
    """

    def __init__(self) -> None:
        self.nodes = _Nodes()
        self.succ: dict = {}

    def add_node(self, n, **attr) -> None:
        self.nodes[n] = attr
        self.succ[n] = {}

    def add_edge(self, u, v, **attr) -> None:
        self.succ[u][v] = attr

    def __getitem__(self, u) -> dict:
        return self.succ[u]

    def has_edge(self, u, v) -> bool:
        return v in self.succ.get(u, ())

    def edges(self, data: bool = False):
        for u, nbrs in self.succ.items():
            for v, d in nbrs.items():
                yield (u, v, d) if data else (u, v)


def simple_cycles(g: DiGraph, max_len: int):
    """Every simple cycle of ``g`` with at most ``max_len`` nodes.

    Bounded DFS: each cycle is rooted at its least node and the walk
    never descends below the root, so every cycle is found once, as
    the rotation that starts at that node.
    """
    for start in sorted(g.nodes):
        path = [start]
        on_path = {start}
        stack = [iter(g.succ[start])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                on_path.discard(path.pop())
            elif nxt == start:
                yield list(path)
            elif nxt > start and nxt not in on_path and len(path) < max_len:
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(g.succ[nxt]))


@dataclass(frozen=True)
class Access:
    """One static access in a thread program."""

    thread: int
    index: int
    var: str
    is_write: bool

    @property
    def key(self) -> tuple[int, int]:
        return (self.thread, self.index)


def _parse(threads: list[list[tuple[str, str]]]) -> list[Access]:
    accesses = []
    for t, ops in enumerate(threads):
        for i, (var, mode) in enumerate(ops):
            if mode not in ("r", "w"):
                raise ValueError(f"access mode must be 'r' or 'w', got {mode!r}")
            accesses.append(Access(t, i, var, mode == "w"))
    return accesses


def conflict_graph(threads: list[list[tuple[str, str]]]) -> DiGraph:
    """The mixed program/conflict graph of Shasha-Snir.

    Nodes are ``(thread, index)``; program edges follow program order
    within a thread, conflict edges connect (both directions) accesses
    of the same variable on different threads when at least one writes.
    """
    accesses = _parse(threads)
    g = DiGraph()
    for a in accesses:
        g.add_node(a.key, var=a.var, is_write=a.is_write, thread=a.thread)
    by_thread: dict[int, list[Access]] = {}
    for a in accesses:
        by_thread.setdefault(a.thread, []).append(a)
    for ops in by_thread.values():
        ops.sort(key=lambda a: a.index)
        for u, v in zip(ops, ops[1:]):
            g.add_edge(u.key, v.key, kind="program")
    for a, b in combinations(accesses, 2):
        if a.thread != b.thread and a.var == b.var and (a.is_write or b.is_write):
            g.add_edge(a.key, b.key, kind="conflict")
            g.add_edge(b.key, a.key, kind="conflict")
    return g


def _is_critical(cycle: list[tuple[int, int]], g: DiGraph) -> bool:
    """Shasha-Snir critical cycle: <= 2 accesses per thread, adjacent."""
    per_thread: dict[int, list[int]] = {}
    for pos, node in enumerate(cycle):
        per_thread.setdefault(g.nodes[node]["thread"], []).append(pos)
    n = len(cycle)
    for positions in per_thread.values():
        if len(positions) > 2:
            return False
        if len(positions) == 2:
            a, b = positions
            if not (b - a == 1 or (a == 0 and b == n - 1)):
                return False
    return True


def delay_pairs(
    threads: list[list[tuple[str, str]]],
    max_cycle_len: int = 8,
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Program-order pairs that must be enforced to guarantee SC.

    Returns pairs of ``(thread, index)`` node keys, earlier access
    first.  A fence (or other enforcement) between each pair restores
    SC per Shasha-Snir.
    """
    g = conflict_graph(threads)
    pairs: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for cycle in simple_cycles(g, max_cycle_len):
        if len(cycle) < 2:
            continue
        if not _is_critical(cycle, g):
            continue
        n = len(cycle)
        for pos, node in enumerate(cycle):
            nxt = cycle[(pos + 1) % n]
            if g.nodes[node]["thread"] == g.nodes[nxt]["thread"]:
                u, v = node, nxt
                if u[1] > v[1]:
                    u, v = v, u
                pairs.add((u, v))
    return pairs


def fence_points(
    threads: list[list[tuple[str, str]]],
    max_cycle_len: int = 8,
) -> dict[int, set[int]]:
    """Where to insert fences: after access ``i`` of thread ``t``.

    The conservative placement: one fence directly between each delay
    pair's two accesses (adjacent pairs come out of program edges, so
    "after the first access" is exactly "between the two").
    """
    points: dict[int, set[int]] = {}
    for (t, i), (_, _j) in delay_pairs(threads, max_cycle_len):
        points.setdefault(t, set()).add(i)
    return points


# -------------------------------------------------------------- whole-program
#: instruction fence kind -> synth mode lattice name
FENCE_MODE = {
    FenceKind.GLOBAL: "full",
    FenceKind.CLASS: "sfence-class",
    FenceKind.SET: "sfence-set",
}


def base_var(name: str) -> str:
    """``"wsq.arr[3]"`` -> ``"wsq.arr"``: the allocation a name indexes."""
    return name.split("[", 1)[0]


@dataclass(frozen=True)
class RecordedAccess:
    """One memory access observed while replaying a guest generator."""

    thread: int
    index: int
    var: str
    addr: int
    is_write: bool
    flagged: bool
    op: str  # "load" | "store" | "cas"

    @property
    def key(self) -> tuple[int, int]:
        return (self.thread, self.index)

    @cached_property
    def base(self) -> str:
        return base_var(self.var)

    @property
    def kind(self) -> str:
        return "w" if self.is_write else "r"


@dataclass(frozen=True)
class RecordedFence:
    """One fence observed during replay.

    ``after`` is the index of the access it follows in its thread (-1
    when the fence leads the thread); ``name`` is the hand-written
    placement's slot label when the guest names its fences.
    """

    thread: int
    after: int
    mode: str
    waits: int
    speculable: bool
    name: str = ""

    def covers(self, i: int, j: int) -> bool:
        """True when the fence sits strictly between accesses i and j."""
        return i <= self.after < j


@dataclass
class ProgramSkeleton:
    """The recorded access/fence structure of one concrete execution."""

    threads: list[list[RecordedAccess]]
    fences: list[RecordedFence]
    steps: int = 0

    def thread_fences(self, thread: int) -> list[RecordedFence]:
        return [f for f in self.fences if f.thread == thread]

    def slots(self) -> dict[str, list[RecordedFence]]:
        """Named fences grouped by slot label, in recording order."""
        out: dict[str, list[RecordedFence]] = {}
        for f in self.fences:
            if f.name:
                out.setdefault(f.name, []).append(f)
        return out

    def access(self, key: tuple[int, int]) -> RecordedAccess:
        t, i = key
        return self.threads[t][i]


def record_program(program, memory, schedule: str = "sequential",
                   max_steps: int = 200_000) -> ProgramSkeleton:
    """Concretely replay ``program`` against functional memory.

    No simulator is involved: every op executes immediately and in
    order, which yields one legal SC execution whose access sequence is
    the program skeleton the delay-set analysis runs on.  ``schedule``
    is ``"sequential"`` (run each thread to completion in turn -- fine
    for programs whose threads terminate independently) or
    ``"round-robin"`` (one op per live thread per turn -- required for
    work-sharing programs such as ptc whose threads only terminate
    once every thread's work is visible).
    """
    if schedule not in ("sequential", "round-robin"):
        raise ValueError(f"unknown replay schedule {schedule!r}")
    gens = program.spawn()
    threads: list[list[RecordedAccess]] = [[] for _ in gens]
    fences: list[RecordedFence] = []
    steps = 0

    def step(t: int, gen, send) -> tuple[bool, object]:
        """Advance thread ``t`` one op; returns (alive, next send value)."""
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"record_program exceeded {max_steps} steps "
                f"(schedule={schedule!r}); the program does not terminate "
                f"under this replay schedule")
        try:
            op = gen.send(send)
        except StopIteration:
            return False, None
        accesses = threads[t]
        if isinstance(op, Load):
            value = memory.read_global(op.addr)
            accesses.append(RecordedAccess(
                t, len(accesses), op.name or f"@{op.addr}", op.addr,
                False, op.flagged, "load"))
            return True, value
        if isinstance(op, Store):
            memory.write_global(op.addr, op.value)
            accesses.append(RecordedAccess(
                t, len(accesses), op.name or f"@{op.addr}", op.addr,
                True, op.flagged, "store"))
            return True, None
        if isinstance(op, Cas):
            current = memory.read_global(op.addr)
            success = current == op.expected
            if success:
                memory.write_global(op.addr, op.new)
            accesses.append(RecordedAccess(
                t, len(accesses), op.name or f"@{op.addr}", op.addr,
                True, op.flagged, "cas"))
            return True, success
        if isinstance(op, Fence):
            fences.append(RecordedFence(
                t, len(accesses) - 1, FENCE_MODE[op.kind], op.waits,
                op.speculable, getattr(op, "name", "")))
            return True, None
        if isinstance(op, (FsStart, FsEnd, Compute, Branch, Probe)):
            return True, None
        raise TypeError(f"cannot replay op {op!r}")

    if schedule == "sequential":
        for t, gen in enumerate(gens):
            alive, send = True, None
            while alive:
                alive, send = step(t, gen, send)
    else:
        live = {t: (gen, None) for t, gen in enumerate(gens)}
        while live:
            for t in list(live):
                gen, send = live[t]
                alive, send = step(t, gen, send)
                if alive:
                    live[t] = (gen, send)
                else:
                    del live[t]
    return ProgramSkeleton(threads, fences, steps)


@dataclass
class CriticalCycles:
    """The two-thread critical cycles of a skeleton, counted, not listed.

    Every such cycle is a pair of thread blocks ``(s, xa)`` and
    ``(v, yb)``: enter ``s``'s thread at ``s``, leave it at ``xa`` (``s``
    itself or a later conflict source of the thread) over a conflict
    edge to ``v > s``, leave ``v``'s thread at ``yb`` over a conflict
    edge back to ``s``.  ``blocks`` holds one ``(s, xas, v, ybs)`` entry
    per block-entry pair; its cycles are every ``xa`` against every
    ``yb``, so ``count`` is the sum of ``len(xas) * len(ybs)``.
    ``pairs`` are the same-thread block pairs, earlier access first --
    the delay pairs; ``components`` counts the groups of cycles that
    share an access.
    """

    count: int
    pairs: set[tuple[tuple[int, int], tuple[int, int]]]
    components: int
    blocks: list[tuple]


def critical_cycle_summary(skel: ProgramSkeleton) -> CriticalCycles:
    """Summarise the Shasha-Snir critical cycles of a recorded skeleton.

    A critical cycle here spans two threads with at most two accesses
    on each (the shape the synthesizer distills into litmus kernels).
    Program order is transitive -- real programs have critical cycles
    between accesses many ops apart -- so a block may leave its thread
    at any later conflicting access.  Conflicts pair accesses of the
    same address on different threads, at least one of them a write.
    Each cycle is anchored at its least block-entry node ``s``, so
    each is counted exactly once.
    """
    conf: dict[tuple[int, int], set[tuple[int, int]]] = {}
    by_addr: dict[int, list[RecordedAccess]] = {}
    for ops in skel.threads:
        for a in ops:
            by_addr.setdefault(a.addr, []).append(a)
    for group in by_addr.values():
        for a, b in combinations(group, 2):
            if a.thread != b.thread and (a.is_write or b.is_write):
                conf.setdefault(a.key, set()).add(b.key)
                conf.setdefault(b.key, set()).add(a.key)
    # block exits of an entry node: itself, then every later conflict
    # source of its thread
    exits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ops in skel.threads:
        sources = [a.key for a in ops if a.key in conf]
        for k, u in enumerate(sources):
            exits[u] = sources[k:]

    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = 0
    pairs: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    blocks: list[tuple] = []
    for s in sorted(conf):
        xas_of: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for xa in exits[s]:
            for v in conf[xa]:
                if v > s:
                    xas_of.setdefault(v, []).append(xa)
        for v in sorted(xas_of):
            ybs = [yb for yb in exits[v] if s in conf[yb]]
            if not ybs:
                continue
            xas = xas_of[v]
            count += len(xas) * len(ybs)
            pairs.update((s, xa) for xa in xas if xa != s)
            pairs.update((v, yb) for yb in ybs if yb != v)
            root = find(s)
            for u in (v, *xas, *ybs):
                r = find(u)
                if r != root:
                    parent[r] = root
            blocks.append((s, tuple(xas), v, tuple(ybs)))
    components = len({find(x) for x in parent})
    return CriticalCycles(count, pairs, components, blocks)


# ---------------------------------------------- runtime-checkable requirements
def required_patterns(
    skel: ProgramSkeleton,
    pairs: set[tuple[tuple[int, int], tuple[int, int]]],
) -> set[tuple[str, str, str, str]]:
    """Base-level ``(base_a, 'w', base_b, kind_b)`` ordering requirements.

    Only store-first pairs over *distinct* bases survive: those are the
    requirements a store-buffer monitor can check at runtime (an older
    store to ``base_a`` still buffered when an access to ``base_b``
    becomes visible).  Load-first delay pairs are enforced by fences
    too, but their violation is not observable from the drain stream.
    """
    patterns: set[tuple[str, str, str, str]] = set()
    for u, v in pairs:
        a, b = skel.access(u), skel.access(v)
        if a.kind != "w" or a.base == b.base:
            continue
        patterns.add((a.base, "w", b.base, b.kind))
    return patterns


def _fence_adequate(fence: RecordedFence, mode: str, kind_b: str,
                    a_flagged: bool, b_flagged: bool) -> bool:
    """Does this fence, run at ``mode``, order a-(store) before b?

    The scoped-fence semantics this mirrors: any fence drains older
    stores it waits on, so (w, w) is ordered even by speculable
    fences (store-past-fence / cas-past-fence invariants); (w, r)
    additionally needs a non-speculable fence, since a speculative
    fence does not block younger loads from completing early.  A
    set-scope fence only orders flagged accesses.
    """
    if mode == "none":
        return False
    if not fence.waits & WAIT_STORES:
        return False
    if kind_b == "r" and fence.speculable:
        return False
    if mode == "sfence-set" and not (a_flagged and b_flagged):
        return False
    return True


def enforced_patterns(
    skel: ProgramSkeleton,
    patterns: set[tuple[str, str, str, str]],
    modes: dict[str, str] | None = None,
) -> set[tuple[str, str, str, str]]:
    """The subset of ``patterns`` every static occurrence of which is
    separated by an adequate fence.

    An occurrence of ``(base_a, 'w', base_b, kind_b)`` is any
    same-thread pair ``i < j`` matching the bases and kinds; the
    pattern holds only when *every* occurrence has a fence strictly
    between whose mode/waits/speculability/scope orders the pair (see
    :func:`_fence_adequate`).  ``modes`` overrides the mode of named
    fences by slot label ("none" disables the slot), which is how a
    synthesized placement is statically checked against the floor.
    """
    fences_by_thread: dict[int, list[RecordedFence]] = {}
    for f in skel.fences:
        fences_by_thread.setdefault(f.thread, []).append(f)

    def fence_mode(f: RecordedFence) -> str:
        if modes is not None and f.name and f.name in modes:
            return modes[f.name]
        return f.mode

    # per thread: (base, kind) -> its accesses, in program order
    by_base: list[dict[tuple[str, str], list[RecordedAccess]]] = []
    for ops in skel.threads:
        index: dict[tuple[str, str], list[RecordedAccess]] = {}
        for a in ops:
            index.setdefault((a.base, a.kind), []).append(a)
        by_base.append(index)

    held: set[tuple[str, str, str, str]] = set()
    for pattern in patterns:
        base_a, _, base_b, kind_b = pattern
        ok = True
        for t, index in enumerate(by_base):
            if not ok:
                break
            fences = fences_by_thread.get(t, [])
            firsts = index.get((base_a, "w"), ())
            seconds = index.get((base_b, kind_b), ())
            for a in firsts:
                for b in seconds:
                    if b.index <= a.index:
                        continue
                    if not any(
                        f.covers(a.index, b.index)
                        and _fence_adequate(f, fence_mode(f), kind_b,
                                            a.flagged, b.flagged)
                        for f in fences
                    ):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            held.add(pattern)
    return held
