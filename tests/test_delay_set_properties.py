"""Property-based tests for the Shasha-Snir delay-set analysis.

Seeded random small thread programs are cross-checked against an
independent brute-force cycle enumerator written here from first
principles (plain-dict DFS, no networkx): the delay pairs the library
derives must be exactly the same-thread program edges of the critical
cycles the brute force finds.  Where networkx is installed it serves
as a second, optional oracle for the library's bounded cycle search.
On top of the cross-checks, structural properties that must hold for
*every* program: pairs are adjacent program-order pairs,
``fence_points`` covers exactly the first half of every pair,
private-variable programs have no pairs at all, and the whole pipeline
is deterministic.

The whole-program path's block-pair summary
(:func:`~repro.apps.delay_set.critical_cycle_summary`) is held to a
cycle enumerator that lists every cycle, kept here as its brute-force
reference: on seeded random 2-3-thread skeletons and on the five recorded apps,
the cycle count, delay pairs, component count and kernel signature set
must all agree.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.delay_set import (
    ProgramSkeleton,
    RecordedAccess,
    RecordedFence,
    conflict_graph,
    critical_cycle_summary,
    delay_pairs,
    fence_points,
    simple_cycles,
)
from repro.synth.programs import (
    _slots_between,
    app_entry,
    app_names,
    cycle_signatures,
)

MAX_CYCLE_LEN = 8
SEEDS = range(24)


def _random_threads(seed: int):
    """A small random program: 2-3 threads, 2-4 accesses, 2-3 vars."""
    rng = random.Random(f"delay-set-prop:{seed}")
    n_threads = rng.randint(2, 3)
    n_vars = rng.randint(2, 3)
    variables = ["x", "y", "z"][:n_vars]
    return [
        [(rng.choice(variables), rng.choice("rw"))
         for _ in range(rng.randint(2, 4))]
        for _ in range(n_threads)
    ]


# ------------------------------------------------ independent brute force
def _brute_edges(threads):
    """The mixed graph as adjacency dicts, built without the library."""
    nodes = {}
    for t, ops in enumerate(threads):
        for i, (var, mode) in enumerate(ops):
            nodes[(t, i)] = (t, var, mode == "w")
    adj: dict[tuple, set] = {n: set() for n in nodes}
    for t, ops in enumerate(threads):
        for i in range(len(ops) - 1):
            adj[(t, i)].add((t, i + 1))
    for a, (ta, va, wa) in nodes.items():
        for b, (tb, vb, wb) in nodes.items():
            if ta != tb and va == vb and (wa or wb):
                adj[a].add(b)
                adj[b].add(a)
    return nodes, adj


def _brute_cycles(threads):
    """Every directed simple cycle, each exactly once (canonical start).

    Classic smallest-start DFS: a cycle is discovered only from its
    minimum node, and the walk never descends below that node, so each
    rotation class is emitted once.
    """
    nodes, adj = _brute_edges(threads)
    order = sorted(nodes)
    cycles = []

    def walk(start, node, path, on_path):
        for nxt in adj[node]:
            if nxt == start and len(path) >= 2:
                cycles.append(list(path))
            elif nxt > start and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                walk(start, nxt, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for start in order:
        walk(start, start, [start], {start})
    return cycles


def _brute_is_critical(cycle, nodes):
    """<= 2 accesses per thread and same-thread accesses adjacent."""
    per_thread: dict[int, list[int]] = {}
    for pos, node in enumerate(cycle):
        per_thread.setdefault(nodes[node][0], []).append(pos)
    n = len(cycle)
    for positions in per_thread.values():
        if len(positions) > 2:
            return False
        if len(positions) == 2:
            a, b = positions
            if not (b - a == 1 or (a == 0 and b == n - 1)):
                return False
    return True


def _brute_delay_pairs(threads, max_cycle_len=MAX_CYCLE_LEN):
    nodes, _ = _brute_edges(threads)
    pairs = set()
    for cycle in _brute_cycles(threads):
        if len(cycle) > max_cycle_len:
            continue
        if not _brute_is_critical(cycle, nodes):
            continue
        n = len(cycle)
        for pos, node in enumerate(cycle):
            nxt = cycle[(pos + 1) % n]
            if nodes[node][0] == nodes[nxt][0]:
                pairs.add((min(node, nxt), max(node, nxt)))
    return pairs


# ----------------------------------------------------------- cross-check
@pytest.mark.parametrize("seed", SEEDS)
def test_delay_pairs_match_brute_force(seed):
    threads = _random_threads(seed)
    assert delay_pairs(threads) == _brute_delay_pairs(threads), (
        f"library and brute-force delay sets diverge for {threads!r}")


def _rooted(cycle):
    """``cycle`` rotated to start at its least node."""
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_cycle_search_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    g = conflict_graph(_random_threads(seed))
    ref = nx.DiGraph()
    ref.add_nodes_from(g.nodes)
    ref.add_edges_from(g.edges())
    ours = [tuple(c) for c in simple_cycles(g, MAX_CYCLE_LEN)]
    assert len(ours) == len(set(ours)), "a cycle was found twice"
    assert all(c == _rooted(list(c)) for c in ours), (
        "every cycle starts at its least node")
    want = {_rooted(c) for c in nx.simple_cycles(ref)
            if len(c) <= MAX_CYCLE_LEN}
    assert set(ours) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_are_adjacent_program_order_pairs(seed):
    threads = _random_threads(seed)
    for (t1, i), (t2, j) in delay_pairs(threads):
        assert t1 == t2, "a delay pair never spans threads"
        assert j == i + 1, (
            "critical-cycle program edges connect adjacent accesses, so "
            "every pair is (i, i+1)")
        assert 0 <= i < len(threads[t1]) - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_fence_points_cover_exactly_the_pairs(seed):
    threads = _random_threads(seed)
    pairs = delay_pairs(threads)
    points = fence_points(threads)
    expected: dict[int, set[int]] = {}
    for (t, i), _ in pairs:
        expected.setdefault(t, set()).add(i)
    assert points == expected, (
        "fence_points must place one fence between each delay pair and "
        "nothing else")


@pytest.mark.parametrize("seed", SEEDS)
def test_conflict_edges_are_bidirectional(seed):
    g = conflict_graph(_random_threads(seed))
    for u, v, data in g.edges(data=True):
        if data["kind"] == "conflict":
            assert g.has_edge(v, u) and g[v][u]["kind"] == "conflict"


@pytest.mark.parametrize("seed", SEEDS)
def test_analysis_is_deterministic(seed):
    threads = _random_threads(seed)
    assert delay_pairs(threads) == delay_pairs(threads)
    assert fence_points(threads) == fence_points(threads)


# ----------------------------------------------------- directed properties
def test_private_variables_yield_no_pairs():
    """Threads touching disjoint variables can never form a cycle."""
    threads = [[("x", "w"), ("x", "r")], [("y", "w"), ("y", "r")]]
    assert delay_pairs(threads) == set()
    assert fence_points(threads) == {}


def test_store_buffering_needs_both_fences():
    """The SB shape: both threads' (w, r) pairs are delays."""
    threads = [[("x", "w"), ("y", "r")], [("y", "w"), ("x", "r")]]
    assert delay_pairs(threads) == {
        ((0, 0), (0, 1)), ((1, 0), (1, 1))}
    assert fence_points(threads) == {0: {0}, 1: {0}}


def test_read_only_sharing_yields_no_pairs():
    """Conflicts require at least one writer."""
    threads = [[("x", "r"), ("y", "r")], [("y", "r"), ("x", "r")]]
    assert delay_pairs(threads) == set()


# ------------------------------------- whole-program block-pair summary
def _random_skeleton(seed: int) -> ProgramSkeleton:
    """2-3 threads of 2-7 accesses over 3 addresses, with named fences."""
    rng = random.Random(f"cycle-summary:{seed}")
    names = ["a[0]", "a[1]", "b"]
    threads = []
    fences = []
    for t in range(rng.randint(2, 3)):
        ops = []
        for i in range(rng.randint(2, 7)):
            addr = rng.randrange(len(names))
            op = rng.choice(("load", "store", "cas"))
            ops.append(RecordedAccess(t, i, names[addr], 64 * addr,
                                      op != "load", rng.random() < 0.5, op))
            if rng.random() < 0.4:
                fences.append(RecordedFence(
                    t, i, "full", 3, False, rng.choice(("", "s0", "s1"))))
        threads.append(ops)
    return ProgramSkeleton(threads, fences)


def _reference_cycles(skel: ProgramSkeleton):
    """Every two-thread critical cycle, listed one by one.

    A block DFS that enters a thread over a conflict edge, optionally
    takes one transitive program step, and leaves over a conflict
    edge, each cycle anchored at its minimal block-entry node.  The
    conflict map is built here pairwise from the definition.
    """
    accesses = [a for ops in skel.threads for a in ops]
    conf = {}
    for a in accesses:
        for b in accesses:
            if (a.thread != b.thread and a.addr == b.addr
                    and (a.is_write or b.is_write)):
                conf.setdefault(a.key, []).append(b.key)
    thread_of = {a.key: a.thread for a in accesses}
    sources = {}
    for u in sorted(conf):
        sources.setdefault(thread_of[u], []).append(u)
    seen = set()
    cycles = []

    def block_exits(entry):
        out = []
        if entry in conf:
            out.append((entry, [entry]))
        for x in sources.get(thread_of[entry], ()):
            if x > entry:
                out.append((x, [entry, x]))
        return out

    def visit(path, threads_used, start):
        for exit_node, block in block_exits(path[-1]):
            full = path[:-1] + block
            for v in conf.get(exit_node, ()):
                if v == start:
                    if len(threads_used) >= 2 and tuple(full) not in seen:
                        seen.add(tuple(full))
                        cycles.append(full)
                    continue
                if v < start or len(threads_used) >= 2:
                    continue
                if thread_of[v] not in threads_used:
                    visit(full + [v], threads_used | {thread_of[v]}, start)

    for s in sorted({v for targets in conf.values() for v in targets}):
        visit([s], {thread_of[s]}, s)
    return cycles


def _reference_pairs(cycles):
    pairs = set()
    for cycle in cycles:
        for pos, node in enumerate(cycle):
            nxt = cycle[(pos + 1) % len(cycle)]
            if node[0] == nxt[0] and node != nxt:
                pairs.add((min(node, nxt), max(node, nxt)))
    return pairs


def _reference_components(cycles) -> int:
    """Groups of cycles that share an access, by repeated merging."""
    groups: list[set] = []
    for cycle in cycles:
        merged = set(cycle)
        rest = []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                rest.append(g)
        groups = rest + [merged]
    return len(groups)


def _reference_signature(skel: ProgramSkeleton, cycle) -> tuple:
    """Rotation-canonical block shape of one listed cycle."""
    blocks = []
    for node in cycle:
        if blocks and blocks[-1][0][0] == node[0]:
            blocks[-1].append(node)
        else:
            blocks.append([node])

    def desc(key):
        a = skel.access(key)
        return (a.base, a.kind, a.op, a.flagged)

    sig = []
    for block in blocks:
        if len(block) == 1:
            sig.append((desc(block[0]), (), None))
        else:
            sig.append((desc(block[0]),
                        _slots_between(skel, block[0], block[-1]),
                        desc(block[-1])))
    rotations = [tuple(sig[i:] + sig[:i]) for i in range(len(sig))]
    return min(rotations, key=repr)


def _assert_summary_matches_reference(skel: ProgramSkeleton):
    cycles = _reference_cycles(skel)
    summary = critical_cycle_summary(skel)
    assert summary.count == len(cycles)
    assert summary.pairs == _reference_pairs(cycles)
    assert summary.components == _reference_components(cycles)
    assert cycle_signatures(skel, summary.blocks) == {
        _reference_signature(skel, c) for c in cycles}
    return summary


SKELETON_SEEDS = range(60)


@pytest.mark.parametrize("seed", SKELETON_SEEDS)
def test_cycle_summary_matches_enumeration_on_random_skeletons(seed):
    _assert_summary_matches_reference(_random_skeleton(seed))


def test_random_skeletons_exercise_the_summary():
    """The random corpus must not be vacuous: cycles through several
    components, two-access blocks on both sides, and named slots."""
    skeletons = [_random_skeleton(seed) for seed in SKELETON_SEEDS]
    summaries = [critical_cycle_summary(skel) for skel in skeletons]
    assert sum(1 for s in summaries if s.count) >= len(summaries) // 2
    assert any(s.components > 1 for s in summaries)
    assert any(len(xas) > 1 and len(ybs) > 1
               for s in summaries for _, xas, _, ybs in s.blocks)
    assert any(slots
               for skel, s in zip(skeletons, summaries)
               for sig in cycle_signatures(skel, s.blocks)
               for _, slots, _ in sig)


@pytest.mark.parametrize("name", app_names())
def test_cycle_summary_matches_enumeration_on_recorded_apps(name):
    summary = _assert_summary_matches_reference(app_entry(name).record())
    assert summary.count > 0
