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
"""

from __future__ import annotations

import random

import pytest

from repro.apps.delay_set import (
    conflict_graph,
    delay_pairs,
    fence_points,
    simple_cycles,
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
