"""Delay-set analysis tests: trace classification and Shasha-Snir."""

from repro.apps.barnes import build_barnes
from repro.apps.delay_set import classify_trace, conflict_graph, delay_pairs, fence_points
from repro.apps.radiosity import build_radiosity
from repro.isa.instructions import FenceKind
from repro.runtime.lang import Env
from repro.sim.config import SimConfig
from repro.sim.trace import TraceCollector, TraceRecord


# --------------------------------------------------------- trace classification
def _trace(records):
    t = TraceCollector()
    for core, kind, addr in records:
        t.record(core, kind, addr)
    return t


def test_private_address():
    c = classify_trace(_trace([(0, "load", 1), (0, "store", 1)]))
    assert 1 in c.private


def test_shared_read_only():
    c = classify_trace(_trace([(0, "load", 1), (1, "load", 1)]))
    assert 1 in c.shared_read_only


def test_conflicting_requires_a_writer():
    c = classify_trace(_trace([(0, "store", 1), (1, "load", 1)]))
    assert 1 in c.conflicting
    assert c.flagged() == frozenset({1})


def test_cas_counts_as_write():
    c = classify_trace(_trace([(0, "cas", 1), (1, "load", 1)]))
    assert 1 in c.conflicting


def test_partition_is_disjoint_and_total():
    recs = [(0, "load", 1), (1, "load", 1), (0, "store", 2), (1, "store", 2), (0, "store", 3)]
    c = classify_trace(_trace(recs))
    all_addrs = c.private | c.shared_read_only | c.conflicting
    assert all_addrs == {1, 2, 3}
    assert not (c.private & c.conflicting)
    assert not (c.private & c.shared_read_only)


# ------------------------------------------------- barnes/radiosity flag checks
def test_barnes_flags_match_dynamic_classification():
    """The statically flagged data of barnes must be exactly the
    conflicting addresses a trace-based delay-set classifier finds
    (modulo conflicting addresses barnes flags conservatively)."""
    env = Env(SimConfig())
    inst = build_barnes(env, n_bodies=48, scope=FenceKind.SET)
    tracer = TraceCollector()
    sim = env.simulator(inst.program)
    for core in sim.cores:
        core.monitor = tracer
    sim.run(max_cycles=2_000_000)
    inst.check()
    classification = classify_trace(tracer)

    flagged_ranges = []
    for arr in (inst.pos_x, inst.pos_y):
        flagged_ranges.append((arr.base, arr.base + arr.length * arr.stride))

    def is_statically_flagged(addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in flagged_ranges)

    # every dynamically conflicting address inside the app's data is
    # statically flagged (the exchange region is flagged by construction)
    for addr in classification.conflicting:
        owner = env.space.owner_of(addr)
        if owner and owner.startswith("barnes.") and "exchange" not in owner:
            assert is_statically_flagged(addr), (addr, owner)
    # and nothing read-only got flagged
    for addr in classification.shared_read_only:
        assert not is_statically_flagged(addr), addr


def test_radiosity_readonly_data_unflagged():
    env = Env(SimConfig())
    inst = build_radiosity(env, n_patches=32, scope=FenceKind.SET)
    tracer = TraceCollector()
    sim = env.simulator(inst.program)
    for core in sim.cores:
        core.monitor = tracer
    sim.run(max_cycles=2_000_000)
    inst.check()
    classification = classify_trace(tracer)
    for addr in classification.shared_read_only:
        owner = env.space.owner_of(addr)
        if owner and owner.startswith("rad."):
            assert "inter" in owner or "factor" in owner, owner


# --------------------------------------------------------------- Shasha-Snir
DEKKER = [
    [("flag0", "w"), ("flag1", "r")],
    [("flag1", "w"), ("flag0", "r")],
]


def test_dekker_needs_both_delay_pairs():
    pairs = delay_pairs(DEKKER)
    assert ((0, 0), (0, 1)) in pairs
    assert ((1, 0), (1, 1)) in pairs


def test_dekker_fence_points():
    points = fence_points(DEKKER)
    assert points == {0: {0}, 1: {0}}


def test_message_passing_needs_writer_and_reader_order():
    mp = [
        [("data", "w"), ("flag", "w")],
        [("flag", "r"), ("data", "r")],
    ]
    pairs = delay_pairs(mp)
    assert ((0, 0), (0, 1)) in pairs  # writer: data before flag
    assert ((1, 0), (1, 1)) in pairs  # reader: flag before data


def test_independent_threads_need_no_fences():
    prog = [
        [("a", "w"), ("b", "w")],
        [("c", "w"), ("d", "w")],
    ]
    assert delay_pairs(prog) == set()


def test_read_only_sharing_needs_no_fences():
    prog = [
        [("x", "r"), ("y", "r")],
        [("x", "r"), ("y", "r")],
    ]
    assert delay_pairs(prog) == set()


def test_conflict_graph_structure():
    g = conflict_graph(DEKKER)
    # program edges within threads + bidirectional conflict edges
    assert g.has_edge((0, 0), (0, 1))
    assert g.has_edge((0, 0), (1, 1)) and g.has_edge((1, 1), (0, 0))
    kinds = {d["kind"] for _, _, d in g.edges(data=True)}
    assert kinds == {"program", "conflict"}
