"""Branch models, trace collection, workload graph generators."""

import pytest

from repro.apps.graphs import predecessors_of, random_connected_graph, random_dag
from repro.apps.quadtree import build_quadtree
from repro.cpu.branch import AlternatingBranchModel, BranchModel, RandomBranchModel
from repro.isa.instructions import Load, Store
from repro.isa.program import ops_program
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceCollector


# -------------------------------------------------------------------- branch
def test_base_model_never_mispredicts():
    m = BranchModel()
    assert not any(m.branch().mispredict for _ in range(20))


def test_random_model_is_seeded():
    m1 = RandomBranchModel(0.5, seed=1)
    m2 = RandomBranchModel(0.5, seed=1)
    a = [m1.branch().mispredict for _ in range(50)]
    b = [m2.branch().mispredict for _ in range(50)]
    assert a == b
    assert any(a) and not all(a)


def test_random_model_extremes():
    assert not any(RandomBranchModel(0.0).branch().mispredict for _ in range(20))
    assert all(RandomBranchModel(1.0).branch().mispredict for _ in range(20))
    with pytest.raises(ValueError):
        RandomBranchModel(1.5)


def test_alternating_model_period():
    m = AlternatingBranchModel(3)
    flags = [m.branch().mispredict for _ in range(9)]
    assert flags == [False, False, True] * 3


# --------------------------------------------------------------------- trace
def test_trace_records_memory_ops():
    tracer = TraceCollector()
    prog = ops_program([[Store(10, 1), Load(10), Load(20)]])
    sim = Simulator(SimConfig(n_cores=1), prog)
    sim.cores[0].monitor = tracer
    sim.run()
    kinds = [(r.kind, r.addr) for r in tracer.records]
    assert ("store", 10) in kinds and ("load", 10) in kinds and ("load", 20) in kinds
    assert len(tracer) == 3
    assert set(tracer.by_addr()) == {10, 20}


# -------------------------------------------------------------------- graphs
def test_connected_graph_is_connected():
    g = random_connected_graph(40, 20, seed=3)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors_of(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(40))


def test_connected_graph_is_symmetric():
    g = random_connected_graph(20, 10, seed=1)
    for v in range(20):
        for w in g.neighbors_of(v):
            assert v in g.neighbors_of(w)


def test_graph_seeded_determinism():
    g1 = random_connected_graph(30, 15, seed=9)
    g2 = random_connected_graph(30, 15, seed=9)
    assert g1.neighbors == g2.neighbors and g1.offsets == g2.offsets


def test_dag_edges_point_forward():
    g = random_dag(30, 2.0, seed=4)
    for v in range(30):
        assert all(w > v for w in g.neighbors_of(v))


def test_predecessors_inverts_successors():
    g = random_dag(25, 2.0, seed=5)
    p = predecessors_of(g)
    for v in range(25):
        for w in g.neighbors_of(v):
            assert v in p.neighbors_of(w)
    assert p.n_edges == g.n_edges


def test_graph_degree_helper():
    g = random_connected_graph(10, 0, seed=2)
    assert sum(g.degree(v) for v in range(10)) == g.n_edges


# ------------------------------------------------------------------ quadtree
def test_quadtree_counts_and_leaves():
    import random

    rng = random.Random(0)
    bodies = [(rng.random(), rng.random()) for _ in range(50)]
    tree = build_quadtree(bodies, leaf_capacity=4)
    assert tree.count[tree.root] == 50
    collected = []
    stack = [tree.root]
    while stack:
        c = stack.pop()
        if tree.is_leaf(c):
            collected += tree.leaf_bodies(c)
        else:
            stack += [k for k in tree.children[c] if k != -1]
    assert sorted(collected) == list(range(50))
    assert all(len(tree.leaf_bodies(c)) <= 4 or tree.depth() >= 16
               for c in range(tree.n_cells) if tree.is_leaf(c))


def test_quadtree_com_inside_unit_square():
    import random

    rng = random.Random(1)
    bodies = [(rng.random(), rng.random()) for _ in range(20)]
    tree = build_quadtree(bodies)
    for cx, cy in tree.com:
        assert 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0


def test_quadtree_requires_bodies():
    with pytest.raises(ValueError):
        build_quadtree([])
