"""Idempotent work stealing: semantics and the pst comparison."""

import pytest

from repro.algorithms.idempotent_wsq import EMPTY, IdempotentLifo
from repro.apps.pst import build_pst
from repro.isa.instructions import Compute, FenceKind
from repro.isa.program import Program
from repro.runtime.lang import Env
from repro.sim.config import SimConfig


def test_lifo_single_thread():
    env = Env(SimConfig(n_cores=1))
    q = IdempotentLifo(env, capacity=16)
    got = []

    def body(tid):
        for v in (1, 2, 3):
            yield from q.put(v)
        for _ in range(4):
            got.append((yield from q.extract()))

    env.run(Program([body]))
    assert got == [3, 2, 1, EMPTY]


def test_at_least_once_under_contention():
    """Every put task is extracted at least once; duplicates are
    legal (the whole point of the relaxation)."""
    env = Env(SimConfig(n_cores=4))
    q = IdempotentLifo(env, capacity=64)
    extracted = []
    done = env.var("iw.done")

    def owner(tid):
        for i in range(12):
            yield from q.put(i + 1)
            yield Compute(30)
        while True:  # drain
            t = yield from q.extract()
            if t == EMPTY:
                break
            extracted.append(t)
        yield done.store(1)

    def thief(tid):
        while True:
            if (yield done.load()):
                s, _ = 0, 0
                return
            t = yield from q.extract()
            if t != EMPTY:
                extracted.append(t)

    env.run(Program([owner, thief, thief, thief]), max_cycles=3_000_000)
    # at-least-once: nothing may be lost
    missing = set(range(1, 13)) - set(extracted)
    # anything still in the pool at exit also counts as "not lost"
    size, _ = q.snapshot()
    assert size == 0
    assert not missing, f"idempotent pool lost tasks: {missing}"


def test_extract_has_no_fence():
    """The selling point: extraction executes zero fences."""
    env = Env(SimConfig(n_cores=1))
    q = IdempotentLifo(env, capacity=8)

    def body(tid):
        yield from q.put(5)
        yield from q.extract()
        yield from q.extract()

    res = env.run(Program([body]))
    assert res.stats.fences == 1  # only put's store-store fence


def test_capacity_checked():
    env = Env(SimConfig(n_cores=1))
    with pytest.raises(ValueError):
        IdempotentLifo(env, capacity=0)


def test_pst_runs_on_idempotent_pool():
    from repro.algorithms.idempotent_wsq import IdempotentLifo as IL

    env = Env(SimConfig())
    inst = build_pst(
        env,
        n_vertices=64,
        extra_edges=48,
        deque_factory=lambda env, name, cap, scope: IL(env, name, cap, scope),
    )
    env.run(inst.program, max_cycles=5_000_000)
    inst.check()  # the spanning tree is still exact (claims are CAS-deduped)


def test_pst_idempotent_executes_fewer_fences():
    def run(factory):
        env = Env(SimConfig())
        inst = build_pst(env, n_vertices=64, extra_edges=48, deque_factory=factory)
        res = env.run(inst.program, max_cycles=5_000_000)
        inst.check()
        return res

    from repro.algorithms.idempotent_wsq import IdempotentLifo as IL

    standard = run(None)
    idem = run(lambda env, name, cap, scope: IL(env, name, cap, scope))
    assert idem.stats.fences < standard.stats.fences


def test_scoping_helps_either_deque():
    """Scoping vs removal (Sec. VII) on pst at 128 vertices: removing the
    take fence runs fewer fences, and scoping helps either deque."""
    from repro.algorithms.idempotent_wsq import IdempotentLifo as IL

    def run(scope, idempotent):
        factory = None
        if idempotent:
            factory = lambda env, name, cap, sc: IL(env, name, cap, sc)  # noqa: E731
        env = Env(SimConfig())
        inst = build_pst(env, n_vertices=128, extra_edges=128, scope=scope,
                         deque_factory=factory)
        res = env.run(inst.program, max_cycles=30_000_000)
        inst.check()
        return res

    cl_t, cl_s, id_t, id_s = (run(scope, idem) for idem in (False, True)
                              for scope in (FenceKind.GLOBAL, FenceKind.CLASS))
    assert id_t.stats.fences < cl_t.stats.fences
    assert cl_s.cycles <= cl_t.cycles * 1.02
    assert id_s.cycles <= id_t.cycles * 1.02
