"""Full-application tests: pst, ptc, barnes, radiosity."""

import pytest

from repro.apps.barnes import build_barnes
from repro.apps.pst import build_pst
from repro.apps.ptc import build_ptc
from repro.apps.radiosity import build_radiosity
from repro.isa.instructions import FenceKind
from repro.runtime.lang import Env
from repro.sim.config import SimConfig


# ----------------------------------------------------------------------- pst
@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.CLASS, FenceKind.SET])
def test_pst_builds_spanning_tree(scope):
    env = Env(SimConfig())
    inst = build_pst(env, n_vertices=64, extra_edges=64, scope=scope)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()


def test_pst_scoped_not_slower():
    cyc = {}
    for scope in (FenceKind.GLOBAL, FenceKind.CLASS):
        env = Env(SimConfig())
        inst = build_pst(env, scope=scope)
        cyc[scope] = env.run(inst.program, max_cycles=2_000_000).cycles
        inst.check()
    assert cyc[FenceKind.CLASS] <= cyc[FenceKind.GLOBAL]


def test_pst_single_thread():
    env = Env(SimConfig(n_cores=1))
    inst = build_pst(env, n_vertices=32, extra_edges=16, n_threads=1)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()


def test_pst_different_seeds_give_different_graphs():
    env1, env2 = Env(SimConfig()), Env(SimConfig())
    i1 = build_pst(env1, n_vertices=48, extra_edges=32, seed=1)
    i2 = build_pst(env2, n_vertices=48, extra_edges=32, seed=2)
    assert i1.graph.neighbors != i2.graph.neighbors


# ----------------------------------------------------------------------- ptc
@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.CLASS])
def test_ptc_computes_exact_closure(scope):
    env = Env(SimConfig())
    inst = build_ptc(env, n_vertices=32, scope=scope)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()


def test_ptc_rejects_oversized_graphs():
    env = Env(SimConfig())
    with pytest.raises(ValueError):
        build_ptc(env, n_vertices=64)


def test_ptc_closure_reference_is_sane():
    env = Env(SimConfig())
    inst = build_ptc(env, n_vertices=16, avg_out_degree=1.5, seed=3)
    masks = inst.expected_closure()
    for v in range(16):
        assert masks[v] & (1 << v)  # every vertex reaches itself
        for s in inst.graph.neighbors_of(v):
            assert masks[v] & masks[s] == masks[s]  # closure containment


# -------------------------------------------------------------------- barnes
@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.SET])
def test_barnes_updates_every_body(scope):
    env = Env(SimConfig())
    inst = build_barnes(env, n_bodies=64, scope=scope)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()


@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.SET])
def test_barnes_check_accepts_an_identity_update(scope):
    """At 10 bodies, body 7's force rounds to -1 per axis, so its update
    ``b + (a >> 8) + 1`` leaves it where it started: the check must
    compare against the published position, not the initial one."""
    env = Env(SimConfig())
    inst = build_barnes(env, n_bodies=10, scope=scope)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()
    assert len(inst.published) == 10


def test_barnes_set_scope_reduces_stalls():
    frac = {}
    for scope in (FenceKind.GLOBAL, FenceKind.SET):
        env = Env(SimConfig())
        inst = build_barnes(env, n_bodies=128, scope=scope)
        res = env.run(inst.program, max_cycles=4_000_000)
        inst.check()
        frac[scope] = res.stats.fence_stall_fraction
    assert frac[FenceKind.SET] < frac[FenceKind.GLOBAL]


def test_barnes_flags_follow_scope():
    env = Env(SimConfig())
    inst = build_barnes(env, n_bodies=32, scope=FenceKind.SET)
    assert inst.pos_x.flagged and inst.pos_y.flagged
    env2 = Env(SimConfig())
    inst2 = build_barnes(env2, n_bodies=32, scope=FenceKind.GLOBAL)
    assert not inst2.pos_x.flagged


# ------------------------------------------------------------------ radiosity
@pytest.mark.parametrize("scope", [FenceKind.GLOBAL, FenceKind.SET])
def test_radiosity_converges_every_patch(scope):
    env = Env(SimConfig())
    inst = build_radiosity(env, n_patches=48, scope=scope)
    env.run(inst.program, max_cycles=2_000_000)
    inst.check()


def test_radiosity_energy_grows_with_rounds():
    totals = []
    for rounds in (1, 2):
        env = Env(SimConfig())
        inst = build_radiosity(env, n_patches=48, rounds=rounds)
        env.run(inst.program, max_cycles=2_000_000)
        inst.check()
        totals.append(sum(inst.radiosity.peek(p) for p in range(48)))
    assert totals[1] > totals[0]


def test_radiosity_scoped_is_faster():
    cyc = {}
    for scope in (FenceKind.GLOBAL, FenceKind.SET):
        env = Env(SimConfig())
        inst = build_radiosity(env, scope=scope)
        cyc[scope] = env.run(inst.program, max_cycles=2_000_000).cycles
        inst.check()
    assert cyc[FenceKind.SET] < cyc[FenceKind.GLOBAL]
