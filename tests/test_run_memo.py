"""The litmus run memo is exact and keyed on everything a run reads.

:func:`run_litmus` memoises each offset pair's ``(cycles, outcome)``
per process under :func:`run_content_key` (config, statements, init
values, flagged set) and the two delays.  These tests hold a cold and a
warm memo to a reference that rebuilds everything for every pair, show
that variants equal in content under different names share entries,
and that configs differing in one knob never do.
"""

import pytest

from repro.campaign import verify_jobs
from repro.campaign.engine import plan_chunks
from repro.campaign.jobs import clear_warm_state, job_affinity, warm_slot
from repro.litmus.corpus import CORPUS
from repro.litmus.dsl import (
    LitmusTest,
    litmus_config,
    parse_litmus,
    run_content_key,
    run_litmus,
)
from repro.sim.config import MEM_BACKENDS, MemoryModel
from repro.sim.simulator import Simulator
from repro.verify.modes import FENCE_MODES, apply_fence_mode
from tests.test_litmus_sweep import OFFSETS, _reference_sweep

SB = next(e for e in CORPUS if e.name == "SB")


@pytest.fixture
def sim_runs(monkeypatch) -> list:
    """Counts every ``Simulator.run`` call (one per simulated pair)."""
    calls = []
    run = Simulator.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counted)
    return calls


def _observed(run) -> tuple[set, list, int]:
    return run.outcomes, run.register_names, run.total_cycles


@pytest.mark.parametrize("backend", MEM_BACKENDS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_cold_warm_and_memo_free_sweeps_agree(entry, backend, sim_runs):
    """Every fence-mode variant the verify matrix runs gives the same
    outcomes, register names and total cycles from a cold memo, from a
    warm one (which simulates nothing) and from a per-pair rebuild."""
    for mode in FENCE_MODES:
        test = apply_fence_mode(parse_litmus(entry.source), mode)
        want = _reference_sweep(test, backend)
        clear_warm_state()
        cold = run_litmus(test, MemoryModel.RMO, OFFSETS, mem_backend=backend)
        assert _observed(cold) == want, f"{entry.name}[{mode}] cold"
        del sim_runs[:]
        warm = run_litmus(test, MemoryModel.RMO, OFFSETS, mem_backend=backend)
        assert not sim_runs, f"{entry.name}[{mode}] warm sweep simulated"
        assert _observed(warm) == want, f"{entry.name}[{mode}] warm"


def test_equal_content_under_another_name_shares_runs(sim_runs):
    """The key leaves out the name and the ``exists`` clause: SB, its
    fence-stripped variant and a renamed copy judged by another
    condition are one program, simulated once."""
    sb = parse_litmus(SB.source)
    first = run_litmus(sb, offsets=OFFSETS)
    assert len(sim_runs) == len(OFFSETS) ** 2
    renamed = LitmusTest("SB-renamed", [list(t) for t in sb.threads],
                         dict(sb.init), set(sb.flagged), "r0 == 1")
    for variant in (apply_fence_mode(sb, "none"), renamed):
        run = run_litmus(variant, offsets=OFFSETS)
        assert len(sim_runs) == len(OFFSETS) ** 2, variant.name
        assert _observed(run) == _observed(first)
    # each test's own condition still judges the shared outcomes
    assert run.register_names == ["r0", "r1"]
    assert run.condition_observed == any(o[0] == 1 for o in run.outcomes)
    assert len(warm_slot("litmus-runs")) == 1


def test_overlapping_grids_simulate_only_new_pairs(sim_runs):
    sb = parse_litmus(SB.source)
    run_litmus(sb, offsets=[0, 1])
    assert len(sim_runs) == 4
    run_litmus(sb, offsets=[0, 1, 40])
    assert len(sim_runs) == 9


@pytest.mark.parametrize("knob", [
    {"mem_backend": "sisd"},
    {"model": MemoryModel.TSO},
    {"n_cores": 4},
], ids=lambda k: next(iter(k)))
def test_configs_differing_in_one_knob_never_share(knob, sim_runs):
    """A mesi-vs-sisd (or model, or core-count) comparison must compare
    two simulations, never a result with its own cached copy."""
    sb = parse_litmus(SB.source)
    run_litmus(sb, offsets=OFFSETS)
    assert len(sim_runs) == len(OFFSETS) ** 2
    run_litmus(sb, offsets=OFFSETS, **knob)
    assert len(sim_runs) == 2 * len(OFFSETS) ** 2
    default = run_content_key(sb, litmus_config(sb))
    params = {k: v for k, v in knob.items() if k != "model"}
    other = run_content_key(sb, litmus_config(
        sb, knob.get("model", MemoryModel.RMO), **params))
    assert default != other
    assert len(warm_slot("litmus-runs")) == 2


def test_programs_differing_in_flags_or_init_never_share(sim_runs):
    """Under a set fence the flagged set decides what the fence waits
    for, and init values are what the loads read: both are content."""
    sb = parse_litmus(SB.source)
    fenced = LitmusTest("SB+set", [[t[0], "fence.set", t[1]] for t in sb.threads])
    variants = [
        fenced,
        LitmusTest("SB+set", fenced.threads, flagged={"x"}),
        LitmusTest("SB+set", fenced.threads, init={"x": 2}),
    ]
    for n, variant in enumerate(variants, start=1):
        run_litmus(variant, offsets=OFFSETS)
        assert len(sim_runs) == n * len(OFFSETS) ** 2, variant
    assert len(warm_slot("litmus-runs")) == len(variants)


def test_verify_cells_of_one_program_share_affinity():
    """SB has no fences: its ``orig`` and ``none`` cells are the same
    program on the same backend, so they share an affinity (and a
    worker); other backends do not."""
    jobs = verify_jobs(backends=list(MEM_BACKENDS), smoke=True)
    sb = {(j.params["mode"], j.params["backend"]): j
          for j in jobs if j.params["name"] == "SB"}
    key = job_affinity(sb["orig", "mesi"])
    assert job_affinity(sb["none", "mesi"]) == key
    assert job_affinity(sb["full", "mesi"]) != key
    assert job_affinity(sb["orig", "sisd"]) != key
    for parallel in (1, 2):
        home = {}
        for n, chunk in enumerate(plan_chunks(jobs, list(range(len(jobs))),
                                              parallel)):
            for i in chunk:
                assert home.setdefault(job_affinity(jobs[i]), n) == n
