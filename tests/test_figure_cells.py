"""Figure cells that are the same simulation run it once.

Every app figure sweep passes through the default machine, so Fig. 15's
300-cycle column, Fig. 16's 128-entry column and the MESI cells of the
backend comparison repeat Fig. 13's T and S runs.  A per-process memo
keyed on :func:`repro.campaign.figures.cell_key` serves the repeats,
and the chunk planner keeps cells sharing a key in one pool worker.
None of that may change a payload.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.campaign import (
    FIGURES,
    chaos_jobs,
    execute_job,
    figure_jobs,
    job_affinity,
    job_cost,
    litmus_jobs,
    plan_chunks,
    run_campaign,
)
from repro.campaign.engine import CHUNKS_PER_WORKER, MAX_CHUNK_JOBS
from repro.campaign.jobs import clear_warm_state, warm_slot
from repro.sim.simulator import Simulator

SCALE = 0.1
APP_FIGURES = ("fig13", "fig15", "fig16", "figbackend")


def _jobs(*figures):
    return [j for f in figures for j in figure_jobs(f, SCALE)]


def _payload(result) -> str:
    return json.dumps(result, sort_keys=True)


@pytest.fixture(scope="module")
def warm_run():
    """All four app figures inline on one warm memo, counting runs:
    fig13 + fig15 first, then fig16 + figbackend."""
    counts = []
    runs = [0]
    real_run = Simulator.run

    def counted(sim, *args, **kwargs):
        runs[0] += 1
        return real_run(sim, *args, **kwargs)

    clear_warm_state()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "run", counted)
        outcomes = []
        for figures in (("fig13", "fig15"), ("fig16", "figbackend")):
            campaign = run_campaign(_jobs(*figures), parallel=0)
            assert campaign.ok, [o.error for o in campaign.failures]
            outcomes += campaign.outcomes
            counts.append(runs[0])
    clear_warm_state()
    return outcomes, counts


def test_shared_cells_simulate_once(warm_run):
    outcomes, counts = warm_run
    assert len(outcomes) == 76
    assert counts == [32, 52]  # 40 cells -> 32 runs, 76 cells -> 52 runs


def test_warm_payloads_match_cold_payloads(warm_run):
    outcomes, _counts = warm_run
    for outcome in outcomes:
        clear_warm_state()
        cold = execute_job(outcome.job)
        assert _payload(cold) == _payload(outcome.result), outcome.job.label()
    clear_warm_state()


def test_shared_keys_across_figures():
    """The default-machine cells of each figure key onto Fig. 13's."""
    keys = {f: {job_affinity(j) for j in figure_jobs(f, SCALE)} for f in APP_FIGURES}
    assert len(keys["fig13"] & keys["fig15"]) == 8
    assert len(keys["fig13"] & keys["fig16"]) == 8
    assert len(keys["fig13"] & keys["figbackend"]) == 8
    assert keys["fig15"] & keys["fig16"] <= keys["fig13"]
    assert len(set().union(*keys.values())) == 52
    assert all(job_affinity(j) is None for j in _jobs("fig12", "fig14"))


def test_failing_check_raises_for_every_job_sharing_its_key(monkeypatch):
    import repro.apps.pst as pst

    real = pst.build_pst

    def failing_pst(env, **kwargs):
        instance = real(env, **kwargs)

        def check():
            raise AssertionError("pst check failed")

        return SimpleNamespace(program=instance.program, check=check)

    monkeypatch.setattr(pst, "build_pst", failing_pst)
    runs = [0]
    real_run = Simulator.run

    def counted(sim, *args, **kwargs):
        runs[0] += 1
        return real_run(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counted)
    fig13_t = next(j for j in figure_jobs("fig13", SCALE)
                   if j.params["app"] == "pst" and j.params["label"] == "T")
    shared = [j for j in _jobs(*APP_FIGURES)
              if job_affinity(j) == job_affinity(fig13_t)]
    assert [j.params["figure"] for j in shared] == [
        "fig13", "fig15", "fig16", "figbackend"]
    clear_warm_state()
    try:
        campaign = run_campaign(shared, parallel=0)
        assert [o.status for o in campaign.outcomes] == ["error"] * len(shared)
        assert all("pst check failed" in o.error for o in campaign.outcomes)
        assert runs[0] == len(shared)
        assert not warm_slot("figure-points")
    finally:
        clear_warm_state()


# ------------------------------------------------------------- chunk planning
def _contiguous_chunks(costs, target):
    """The cost-only greedy cut every affinity-free job list gets."""
    chunks, cur, acc = [], [], 0.0
    for index, cost in enumerate(costs):
        if cur and acc + cost > target:
            chunks.append(cur)
            cur, acc = [], 0.0
        cur.append(index)
        acc += cost
        if acc >= target or len(cur) >= MAX_CHUNK_JOBS:
            chunks.append(cur)
            cur, acc = [], 0.0
    return chunks + ([cur] if cur else [])


def test_plan_chunks_keeps_each_affinity_group_in_one_chunk():
    jobs = _jobs("fig12", *APP_FIGURES, "fig14")
    pending = list(range(len(jobs)))
    for parallel in (1, 2, 4):
        chunks = plan_chunks(jobs, pending, parallel)
        assert sorted(i for chunk in chunks for i in chunk) == pending
        assert all(chunk == sorted(chunk) for chunk in chunks)
        assert all(len(chunk) <= MAX_CHUNK_JOBS for chunk in chunks)
        home: dict = {}
        for n, chunk in enumerate(chunks):
            for i in chunk:
                key = job_affinity(jobs[i])
                if key is not None:
                    assert home.setdefault(key, n) == n, jobs[i].label()


def test_plan_chunks_leaves_affinity_free_lists_unchanged():
    jobs = (chaos_jobs(algos=["wsq"], scenarios=["storm", "latency"], n_seeds=2)
            + litmus_jobs() + _jobs("fig12", "fig14"))
    assert all(job_affinity(j) is None for j in jobs)
    costs = [job_cost(j) for j in jobs]
    pending = list(range(len(jobs)))
    for parallel in (1, 2, 4):
        target = sum(costs) / (parallel * CHUNKS_PER_WORKER)
        assert plan_chunks(jobs, pending, parallel) == _contiguous_chunks(costs, target)


def test_pool_matches_inline(warm_run):
    inline = warm_run[0][:40]  # the fig13 + fig15 campaign
    pooled = run_campaign(_jobs("fig13", "fig15"), parallel=2)
    assert pooled.outcomes == inline


# ------------------------------------------------------------------ labelling
@pytest.mark.parametrize("figure", FIGURES)
def test_figure_labels_name_the_cell(figure):
    labels = [j.label() for j in figure_jobs(figure, SCALE)]
    assert len(set(labels)) == len(labels)
    assert all(label.startswith(f"{figure}:") for label in labels)


def test_figure_label_shape():
    fig15 = figure_jobs("fig15", SCALE)[0]
    assert fig15.label() == "fig15:pst/mem_latency=200/global/mesi"
    backend = figure_jobs("figbackend", SCALE)[-1]
    assert backend.label() == "figbackend:radiosity/SiSd/sisd"
    assert figure_jobs("fig12", SCALE)[1].label() == "fig12:dekker/level=1/scoped/mesi"
