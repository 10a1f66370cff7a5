"""Determinism regression for the campaign engine's core contract.

A campaign with the same seeds must produce byte-identical results
whether it runs in-process, in a single worker subprocess, or on a
multi-worker pool -- and identical to running the cases directly.
The ``probe`` job kind digests the *entire* per-core monitor event
stream (every dispatch, drain, fence, scope and squash event, every
field), so these tests fail on any divergence in simulation behaviour,
not just on differing headline stats.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.campaign import chaos_jobs, probe_jobs, run_campaign

PROBE_CASES = [("wsq", "storm", 3), ("lamport", "scope", 4)]

#: (algo, scenario, seed, mem_backend) -> (cycles, events_sha) of the
#: probe's full monitor stream, recorded before dispatch was unified
#: into the fused lanes.  Dense-vs-event runs share dispatch, so these
#: pins (with the chaos checkers and verify's oracle) are what catches
#: a dispatch change that moves an event, its order or its arguments.
#: ``msn/branch`` drives the mispredict/squash path; the SiSd probe
#: pins ``coherence_sync`` events and their order against ``fence_pass``.
PINNED_PROBES = {
    ("wsq", "storm", 3, "mesi"): (
        7404, "82df72f219dbb50e95a668d03e54ee509413c4baba14daf4c563153b889fd5f6"),
    ("lamport", "scope", 4, "mesi"): (
        5613, "c89c0bb867cc0d0698a133b61b765da113545b221b909f07e233cbb7d957d3fb"),
    ("msn", "branch", 1, "mesi"): (
        5965, "aa08d0b83db9adebe01305a28b1e23945ccaeca6ebbf3a94cc7f9297a6d3dce3"),
    ("wsq", "latency", 2, "sisd"): (
        9008, "307095f44302428259602b181e7e6db87ffaca52aac1a176effe1b9b148d19bf"),
}


def _results(jobs, parallel):
    campaign = run_campaign(jobs, parallel=parallel)
    assert campaign.ok, [o.error for o in campaign.failures]
    return campaign.results()


def test_probe_identical_across_execution_modes():
    jobs = probe_jobs(PROBE_CASES)
    inline = _results(jobs, parallel=0)
    single = _results(jobs, parallel=1)
    pool = _results(jobs, parallel=2)
    assert inline == single == pool
    # the probes did real work and the digests cover real streams
    for r in inline:
        assert r["status"] == "ok"
        assert r["events"] > 100
        assert r["violations"] == 0
        assert r["stats"]["total_cycles"] > 0


def test_probe_event_stream_stable_within_one_process():
    jobs = probe_jobs([PROBE_CASES[0]])
    first = _results(jobs, parallel=0)
    second = _results(jobs, parallel=0)
    assert first == second


def test_probe_seeds_change_the_stream():
    base, other = probe_jobs([("wsq", "storm", 3), ("wsq", "storm", 5)])
    r = _results([base, other], parallel=0)
    assert r[0]["events_sha"] != r[1]["events_sha"]


def test_chaos_campaign_matches_direct_cases():
    """Pool execution reproduces directly run cases' reports exactly."""
    from repro.chaos.runner import run_chaos_case

    algos, scenarios, n_seeds = ["wsq", "msn"], ["latency", "scope"], 2
    direct = [asdict(run_chaos_case(algo, scenario, seed))
              for scenario in scenarios for algo in algos
              for seed in range(n_seeds)]
    jobs = chaos_jobs(algos=algos, scenarios=scenarios, n_seeds=n_seeds)
    pooled = _results(jobs, parallel=2)
    assert pooled == direct


def test_probe_agrees_with_chaos_case():
    """A probe is its chaos case plus an event log: same run, same verdict."""
    probes = _results(probe_jobs(PROBE_CASES), parallel=0)
    cases = _results([chaos_jobs(algos=[a], scenarios=[sc], n_seeds=1,
                                 seed_base=s)[0]
                      for a, sc, s in PROBE_CASES], parallel=0)
    for probe, case in zip(probes, cases):
        assert probe["status"] == case["status"] == "ok"
        assert probe["cycles"] == case["cycles"]
        assert probe["violations"] == case["violations"]


def test_outcomes_return_in_submission_order():
    """Workers finish in any order; the result list must not."""
    jobs = chaos_jobs(algos=["wsq", "lamport"], scenarios=["latency"], n_seeds=2)
    campaign = run_campaign(jobs, parallel=2)
    for job, outcome in zip(jobs, campaign.outcomes):
        assert outcome.job.params == job.params


@pytest.mark.parametrize("case", sorted(PINNED_PROBES),
                         ids=lambda c: "/".join(map(str, c)))
def test_probe_stream_matches_pin(case):
    """The monitor stream of each pinned probe is byte-identical to the
    one recorded when the pins were taken."""
    algo, scenario, seed, backend = case
    (r,) = _results(probe_jobs([(algo, scenario, seed)], mem_backend=backend),
                    parallel=0)
    assert r["status"] == "ok" and r["violations"] == 0
    assert (r["cycles"], r["events_sha"]) == PINNED_PROBES[case]
