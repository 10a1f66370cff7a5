"""Acceptance sweep: >=20 seeds x the full algorithm suite under forced
mapping-table/FSS pressure, with zero invariant violations.

The ``scope`` scenario runs a 2-entry FSB / 2-entry FSS / 2-entry
mapping table *and* randomly forces the overflow counter, so entry
sharing, mapping overflow and counter mode all trigger; ``storm`` layers
every injector (latency, branch flips, drain throttling, overflow) on
top of in-window speculation.  Every case must finish, satisfy every
ordering invariant, and pass its algorithm's own linearizability check.
"""

import pytest

from repro.campaign import chaos_jobs, run_campaign
from repro.chaos.runner import ALGORITHMS, SCENARIOS, ChaosReport, run_chaos_case

N_SEEDS = 20


def _sweep(**kwargs) -> list[ChaosReport]:
    """The chaos cross product run inline, one report per case."""
    campaign = run_campaign(chaos_jobs(**kwargs), parallel=0)
    assert campaign.ok, [o.error for o in campaign.failures]
    return [ChaosReport(**r) for r in campaign.results()]


def _assert_all_ok(reports):
    bad = [r for r in reports if not r.ok]
    detail = "\n\n".join(
        f"{r.algo}/{r.scenario} seed={r.seed}: {r.status}\n{r.detail}"
        for r in bad[:3]
    )
    assert not bad, f"{len(bad)}/{len(reports)} chaos cases failed:\n{detail}"
    assert all(r.violations == 0 for r in reports)


def test_scope_pressure_sweep_clean():
    """The headline acceptance case: forced overflow, 20 seeds, all algos."""
    reports = _sweep(scenarios=["scope"], n_seeds=N_SEEDS)
    assert len(reports) == N_SEEDS * len(ALGORITHMS)
    _assert_all_ok(reports)
    # the sweep genuinely drove the degraded paths
    assert sum(r.injected.get("scope_overflow", 0) for r in reports) > 50
    # and genuinely checked fences on every case
    assert all(r.fences_checked > 0 for r in reports)
    # both fence flavours were exercised (seed parity alternates them)
    assert {r.scope for r in reports} == {"class", "set"}


def test_storm_sweep_clean():
    reports = _sweep(scenarios=["storm"], n_seeds=N_SEEDS)
    assert len(reports) == N_SEEDS * len(ALGORITHMS)
    _assert_all_ok(reports)
    injected = {}
    for r in reports:
        for key, n in r.injected.items():
            injected[key] = injected.get(key, 0) + n
    for key in ("mem_spike", "mem_jitter", "branch_flip", "scope_overflow",
                "drain_stall"):
        assert injected.get(key, 0) > 0, f"storm never injected {key}"


@pytest.mark.parametrize("scenario", ["latency", "branch", "drain"])
def test_single_fault_scenarios_clean(scenario):
    reports = _sweep(scenarios=[scenario], n_seeds=4)
    _assert_all_ok(reports)


def test_case_is_deterministic():
    a = run_chaos_case("wsq", "storm", 7)
    b = run_chaos_case("wsq", "storm", 7)
    assert (a.cycles, a.events, a.fences_checked, a.injected) == \
           (b.cycles, b.events, b.fences_checked, b.injected)


def test_seeds_actually_vary_the_run():
    cycles = {run_chaos_case("msn", "latency", s).cycles for s in range(4)}
    assert len(cycles) > 1


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        chaos_jobs(algos=["nope"], n_seeds=1)
    with pytest.raises(KeyError):
        chaos_jobs(scenarios=["nope"], n_seeds=1)


def test_scenarios_cover_every_injector():
    """Guard the preset table: between them, the scenarios must exercise
    every FaultPlan knob."""
    knobs = set()
    for scen in SCENARIOS.values():
        p = scen.plan
        if p.mem_spike_prob:
            knobs.add("spike")
        if p.mem_jitter:
            knobs.add("jitter")
        if p.branch_flip_prob:
            knobs.add("branch")
        if p.scope_overflow_prob:
            knobs.add("overflow")
        if p.drain_stall_prob:
            knobs.add("drain")
    assert knobs == {"spike", "jitter", "branch", "overflow", "drain"}
