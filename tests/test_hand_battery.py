"""The hand battery: one chaos run per cell, two results.

The whole-program synthesizer calibrates its delay-pair monitor spec
and judges the hand placement from the same chaos runs
(:func:`repro.synth.programs.hand_battery`).  That rests on the pair
monitor's watch-only mode in :func:`repro.chaos.runner.run_plan_case`,
and on the merged battery giving exactly what the old two passes gave:
a judging calibration pass, then ``chaos_validate`` with the calibrated
spec.  These tests pin both, plus a guard that each hand cell runs once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.runner import run_plan_case
from repro.runtime.harness import FencePlan
from repro.synth import programs
from repro.synth.programs import (
    CHAOS_SCENARIOS,
    CHAOS_SEEDS,
    analyze_app,
    app_entry,
    chaos_validate,
    hand_battery,
    run_app_synth_case,
)


@pytest.fixture(scope="module")
def ptc():
    entry = app_entry("ptc")
    return entry, analyze_app(entry)


def _hand_builder(entry):
    def builder(env, emit_branches):
        return entry.chaos_build(env, FencePlan.hand(), entry.hand_scope,
                                 emit_branches)
    return builder


def test_pair_monitor_judges_or_only_watches(ptc):
    """ptc's hand build trips 9 of its statically hand-enforced patterns
    on cell ("drain", 0): a judging run fails on them, a watch-only run
    records the same 9 and passes."""
    entry, analysis = ptc
    runs = {
        watch_only: run_plan_case(
            _hand_builder(entry), "drain", 0, patterns=analysis.hand_enforced,
            label=entry.name, watch_only=watch_only)
        for watch_only in (False, True)
    }
    judged, watched = runs[False], runs[True]
    assert judged.status == "violations"
    assert len(judged.pair_violated) == 9
    assert "delay-pair" in judged.detail
    assert judged.violations > 0
    assert watched.status == "ok"
    assert watched.pair_violated == judged.pair_violated
    assert watched.violations == 0 and watched.detail == ""
    assert watched.cycles == judged.cycles


def _two_pass(entry, candidates, scenarios, seeds, base_budget):
    """The calibration pass and the hand validation pass, run apart."""
    violated: set = set()
    for scenario in scenarios:
        for seed in seeds:
            rep = run_plan_case(
                _hand_builder(entry), scenario, seed, patterns=candidates,
                label=entry.name, base_budget=base_budget)
            violated.update(tuple(p) for p in rep.pair_violated)
    monitored = candidates - violated
    verdict = chaos_validate(
        entry, FencePlan.hand(), entry.hand_scope, monitored,
        scenarios, seeds, base_budget=base_budget)
    return monitored, violated, verdict


def test_hand_battery_equals_the_two_passes_on_a_failing_battery(ptc):
    """A 500-cycle budget starves one ptc cell: the one-battery result
    (spec, discarded patterns, verdict with its failures) must equal the
    calibrate-then-validate result."""
    entry, analysis = ptc
    args = (entry, analysis.hand_enforced, CHAOS_SCENARIOS, CHAOS_SEEDS)
    merged = hand_battery(*args, base_budget=500)
    monitored, discarded, verdict = merged
    assert not verdict["ok"]
    assert {f["status"] for f in verdict["failures"]} == {"budget"}
    assert verdict["runs"] > len(verdict["failures"])
    assert discarded, "nothing calibrated out -- the comparison is vacuous"
    assert merged == _two_pass(*args, base_budget=500)


def test_app_synth_runs_each_hand_cell_once(monkeypatch):
    entry = app_entry("chase-lev")
    built: dict = {}
    cells: list = []

    def spy_build(env, plan, scope, emit_branches):
        built["hand"] = (plan.default == "hand" and not plan.modes
                         and scope == entry.hand_scope)
        return entry.chaos_build(env, plan, scope, emit_branches)

    def spy_case(builder, scenario, seed, **kwargs):
        built.clear()
        rep = run_plan_case(builder, scenario, seed, **kwargs)
        cells.append((built["hand"], scenario, seed))
        return rep

    monkeypatch.setitem(programs.APP_CORPUS, "chase-lev",
                        dataclasses.replace(entry, chaos_build=spy_build))
    monkeypatch.setattr(programs, "run_plan_case", spy_case)
    payload = run_app_synth_case(
        "chase-lev", scenarios=("drain",), seeds=(0,), measure_costs=False)
    assert [c for c in cells if c[0]] == [(True, "drain", 0)]
    assert payload["soundness"]["hand"] == {
        "runs": 1, "failures": [], "ok": True}
    # mutants and the synthesized placement still run their own cells
    assert len(cells) > 1
