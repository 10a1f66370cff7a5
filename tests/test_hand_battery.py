"""The hand battery: one chaos run per cell, two results.

The whole-program synthesizer calibrates its delay-pair monitor spec
and judges the hand placement from the same chaos runs
(:func:`repro.synth.programs.hand_battery`).  That rests on the pair
monitor's watch-only mode in :func:`repro.chaos.runner.run_plan_case`,
and on the merged battery giving exactly what the old two passes gave:
a judging calibration pass, then ``chaos_validate`` with the calibrated
spec.  These tests pin both, plus a guard that each hand cell runs once,
and guards that where the synthesized placement is the hand placement
(whose battery verdict and cost run the synthesizer then reuses) both
plans build the same program.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.chaos.runner import probe_builder, run_plan_case
from repro.isa.instructions import FenceKind
from repro.mem.memory import SharedMemory
from repro.runtime.harness import FencePlan
from repro.synth import programs
from repro.synth.programs import (
    CHAOS_SCENARIOS,
    CHAOS_SEEDS,
    analyze_app,
    app_entry,
    builds_hand_program,
    chaos_validate,
    hand_battery,
    measure_app_cycles,
    run_app_synth_case,
)

APP_SYNTH_REPORT = Path(__file__).resolve().parents[1] / "app-synth-report.json"
#: apps whose synthesized placement is the hand placement
HAND_PROGRAM_APPS = ("ptc", "harris-list")


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


class _CountingPlan(FencePlan):
    """A plan that counts the fence calls each slot receives."""

    def __init__(self, modes=None, default="hand"):
        super().__init__(modes, default)
        self.calls: Counter = Counter()

    def fence(self, slot, *args, **kwargs):
        self.calls[slot] += 1
        return super().fence(slot, *args, **kwargs)


def _committed_placements() -> dict:
    cases = json.loads(APP_SYNTH_REPORT.read_text())["cases"]
    return {name: (case["synthesized"], FenceKind(case["scope"]))
            for name, case in cases.items()}


def test_hand_program_is_synthesized_for_ptc_and_harris_list_only():
    """The apps the synthesizer reuses the hand results for; a new one
    needs a case in the test below."""
    reused = {
        name for name, (assignment, scope) in _committed_placements().items()
        if builds_hand_program(app_entry(name), analyze_app(app_entry(name)),
                               assignment, scope)
    }
    assert reused == set(HAND_PROGRAM_APPS)


@pytest.mark.parametrize("name", HAND_PROGRAM_APPS)
def test_synthesized_placement_builds_the_hand_program(name, monkeypatch):
    """Where the committed synthesized placement is the hand placement,
    the synthesizer reuses the hand battery and hand cost run for it.

    The predicate reads only the recorded slots, and the synthesized
    plan elides every other slot, so it holds only if the recording
    reaches every slot the hand build fences.  Every battery cell,
    contended ones included (a failed CAS sends a thread down its retry
    path), and the cost build must fence only recorded slots, and each
    cell's full monitor event stream must agree between the two plans.
    """
    entry = app_entry(name)
    analysis = analyze_app(entry)
    assignment, scope = _committed_placements()[name]
    assert builds_hand_program(entry, analysis, assignment, scope)
    failed_cas = []
    cas = SharedMemory.cas

    def counting_cas(self, *args):
        ok = cas(self, *args)
        failed_cas.append(not ok)
        return ok

    monkeypatch.setattr(SharedMemory, "cas", counting_cas)
    retried = []
    for scenario in CHAOS_SCENARIOS:
        for seed in CHAOS_SEEDS:
            hand = _CountingPlan()
            probes = []
            for plan in (hand, FencePlan(dict(assignment), default="none")):
                del failed_cas[:]
                probes.append(probe_builder(
                    lambda env, br, plan=plan: entry.chaos_build(
                        env, plan, scope, br),
                    scenario, seed, label=name, scope=scope))
            cell = (scenario, seed)
            assert probes[0]["events"] > 0, cell
            assert probes[0] == probes[1], cell
            assert set(hand.calls) <= set(analysis.slots), cell
            if any(failed_cas):
                retried.append(cell)
    assert retried, "no battery cell took a retry path"
    hand = _CountingPlan()
    cycles = measure_app_cycles(entry, hand, scope)
    assert cycles is not None
    assert set(hand.calls) <= set(analysis.slots)
    assert cycles == measure_app_cycles(
        entry, FencePlan(dict(assignment), default="none"), scope)


def test_builds_hand_program_rejects_any_other_placement(ptc):
    entry, analysis = ptc
    assignment = {slot: entry.hand_mode for slot in analysis.slots}
    assert builds_hand_program(entry, analysis, assignment, entry.hand_scope)
    # one slot off the hand mode is another program
    slot = next(iter(assignment))
    assert not builds_hand_program(
        entry, analysis, {**assignment, slot: "full"}, entry.hand_scope)
    dropped = {s: m for s, m in assignment.items() if s != slot}
    assert not builds_hand_program(entry, analysis, dropped, entry.hand_scope)
    assert not builds_hand_program(
        entry, analysis, assignment, FenceKind.SET)
