"""Whole-program synthesis: the committed report, re-proven and policed.

Three layers of defence around ``app-synth-report.json``:

* **differential re-proof** -- the committed report must cover the full
  app corpus and satisfy the acceptance bar (sound by the designated
  oracle, no more fences than hand-written, 100% mutation kill), and
  its static claims (cycle counts, patterns, the synthesized assignment
  passing the delay-pair floor) are re-derived here from the recordings
  with **zero simulator runs**, so a stale or hand-edited report fails
  fast;
* **warm-cache regression** -- a smoke campaign served entirely from
  cache reassembles the report byte-identically with zero executions;
* **live oracle spot-checks** -- the anti-vacuity battery really kills
  a deleted fence, and a guest crash is classified as kill evidence
  rather than a harness fault.

Regenerate the committed report with ``python -m repro synth --apps``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.report import write_report
from repro.campaign import ResultCache, app_synth_jobs, run_campaign
from repro.chaos.supervisor import FailureKind, run_supervised
from repro.synth.programs import (
    _static_floor_holds,
    analyze_app,
    app_entry,
    app_names,
    run_mutation_battery,
    weaken_slots,
)
from repro.synth.report import assemble_app_synth_report

REPORT = Path(__file__).resolve().parents[1] / "app-synth-report.json"


@pytest.fixture(scope="module")
def report() -> dict:
    assert REPORT.exists(), (
        "app-synth-report.json is missing -- regenerate it with "
        "`python -m repro synth --apps`")
    return json.loads(REPORT.read_text())


@pytest.fixture(scope="module")
def analyses() -> dict:
    """Static delay-set analysis per app, shared across re-proof tests."""
    return {name: analyze_app(app_entry(name)) for name in app_names()}


# -------------------------------------------------------- the acceptance bar
def test_report_covers_the_full_corpus(report):
    assert sorted(report["cases"]) == sorted(app_names())
    assert len(report["cases"]) >= 5
    assert report["smoke"] is False, "the committed report must be a full run"
    assert report["ok"] is True
    assert report["engine_failures"] == []
    assert report["rejections"] == []


def test_every_placement_is_proven_sound(report):
    for name, case in report["cases"].items():
        s = case["soundness"]
        assert case["ok"] is True, f"{name}: case rejected"
        assert s["sound"] is True, f"{name}: soundness not established"
        assert s["hand"]["ok"] and s["hand"]["failures"] == [], (
            f"{name}: the hand-written placement failed its own oracle")
        assert s["synthesized"]["ok"] and s["synthesized"]["failures"] == [], (
            f"{name}: the synthesized placement failed the oracle")
        assert s["hand"]["runs"] > 0 and s["synthesized"]["runs"] > 0
        assert s["confidence"] >= 0.9, (
            f"{name}: rejection-sampling confidence {s['confidence']} "
            f"below the reporting bar")


def test_synthesis_never_adds_fences(report):
    for name, case in report["cases"].items():
        assert case["fences"]["synthesized"] <= case["fences"]["hand"], (
            f"{name}: synthesized more fences than the hand placement")
    assert report["totals"]["synth_fences"] <= report["totals"]["hand_fences"]


def test_mutation_battery_kills_every_mutant(report):
    """The anti-vacuity bar: a 100% kill rate, app by app."""
    for name, case in report["cases"].items():
        battery = case["mutation"]["battery"]
        assert battery, f"{name}: empty mutation battery proves nothing"
        survivors = [key for key, m in battery.items() if not m["killed"]]
        assert not survivors, f"{name}: battery survivors {survivors}"
        assert case["mutation"]["kill_rate"] == 1.0
        for key, m in battery.items():
            assert m["evidence"] or m.get("kernel_admit"), (
                f"{name}/{key}: a kill with no named counterexample")


def test_totals_are_consistent_with_the_cases(report):
    cases = report["cases"].values()
    assert report["totals"] == {
        "hand_fences": sum(c["fences"]["hand"] for c in cases),
        "synth_fences": sum(c["fences"]["synthesized"] for c in cases),
        "mutants": sum(c["mutation"]["mutants"] for c in cases),
        "killed": sum(c["mutation"]["killed"] for c in cases),
        "oracle_runs": sum(
            c["soundness"]["hand"]["runs"] + c["soundness"]["synthesized"]["runs"]
            for c in cases),
    }


def test_monitor_spec_is_calibrated_subset(report):
    """monitored + calibrated_out partitions the candidate pattern set."""
    for name, case in report["cases"].items():
        mon = case["monitor"]
        assert mon["monitored"] + len(mon["calibrated_out"]) == mon["candidates"]
        candidates = {tuple(p) for p in case["analysis"]["hand_enforced"]}
        assert {tuple(p) for p in mon["calibrated_out"]} <= candidates


# -------------------------------------------- zero-simulation static re-proof
def test_static_analysis_reproduces_the_committed_numbers(report, analyses):
    """Replay the recordings; the committed analysis section must match."""
    for name, case in report["cases"].items():
        analysis = analyses[name]
        committed = case["analysis"]
        assert committed["critical_cycles"] == analysis.cycles, name
        assert committed["delay_pairs"] == len(analysis.pairs), name
        assert committed["components"] == analysis.components, name
        assert {tuple(p) for p in committed["patterns"]} == analysis.patterns, name
        assert ({tuple(p) for p in committed["hand_enforced"]}
                == analysis.hand_enforced), name


def test_committed_assignment_passes_the_delay_pair_floor(report, analyses):
    """Re-prove every committed placement against the static floor.

    This runs the whole soundness argument short of the chaos oracle --
    recording replay, Shasha-Snir analysis, floor check -- without a
    single Simulator run, so it is cheap enough to gate every CI push.
    """
    for name, case in report["cases"].items():
        analysis = analyses[name]
        assignment = case["synthesized"]
        assert set(assignment) == set(analysis.slots), (
            f"{name}: committed assignment names unknown slots")
        assert _static_floor_holds(analysis, assignment), (
            f"{name}: the committed placement no longer enforces "
            f"everything the hand placement enforces -- regenerate the "
            f"report")
        synth_count = sum(1 for m in assignment.values() if m != "none")
        assert case["fences"]["synthesized"] == synth_count, name


def test_static_weakening_floor_matches_or_undershoots(report, analyses):
    """The pure static floor never uses more fences than the committed
    placement (kernels can only strengthen it, never thin it)."""
    for name, case in report["cases"].items():
        entry = app_entry(name)
        floor = weaken_slots(entry, analyses[name])
        assert _static_floor_holds(analyses[name], floor), name
        floor_count = sum(1 for m in floor.values() if m != "none")
        assert floor_count <= case["fences"]["synthesized"], name


# ------------------------------------------------------ warm-cache regression
def test_warm_app_synth_rerun_executes_zero_simulations(tmp_path):
    """A warm re-run serves the app job from cache, byte-identical."""
    jobs = app_synth_jobs(names=["chase-lev"], smoke=True)
    cold = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    assert (cold.executed, cold.cached) == (len(jobs), 0)
    warm = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    assert (warm.executed, warm.cached) == (0, len(jobs))
    assert all(o.cached for o in warm.outcomes)
    assert (json.dumps(warm.results(), sort_keys=True)
            == json.dumps(cold.results(), sort_keys=True))
    # the smoke payload still clears the acceptance bar
    payload = warm.results()[0]
    assert payload["ok"] is True
    assert all(m["killed"] for m in payload["mutation"]["battery"].values())


def test_warm_rerun_report_is_byte_identical(tmp_path):
    jobs = app_synth_jobs(names=["chase-lev"], smoke=True)
    paths = []
    for i in range(2):
        result = run_campaign(jobs, parallel=0,
                              cache=ResultCache(tmp_path / "cache"))
        rep = assemble_app_synth_report(result.outcomes, smoke=True)
        path = tmp_path / f"report{i}.json"
        write_report(rep, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_app_synth_jobs_validate_inputs():
    with pytest.raises(KeyError, match="unknown app synth target"):
        app_synth_jobs(names=["nope"])
    with pytest.raises(KeyError, match="unknown scenario"):
        app_synth_jobs(names=["chase-lev"], scenarios=["mega"])


# ------------------------------------------------------ live oracle behaviour
def test_battery_really_kills_a_deleted_fence(analyses):
    """One live anti-vacuity cell: deleting chase-lev's publish fence
    must trip the chaos oracle (the committed report says the monitor
    needed no calibration for this app, so the raw hand-enforced set is
    the spec)."""
    entry = app_entry("chase-lev")
    analysis = analyses["chase-lev"]
    battery = run_mutation_battery(
        entry, analysis, analysis.hand_enforced, ("drain",), (0,))
    assert battery, "no live slots -- the battery is vacuous"
    for key, mutant in battery.items():
        assert mutant["killed"], (
            f"{key} survived: the chaos oracle cannot see the fence "
            f"it is policing")


def test_guest_crash_is_classified_not_propagated():
    """A fence-broken guest raising mid-run is kill evidence, not a
    harness fault: the supervisor classifies it instead of crashing."""
    class _Boom:
        def run(self, max_cycles):
            raise ValueError("stolen garbage value indexed the table")

    outcome = run_supervised(lambda: _Boom(), raise_on_failure=False)
    assert not outcome.ok
    assert outcome.failure.kind is FailureKind.GUEST
    assert "guest program raised ValueError" in str(outcome.failure)
    assert [a.outcome for a in outcome.attempts] == ["guest-crash"]
