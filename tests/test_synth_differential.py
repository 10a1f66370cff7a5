"""Differential re-verification of the committed synth-report.json.

The report commits real claims: for every corpus entry, a concrete
placement, its measured cycle numbers, and the assertion that both
oracles proved it sound.  These tests re-derive each claim from
scratch -- **independently of the synthesizer**: the placement is
re-applied to the stripped program, both oracles recompute its allowed
set, the simulator re-measures its cycles on the committed offset
grid, and a seeded minimality fuzzer re-walks the one-step-weakened
neighbourhood asserting no strictly-cheaper sound neighbour exists.

If the simulator, the oracles or the corpus change in a way that moves
any number, the committed report must be regenerated
(``python -m repro synth``) -- these tests are the tripwire.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.analysis.report import write_report
from repro.campaign import run_campaign
from repro.campaign.jobs import synth_jobs
from repro.core.semantics import reference_allowed_outcomes
from repro.litmus.dsl import abstract_threads, outcomes_matching, parse_litmus
from repro.synth.corpus import SYNTH_CORPUS, synth_entry
from repro.synth.cost import placement_cycles
from repro.synth.report import assemble_synth_report
from repro.synth.sites import (
    apply_placement,
    fence_sites,
    strip_test,
    weakened_neighbors,
)
from repro.verify.explorer import explore_allowed_outcomes

REPORT = Path(__file__).resolve().parents[1] / "synth-report.json"

#: seed for the minimality fuzzer's neighbourhood walk order
MINIMALITY_SEED = int(os.environ.get("SYNTH_MINIMALITY_SEED", "0"))


@pytest.fixture(scope="module")
def report() -> dict:
    assert REPORT.exists(), (
        "synth-report.json is a committed artifact; regenerate it with "
        "`python -m repro synth`"
    )
    return json.loads(REPORT.read_text())


def _case(report: dict, name: str) -> dict:
    assert name in report["cases"], (
        f"committed report lacks corpus entry {name}; regenerate it")
    return report["cases"][name]


def _rebuild(name: str, case: dict):
    """(stripped test, sites, committed assignment) for one case."""
    stripped = strip_test(parse_litmus(synth_entry(name).source))
    sites = fence_sites(stripped)
    assert [s.label for s in sites] == case["sites"], (
        f"{name}: site enumeration moved; regenerate synth-report.json")
    assignment = tuple(case["synthesized"]["assignment"])
    assert len(assignment) == len(sites)
    return stripped, sites, assignment


def _both_allowed(variant) -> tuple[set, list]:
    threads = abstract_threads(variant)
    init = dict(variant.init)
    exploration = explore_allowed_outcomes(threads, init)
    reference = reference_allowed_outcomes(threads, init)
    assert exploration.outcomes == reference, "oracle disagreement"
    return exploration.outcomes, exploration.registers


_NAMES = [entry.name for entry in SYNTH_CORPUS]


@pytest.mark.parametrize("name", _NAMES)
def test_committed_placement_reproven_by_both_oracles(name, report):
    """Each committed placement independently re-checked, both oracles."""
    case = _case(report, name)
    stripped, sites, assignment = _rebuild(name, case)
    variant = apply_placement(stripped, sites, assignment)
    allowed, registers = _both_allowed(variant)
    assert registers == case["registers"]

    forbidden = {tuple(o) for o in case["forbidden"]}
    leaked = allowed & forbidden
    assert not leaked, (
        f"{name}: committed placement {case['synthesized']['placement']} "
        f"admits forbidden outcome(s) {sorted(leaked)}"
    )
    # the forbidden set is exactly the exists-clause hits of the
    # fence-free program -- same code path as litmus mismatch messages
    allowed_none, _ = _both_allowed(stripped)
    condition = parse_litmus(synth_entry(name).source).condition
    derived = outcomes_matching(condition, registers, allowed_none)
    assert [list(o) for o in derived] == case["forbidden"]


@pytest.mark.parametrize("name", _NAMES)
def test_committed_cycle_numbers_reproduce(name, report):
    """The simulator re-measures the committed numbers exactly."""
    case = _case(report, name)
    stripped, sites, assignment = _rebuild(name, case)
    offsets = list(case["offsets"])
    baseline = placement_cycles(stripped, offsets)
    assert baseline == case["baseline_cycles"]
    chosen = placement_cycles(
        apply_placement(stripped, sites, assignment), offsets)
    assert chosen == case["synthesized"]["cycles"]
    assert chosen - baseline == case["synthesized"]["stall_cycles"]


@pytest.mark.parametrize("name", _NAMES)
def test_minimality_no_cheaper_weakened_neighbor_is_sound(name, report):
    """Seeded fuzz over the one-step-weakened neighbourhood.

    Every neighbour is visited (the walk order is seeded, the coverage
    is total): a neighbour that stays sound must not measure strictly
    cheaper than the committed placement, else synthesis under-searched
    and the committed claim of local minimality is false.
    """
    case = _case(report, name)
    stripped, sites, assignment = _rebuild(name, case)
    forbidden = {tuple(o) for o in case["forbidden"]}
    offsets = list(case["offsets"])
    chosen_cycles = case["synthesized"]["cycles"]

    neighbors = list(weakened_neighbors(assignment))
    random.Random(f"synth-minimality:{MINIMALITY_SEED}:{name}").shuffle(
        neighbors)
    sound_neighbors = 0
    for _, neighbor in neighbors:
        variant = apply_placement(stripped, sites, neighbor)
        allowed, _ = _both_allowed(variant)
        if allowed & forbidden:
            continue  # unsound: its cost is irrelevant
        sound_neighbors += 1
        cycles = placement_cycles(variant, offsets)
        assert cycles >= chosen_cycles, (
            f"{name}: one-step-weakened neighbour {neighbor} is sound and "
            f"strictly cheaper ({cycles} < {chosen_cycles} cycles) -- the "
            f"committed placement is not locally minimal"
        )
    if forbidden:
        assert neighbors, f"{name}: committed placement has no fences"


def test_report_totals_are_consistent(report):
    t = report["totals"]
    cases = report["cases"].values()
    assert t["synth_stall"] == sum(
        c["synthesized"]["stall_cycles"] for c in cases)
    assert t["hand_stall"] == sum(
        c["handwritten"]["stall_cycles"] for c in cases)
    assert t["synth_fences"] == sum(
        c["synthesized"]["fence_count"] for c in cases)
    assert t["hand_fences"] == sum(
        c["handwritten"]["fence_count"] for c in cases)
    assert report["ok"] is True
    assert report["regressions"] == []
    assert report["engine_failures"] == []


def test_report_covers_the_whole_corpus(report):
    assert sorted(report["cases"]) == sorted(_NAMES)
    assert report["smoke"] is False


@pytest.mark.parametrize("name", _NAMES)
def test_synthesized_never_costlier_than_handwritten(name, report):
    """The committed acceptance bar, re-read from the artifact."""
    case = _case(report, name)
    assert case["ok"] is True
    assert case["handwritten"]["sound"] is True
    assert (case["synthesized"]["stall_cycles"]
            <= case["handwritten"]["stall_cycles"])
    assert (case["synthesized"]["stall_cycles"] <= case["all_full_stall"])


def test_committed_report_is_current(tmp_path):
    """Regenerating the full synthesis (every corpus entry, every mode,
    the default probe grid, mesi) reproduces the artifact byte for
    byte."""
    jobs = synth_jobs()
    result = run_campaign(jobs, parallel=0)
    assert result.ok
    fresh = tmp_path / "fresh.json"
    write_report(assemble_synth_report(result.outcomes, smoke=False), fresh)
    assert fresh.read_bytes() == REPORT.read_bytes(), (
        "synth-report.json is stale -- regenerate with `python -m repro synth`"
    )
