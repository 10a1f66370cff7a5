"""The full verify matrix and the three-way figure under SiSd.

The soundness claim the SiSd backend rests on: with it selected, every
outcome the simulator observes on every (test, fence-mode) cell of the
litmus corpus still lies inside that cell's exhaustively-explored
allowed set.  (The dense loop matches the event engine on every offset
pair of that grid: tests/test_fastpath_equivalence.py::
test_verify_grid_equivalence.)  The backend only re-times
the machine -- SI/SD work at sync points, no invalidation traffic --
so any outcome leak here is a backend bug, not a model change.

On top of the matrix: the assembled verify report carries the backend
axis (``event@backend`` column keys, the plain ``event`` key for the
default backend so committed artifacts stay stable), and the ``figbackend``
three-way comparison (S-Fence vs full fence vs SiSd) is cache-keyed by
backend, reproduces byte-identically on a warm cache, and matches the
committed report at the committed scale.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.report import write_report
from repro.campaign import (
    ResultCache,
    backend_compare_report,
    figure_jobs,
    run_campaign,
    verify_jobs,
)
from repro.litmus.corpus import CORPUS
from repro.verify.modes import FENCE_MODES
from repro.verify.runner import assemble_verify_report, engine_key, verify_case

ENTRY = {e.name: e for e in CORPUS}
REPO_ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------ the 35-cell matrix
@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_sisd_sound_on_full_matrix(entry):
    """All 35 (test, mode) cells, zero soundness leaks."""
    for mode in FENCE_MODES:
        result = verify_case({
            "name": entry.name, "source": entry.source, "mode": mode,
            "seeds": 1, "smoke": True, "backend": "sisd",
        })
        assert result["backend"] == "sisd"
        assert result["reference_match"], (
            f"{entry.name}[{mode}] under sisd: explorer/reference split: "
            f"explorer-only {result['explorer_only']}, "
            f"reference-only {result['reference_only']}"
        )
        assert result["sound"], (
            f"{entry.name}[{mode}] on sisd: outcomes outside the "
            f"allowed set: {result['violations']} "
            f"(registers {result['registers']})"
        )


def test_engine_key_scheme():
    """Default-backend cells keep their legacy plain engine key."""
    assert engine_key("mesi") == "event"
    assert engine_key("sisd") == "event@sisd"


def test_verify_report_carries_the_backend_axis():
    jobs = verify_jobs(modes=["none"], backends=["mesi", "sisd"], smoke=True)
    assert len(jobs) == 2 * len(CORPUS)
    result = run_campaign(jobs, parallel=0)
    assert result.ok
    report = assemble_verify_report(result.outcomes,
                                    seeds=jobs[0].params["seeds"], smoke=True)
    assert report["ok"] and not report["soundness_violations"]
    assert report["backends"] == ["mesi", "sisd"]
    assert report["engines"] == ["event", "event@sisd"]
    for cell in report["tests"].values():
        for mode_slot in cell["modes"].values():
            assert set(mode_slot["engines"]) == {"event", "event@sisd"}


def test_committed_verify_report_is_current(tmp_path):
    """Regenerating the matrix at the committed backends, seeds and
    grid reproduces ``verify-report.json`` byte for byte."""
    committed = REPO_ROOT / "verify-report.json"
    settings = json.loads(committed.read_text())
    jobs = verify_jobs(seeds=settings["seeds"], smoke=settings["smoke"],
                       backends=settings["backends"])
    result = run_campaign(jobs, parallel=0)
    assert result.ok
    fresh = tmp_path / "fresh.json"
    write_report(assemble_verify_report(
        result.outcomes, seeds=settings["seeds"], smoke=settings["smoke"]),
        fresh)
    assert fresh.read_bytes() == committed.read_bytes(), (
        "verify-report.json is stale -- regenerate with "
        "`python -m repro verify --mem-backend mesi,sisd`"
    )


def test_verify_jobs_reject_unknown_backend():
    with pytest.raises(KeyError, match="backend"):
        verify_jobs(backends=["mesi", "token-coherence"])


def test_verify_jobs_run_the_event_engine_only():
    """``engines`` survives as a keyword, but only the event engine is
    accepted: the dense loop is checked on verify's grid in tier-1."""
    assert verify_jobs(engines=["event"]) == verify_jobs()
    for engines in (["dense"], ["event", "dense"]):
        with pytest.raises(KeyError, match="event engine only"):
            verify_jobs(engines=engines)


# --------------------------------------------------------- three-way figure
def _three_way(tmp_path, scale: float, cache_name: str):
    jobs = figure_jobs("figbackend", scale=scale)
    cache = ResultCache(tmp_path / cache_name)
    result = run_campaign(jobs, parallel=0, cache=cache)
    assert result.ok
    return jobs, result


def test_figbackend_jobs_sweep_three_configs_per_app(tmp_path):
    jobs = figure_jobs("figbackend", scale=0.3)
    assert len(jobs) == 12  # 4 apps x (S-Fence, full-fence, SiSd)
    labels = {j.params["label"] for j in jobs}
    assert labels == {"S-Fence", "full-fence", "SiSd"}
    backends = {j.params["label"]: j.params["backend"] for j in jobs}
    assert backends == {"S-Fence": "mesi", "full-fence": "mesi",
                        "SiSd": "sisd"}


def test_three_way_report_reproduces_byte_identically_warm(tmp_path):
    jobs, cold = _three_way(tmp_path, 0.3, "bc")
    report = backend_compare_report(jobs, cold.results())
    assert report["complete"]
    for app, entry in report["apps"].items():
        cfgs = entry["configs"]
        assert set(cfgs) == {"S-Fence", "full-fence", "SiSd"}
        assert entry["sfence_speedup_vs_full"] == pytest.approx(
            cfgs["full-fence"]["cycles"] / cfgs["S-Fence"]["cycles"]
        )
        assert entry["sfence_speedup_vs_sisd"] == pytest.approx(
            cfgs["SiSd"]["cycles"] / cfgs["S-Fence"]["cycles"]
        )
    cold_path = tmp_path / "cold.json"
    write_report(report, cold_path)

    # the warm pass serves every cell from cache and must not move a byte
    warm = run_campaign(jobs, parallel=0,
                        cache=ResultCache(tmp_path / "bc"))
    assert warm.executed == 0 and warm.cached == len(jobs)
    warm_path = tmp_path / "warm.json"
    write_report(
        backend_compare_report(jobs, warm.results()), warm_path)
    assert warm_path.read_bytes() == cold_path.read_bytes()


def test_committed_three_way_report_is_current(tmp_path):
    """Regenerating at the committed scale reproduces the artifact."""
    committed = REPO_ROOT / "backend-compare-report.json"
    scale = json.loads(committed.read_text())["scale"]
    jobs = figure_jobs("figbackend", scale=scale)
    result = run_campaign(jobs, parallel=0)
    assert result.ok
    fresh = tmp_path / "fresh.json"
    write_report(
        backend_compare_report(jobs, result.results()), fresh)
    assert fresh.read_bytes() == committed.read_bytes(), (
        "backend-compare-report.json is stale -- regenerate with "
        "`python -m repro figbackend`"
    )
