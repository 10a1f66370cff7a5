"""Campaign integration for ``synth`` jobs: builders, caching, keying."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import write_report
from repro.campaign import (
    Job,
    ResultCache,
    code_fingerprint,
    execute_job,
    job_cost,
    job_key,
    run_campaign,
    synth_jobs,
)
from repro.synth.cost import SMOKE_PROBE_OFFSETS
from repro.synth.report import assemble_synth_report
from repro.synth.sites import MODES

#: the cheap single-entry job list the cache tests sweep
SMALL = dict(names=["SB"], smoke=True)


# ------------------------------------------------------------------ builders
def test_synth_jobs_cover_the_corpus_in_order():
    jobs = synth_jobs(smoke=True)
    assert [j.params["name"] for j in jobs] == [
        "SB", "MP", "WRC", "IRIW", "barnes-publish", "ptc-handoff"]
    assert all(j.kind == "synth" for j in jobs)
    assert jobs[0].label() == "synth:SB"
    assert job_cost(jobs[0]) > job_cost(Job("litmus", {"name": "SB"}))


def test_synth_jobs_parameters_are_explicit():
    """Lattice and grid ride in params, never in ambient config."""
    smoke = synth_jobs(**SMALL)[0]
    full = synth_jobs(names=["SB"], smoke=False)[0]
    assert smoke.params["modes"] == list(MODES)
    assert smoke.params["offsets"] == list(SMOKE_PROBE_OFFSETS)
    assert smoke.params["offsets"] != full.params["offsets"]


def test_synth_jobs_validate_inputs():
    with pytest.raises(KeyError, match="unknown synth test"):
        synth_jobs(names=["nope"])
    with pytest.raises(KeyError, match="unknown fence mode"):
        synth_jobs(names=["SB"], modes=["mega"])


# ------------------------------------------------------------------- caching
def test_warm_synth_rerun_executes_zero_explorations(tmp_path):
    """A warm re-run serves every synth job from cache, byte-identical."""
    jobs = synth_jobs(**SMALL)
    cold = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    assert (cold.executed, cold.cached) == (len(jobs), 0)
    warm = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    assert (warm.executed, warm.cached) == (0, len(jobs))
    assert all(o.cached for o in warm.outcomes)
    # byte-level identity of the whole result payloads
    assert (json.dumps(warm.results(), sort_keys=True)
            == json.dumps(cold.results(), sort_keys=True))


def test_warm_rerun_report_is_byte_identical(tmp_path):
    """The assembled report file itself reproduces byte-for-byte."""
    jobs = synth_jobs(**SMALL)
    paths = []
    for i in range(2):
        result = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path / "c"))
        report = assemble_synth_report(result.outcomes, smoke=True)
        path = tmp_path / f"report{i}.json"
        write_report(report, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_changed_mode_lattice_busts_the_cache_key(tmp_path):
    """Searching a different lattice is a different job, not a cache hit."""
    fingerprint = code_fingerprint()
    full_lattice = synth_jobs(**SMALL)[0]
    restricted = synth_jobs(names=["SB"], modes=["none", "full"], smoke=True)[0]
    assert (job_key(full_lattice.kind, full_lattice.params, fingerprint)
            != job_key(restricted.kind, restricted.params, fingerprint))

    cache = ResultCache(tmp_path)
    run_campaign([full_lattice], parallel=0, cache=cache)
    rerun = run_campaign([restricted], parallel=0, cache=ResultCache(tmp_path))
    assert (rerun.executed, rerun.cached) == (1, 0)
    # and the restricted search genuinely differs: no scoped modes
    payload = rerun.results()[0]
    assert set(payload["synthesized"]["assignment"]) <= {"none", "full"}


def test_changed_offset_grid_busts_the_cache_key():
    fingerprint = code_fingerprint()
    smoke = synth_jobs(**SMALL)[0]
    full = synth_jobs(names=["SB"], smoke=False)[0]
    assert (job_key(smoke.kind, smoke.params, fingerprint)
            != job_key(full.kind, full.params, fingerprint))


# ------------------------------------------------------------------- payload
def test_synth_job_payload_shape():
    payload = execute_job(synth_jobs(**SMALL)[0])
    assert payload["name"] == "SB"
    assert payload["ok"] is True
    assert payload["synthesized"]["sound"] is True
    assert payload["handwritten"]["sound"] is True
    assert set(payload["synthesized"]["placement"]) == set(payload["sites"])
    search = payload["synthesized"]["search"]
    assert search["explorations"] > 0
    assert search["measured"] > 0
    # JSON-round-trippable (the cache stores plain JSON objects)
    assert json.loads(json.dumps(payload)) == payload


def test_synth_jobs_run_identically_inline_and_pooled(tmp_path):
    jobs = synth_jobs(**SMALL)
    inline = run_campaign(jobs, parallel=0)
    pooled = run_campaign(jobs, parallel=2)
    assert inline.results() == pooled.results()
