"""Campaign engine plumbing: caching, resume, crash isolation, keys."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    Job,
    NO_RETRY,
    ResultCache,
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    auto_parallel,
    chaos_jobs,
    code_fingerprint,
    execute_job,
    job_cost,
    job_key,
    litmus_jobs,
    plan_chunks,
    run_campaign,
    set_process_fingerprint,
)
from repro.campaign.engine import MAX_CHUNK_JOBS

SMALL = dict(algos=["lamport"], scenarios=["latency"], n_seeds=2)


# ------------------------------------------------------------------- caching
def test_warm_cache_executes_nothing(tmp_path):
    jobs = chaos_jobs(**SMALL)
    cold = run_campaign(jobs, parallel=2, cache=ResultCache(tmp_path))
    assert (cold.executed, cold.cached) == (len(jobs), 0)
    warm = run_campaign(jobs, parallel=2, cache=ResultCache(tmp_path))
    assert (warm.executed, warm.cached) == (0, len(jobs))
    assert warm.results() == cold.results()
    assert all(o.cached for o in warm.outcomes)


def test_interrupted_campaign_resumes_partially(tmp_path):
    """Only the jobs missing from the cache re-execute."""
    jobs = chaos_jobs(**SMALL)
    cache = ResultCache(tmp_path)
    run_campaign(jobs[:1], parallel=0, cache=cache)
    resumed = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    assert (resumed.executed, resumed.cached) == (len(jobs) - 1, 1)


def test_cache_served_inline_and_pooled_identically(tmp_path):
    jobs = litmus_jobs()[:2]
    cold = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path))
    warm = run_campaign(jobs, parallel=2, cache=ResultCache(tmp_path))
    assert warm.results() == cold.results()


def test_manifest_records_completions(tmp_path):
    jobs = chaos_jobs(**SMALL)
    cache = ResultCache(tmp_path)
    run_campaign(jobs, parallel=0, cache=cache)
    manifest = cache.manifest()
    assert len(manifest) == len(jobs)
    assert all(entry["status"] == "ok" for entry in manifest)
    assert {entry["key"] for entry in manifest} == {cache.key_for(j) for j in jobs}


def test_cache_objects_are_plain_json(tmp_path):
    cache = ResultCache(tmp_path)
    job = chaos_jobs(**SMALL)[0]
    run_campaign([job], parallel=0, cache=cache)
    path = cache._object_path(cache.key_for(job))
    obj = json.loads(path.read_text())
    assert obj["kind"] == "chaos"
    assert obj["result"]["status"] == "ok"


def test_corrupt_cache_object_is_re_executed(tmp_path):
    cache = ResultCache(tmp_path)
    job = chaos_jobs(**SMALL)[0]
    run_campaign([job], parallel=0, cache=cache)
    cache._object_path(cache.key_for(job)).write_text("{torn write")
    rerun = run_campaign([job], parallel=0, cache=ResultCache(tmp_path))
    assert rerun.executed == 1 and rerun.ok


# ---------------------------------------------------------------------- keys
def test_job_key_depends_on_params_and_code():
    a = job_key("chaos", {"seed": 1}, "fp")
    assert a == job_key("chaos", {"seed": 1}, "fp")
    assert a != job_key("chaos", {"seed": 2}, "fp")
    assert a != job_key("chaos", {"seed": 1}, "fp2")
    assert a != job_key("probe", {"seed": 1}, "fp")


def test_engine_failures_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [Job("selftest", {"mode": "error"})]
    run_campaign(jobs, parallel=0, cache=cache)
    assert len(cache) == 0
    assert cache.manifest() == []


# ------------------------------------------------------------ crash isolation
def test_worker_failures_are_classified_not_fatal():
    jobs = [
        Job("selftest", {"mode": "ok", "echo": 1}),
        Job("selftest", {"mode": "crash"}),
        Job("selftest", {"mode": "error"}),
        Job("selftest", {"mode": "ok", "echo": 2}),
    ]
    # NO_RETRY pins the raw classifications (retry recovery is covered
    # in test_resilience.py) and keeps the permanently-crashing job from
    # burning its retry budget here
    campaign = run_campaign(jobs, parallel=2, retry=NO_RETRY)
    statuses = [o.status for o in campaign.outcomes]
    assert statuses == [STATUS_OK, STATUS_CRASH, STATUS_ERROR, STATUS_OK]
    assert campaign.outcomes[0].result["echo"] == 1
    assert campaign.outcomes[3].result["echo"] == 2
    assert "exited with code 17" in campaign.outcomes[1].error
    assert "selftest error job" in campaign.outcomes[2].error
    assert len(campaign.failures) == 2


def test_hung_worker_is_killed_and_classified():
    jobs = [Job("selftest", {"mode": "hang"}), Job("selftest", {"mode": "ok"})]
    campaign = run_campaign(jobs, parallel=2, job_timeout=1.0, retry=NO_RETRY)
    assert campaign.outcomes[0].status == STATUS_TIMEOUT
    assert campaign.outcomes[1].status == STATUS_OK


def test_inline_error_is_classified():
    campaign = run_campaign([Job("selftest", {"mode": "error"})], parallel=0)
    assert campaign.outcomes[0].status == STATUS_ERROR
    assert "selftest error job" in campaign.outcomes[0].error


def test_unknown_job_kind_rejected():
    with pytest.raises(KeyError):
        execute_job(Job("nope", {}))


def test_unknown_chaos_names_rejected():
    with pytest.raises(KeyError):
        chaos_jobs(algos=["nope"])
    with pytest.raises(KeyError):
        chaos_jobs(scenarios=["nope"])


# ------------------------------------------------------------------ labelling
def test_job_labels_are_informative():
    assert "wsq" in chaos_jobs(algos=["wsq"], scenarios=["scope"], n_seeds=1)[0].label()
    assert litmus_jobs()[0].label().startswith("litmus:")


# ------------------------------------------------------------- chunk planning
def test_plan_chunks_preserves_order_and_covers_everything():
    jobs = [Job("selftest", {"mode": "ok", "echo": i}) for i in range(50)]
    pending = list(range(50))
    chunks = plan_chunks(jobs, pending, parallel=3)
    assert [i for chunk in chunks for i in chunk] == pending
    assert all(len(chunk) <= MAX_CHUNK_JOBS for chunk in chunks)
    assert plan_chunks(jobs, [], parallel=3) == []


def test_plan_chunks_batches_small_and_isolates_heavy():
    light = litmus_jobs()[0]
    heavy = chaos_jobs(algos=["wsq"], scenarios=["storm"], n_seeds=1)[0]
    assert job_cost(heavy) > 4 * job_cost(light)
    jobs = [light] * 6 + [heavy] + [light] * 6
    chunks = plan_chunks(jobs, list(range(len(jobs))), parallel=1,
                         target_cost=4 * job_cost(light))
    assert [6] in chunks  # the heavy job travels alone
    assert all(len(chunk) > 1 for chunk in chunks if 6 not in chunk)


def test_auto_parallel_is_sane():
    n = auto_parallel()
    assert 1 <= n <= 8


# --------------------------------------------------------------- pool lifecycle
def test_worker_death_mid_chunk_requeues_remaining_jobs():
    """Only the in-flight job is lost; the rest of its chunk completes."""
    jobs = [
        Job("selftest", {"mode": "ok", "echo": 0}),
        Job("selftest", {"mode": "crash"}),
        Job("selftest", {"mode": "ok", "echo": 2}),
        Job("selftest", {"mode": "ok", "echo": 3}),
        Job("selftest", {"mode": "ok", "echo": 4}),
    ]
    # a huge cost target forces every job into one chunk on one worker
    campaign = run_campaign(jobs, parallel=1, chunk_cost=1e9, retry=NO_RETRY)
    statuses = [o.status for o in campaign.outcomes]
    assert statuses == [STATUS_OK, STATUS_CRASH, STATUS_OK, STATUS_OK, STATUS_OK]
    assert [o.result["echo"] for o in campaign.outcomes if o.ok] == [0, 2, 3, 4]


def test_timeout_mid_chunk_kills_only_the_wedged_job():
    jobs = [
        Job("selftest", {"mode": "ok", "echo": 0}),
        Job("selftest", {"mode": "hang"}),
        Job("selftest", {"mode": "ok", "echo": 2}),
    ]
    campaign = run_campaign(jobs, parallel=1, job_timeout=1.0, chunk_cost=1e9,
                            retry=NO_RETRY)
    statuses = [o.status for o in campaign.outcomes]
    assert statuses == [STATUS_OK, STATUS_TIMEOUT, STATUS_OK]
    assert "no progress" in campaign.outcomes[1].error


def test_submission_order_determinism_across_worker_counts():
    jobs = litmus_jobs() + [
        Job("selftest", {"mode": "ok", "echo": i}) for i in range(5)
    ]
    baseline = run_campaign(jobs, parallel=0)
    for parallel in (1, 2, 8):
        pooled = run_campaign(jobs, parallel=parallel)
        assert pooled.results() == baseline.results(), f"parallel={parallel}"
    # forcing a degenerate chunk shape must not change anything either
    for chunk_cost in (1e-9, 1e9):
        chunked = run_campaign(jobs, parallel=2, chunk_cost=chunk_cost)
        assert chunked.results() == baseline.results()


def test_persistent_pool_and_inline_agree_on_chaos(tmp_path):
    """Chaos jobs heartbeat from inside the worker; the pooled results
    must still equal the in-process ones."""
    jobs = chaos_jobs(**SMALL)
    inline = run_campaign(jobs, parallel=0)
    pooled = run_campaign(jobs, parallel=2, cache=ResultCache(tmp_path))
    assert pooled.results() == inline.results()
    assert pooled.ok and inline.ok


# ------------------------------------------------- fingerprints + batched cache
def test_process_fingerprint_is_installable():
    import repro.campaign.cache as cache_mod

    saved = cache_mod._process_fingerprint
    try:
        set_process_fingerprint("deadbeef")
        assert code_fingerprint() == "deadbeef"
    finally:
        cache_mod._process_fingerprint = saved


def test_put_many_batches_one_manifest_append(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    jobs = [Job("selftest", {"mode": "ok", "echo": i}) for i in range(3)]
    cache.put_many([
        (jobs[0], STATUS_OK, {"echo": 0}),
        (jobs[1], STATUS_ERROR, "boom"),     # never persisted
        (jobs[2], STATUS_OK, {"echo": 2}),
    ])
    assert len(cache) == 2
    assert [e["status"] for e in cache.manifest()] == ["ok", "ok"]
    assert cache.get(jobs[0]) == {"echo": 0}
    assert cache.get(jobs[1]) is None
    assert cache.get(jobs[2]) == {"echo": 2}
