"""Resilience layer: retry policy, degradation ladder, serial fallback,
and the faulted-vs-fault-free differential proof."""

from __future__ import annotations

import pytest

from repro.campaign import (
    DegradationLadder,
    InfraFaultPlan,
    Job,
    NO_RETRY,
    RetryPolicy,
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TRANSIENT_STATUSES,
    run_campaign,
)
from repro.campaign.resilience import (
    outcome_fingerprint,
    run_resilience_differential,
)

FAST_RETRY = RetryPolicy(retries=2, backoff_base=0.01, backoff_cap=0.05)


def ok_jobs(n, base=0):
    return [Job("selftest", {"mode": "ok", "echo": base + i}) for i in range(n)]


# ---------------------------------------------------------------- RetryPolicy
def test_retry_policy_classification():
    policy = RetryPolicy(retries=3)
    for status in TRANSIENT_STATUSES:
        assert policy.retries_for(status) == 3
    assert policy.retries_for(STATUS_ERROR) == 0  # deterministic: never
    assert policy.retries_for(STATUS_OK) == 0
    assert NO_RETRY.retries_for(STATUS_CRASH) == 0


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(backoff_base=0.1, backoff_mult=2.0, backoff_cap=0.5,
                         backoff_jitter=0.0)
    delays = [policy.delay(0, attempt) for attempt in range(5)]
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert delays[2] == pytest.approx(0.4)
    assert delays[3] == delays[4] == pytest.approx(0.5)  # capped


def test_retry_policy_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_jitter=0.25, seed=5)
    assert policy.delay(3, 0) == policy.delay(3, 0)  # same key, same delay
    assert policy.delay(3, 0) != policy.delay(4, 0)  # per-job streams
    assert RetryPolicy(seed=6).delay(3, 0) != policy.delay(3, 0)
    for index in range(20):
        d = policy.delay(index, 0)
        assert 0.1 <= d <= 0.1 * 1.25


# ---------------------------------------------------------- DegradationLadder
def test_ladder_halves_then_goes_serial():
    ladder = DegradationLadder(target=8, storm_deaths=3)
    events = [ladder.record_death(i) for i in range(9)]
    fired = [e for e in events if e is not None]
    assert [e["kind"] for e in fired] == ["downgrade", "downgrade",
                                         "serial-fallback"]
    assert [(e["from"], e["to"]) for e in fired] == [(8, 4), (4, 2), (2, 0)]
    assert [e["deaths"] for e in fired] == [3, 6, 9]
    assert ladder.serial
    assert ladder.events == fired
    # once serial, further deaths are absorbed silently
    assert ladder.record_death(99) is None


def test_ladder_small_pool_goes_serial_directly():
    ladder = DegradationLadder(target=2, storm_deaths=2)
    assert ladder.record_death(0) is None
    event = ladder.record_death(1)
    assert event["kind"] == "serial-fallback" and ladder.serial


def test_disabled_ladder_never_descends():
    ladder = DegradationLadder(target=4, storm_deaths=1, enabled=False)
    for i in range(10):
        assert ladder.record_death(i) is None
    assert ladder.target == 4 and not ladder.serial and ladder.events == []


# ------------------------------------------------------------- retry recovery
def test_crash_once_job_recovers_with_attempt_history(tmp_path):
    jobs = ok_jobs(2) + [
        Job("selftest", {"mode": "crash-once", "marker": str(tmp_path / "m")}),
    ] + ok_jobs(2, base=2)
    campaign = run_campaign(jobs, parallel=2, retry=FAST_RETRY)
    assert campaign.ok
    flaky = campaign.outcomes[2]
    assert flaky.status == STATUS_OK
    assert flaky.attempts == (STATUS_CRASH,)
    assert flaky.attempt_count == 2
    assert campaign.retried == 1
    assert campaign.recovered == [flaky]
    # the clean jobs carry no attempt history
    assert all(o.attempts == () for o in campaign.outcomes if o is not flaky)


def test_hang_once_job_recovers_after_timeout_kill(tmp_path):
    jobs = ok_jobs(2) + [
        Job("selftest", {"mode": "hang-once", "marker": str(tmp_path / "m")}),
    ]
    campaign = run_campaign(jobs, parallel=2, job_timeout=1.0,
                            retry=FAST_RETRY)
    assert campaign.ok
    assert campaign.outcomes[2].attempts == (STATUS_TIMEOUT,)


def test_deterministic_error_is_never_retried():
    jobs = [Job("selftest", {"mode": "error"})] + ok_jobs(2)
    campaign = run_campaign(jobs, parallel=2, retry=FAST_RETRY)
    bad = campaign.outcomes[0]
    assert bad.status == STATUS_ERROR
    assert bad.attempts == ()        # one attempt, zero retries
    assert campaign.retried == 0


def test_exhausted_retries_record_full_history():
    jobs = [Job("selftest", {"mode": "crash"})] + ok_jobs(2)
    campaign = run_campaign(jobs, parallel=2,
                            retry=RetryPolicy(retries=2, backoff_base=0.01))
    bad = campaign.outcomes[0]
    assert bad.status == STATUS_CRASH
    assert bad.attempts == (STATUS_CRASH, STATUS_CRASH)
    assert bad.attempt_count == 3    # 1 attempt + 2 retries, all crashed
    assert len(campaign.failures) == 1


def test_retry_events_are_reported():
    events = []
    jobs = [Job("selftest", {"mode": "crash"})] + ok_jobs(2)
    run_campaign(jobs, parallel=2,
                 retry=RetryPolicy(retries=1, backoff_base=0.01),
                 on_event=lambda kind, msg: events.append((kind, msg)))
    retries = [msg for kind, msg in events if kind == "retry"]
    assert len(retries) == 1
    assert "worker-crash" in retries[0] and "retry 1/1" in retries[0]


# ------------------------------------------------------ poisoned-chunk backstop
def test_poisoned_chunk_backstop_caps_requeues():
    """A chunk whose delivery kills the worker before any job starts is
    re-queued a bounded number of times, then classified -- the pool
    must not respawn-loop forever."""
    plan = InfraFaultPlan(receive_kills=((0, 0),))
    jobs = ok_jobs(4)
    campaign = run_campaign(jobs, parallel=1, chunk_cost=1e9, infra=plan,
                            retry=NO_RETRY,
                            ladder=DegradationLadder(target=1, enabled=False))
    # with retries disabled every job in the poisoned chunk is charged
    assert all(o.status == STATUS_CRASH for o in campaign.outcomes)
    assert all("chunk re-queued" in o.error for o in campaign.outcomes)


def test_poisoned_chunk_progress_resets_the_backstop():
    """A crash *after* progress (a started job) resets the re-queue
    count: only the in-flight job is charged, the rest complete."""
    plan = InfraFaultPlan(kills=((1, 0),))
    jobs = ok_jobs(4)
    campaign = run_campaign(jobs, parallel=1, chunk_cost=1e9, infra=plan,
                            retry=NO_RETRY,
                            ladder=DegradationLadder(target=1, enabled=False))
    statuses = [o.status for o in campaign.outcomes]
    assert statuses == [STATUS_OK, STATUS_CRASH, STATUS_OK, STATUS_OK]


# -------------------------------------------------------- outcome fingerprint
def test_outcome_fingerprint_tracks_payloads_not_cache_flags():
    jobs = ok_jobs(3)
    a = outcome_fingerprint(run_campaign(jobs, parallel=0))
    b = outcome_fingerprint(run_campaign(jobs, parallel=2))
    assert a == b
    other = outcome_fingerprint(
        run_campaign(jobs[:2] + [Job("selftest", {"mode": "error"})],
                     parallel=0))
    assert other != a


# ------------------------------------------------------------ serial fallback
def test_respawn_storm_falls_back_to_serial():
    """With a hair-trigger ladder, one death abandons the pool and the
    rest of the sweep still completes (serially, in-process)."""
    jobs = [Job("selftest", {"mode": "crash"})] + ok_jobs(6)
    ladder = DegradationLadder(target=2, storm_deaths=1)
    events = []
    campaign = run_campaign(jobs, parallel=2, retry=NO_RETRY, ladder=ladder,
                            chunk_cost=1e-9,
                            on_event=lambda kind, msg: events.append(kind))
    assert ladder.serial
    assert [e["kind"] for e in campaign.downgrades] == ["serial-fallback"]
    assert campaign.outcomes[0].status == STATUS_CRASH
    assert all(o.status == STATUS_OK for o in campaign.outcomes[1:])
    assert "downgrade" in events and "serial-fallback" in events


def test_serial_fallback_isolates_jobs_with_transient_history(tmp_path):
    """A job that already took a worker down re-runs in a fresh isolated
    process during serial fallback -- and still recovers."""
    jobs = [
        Job("selftest", {"mode": "crash-once", "marker": str(tmp_path / "m")}),
    ] + ok_jobs(5)
    ladder = DegradationLadder(target=2, storm_deaths=1)
    campaign = run_campaign(jobs, parallel=2, retry=FAST_RETRY, ladder=ladder,
                            chunk_cost=1e-9)
    assert campaign.ok
    assert ladder.serial
    assert campaign.outcomes[0].attempts == (STATUS_CRASH,)


def test_serial_fallback_survives_a_permanently_crashing_job():
    """Even at the last rung, a crash-on-every-attempt job must not take
    the campaign driver's own process down."""
    jobs = [Job("selftest", {"mode": "crash"})] + ok_jobs(4)
    ladder = DegradationLadder(target=2, storm_deaths=1)
    campaign = run_campaign(jobs, parallel=2, chunk_cost=1e-9, ladder=ladder,
                            retry=RetryPolicy(retries=1, backoff_base=0.01))
    assert ladder.serial
    assert campaign.outcomes[0].status == STATUS_CRASH
    assert all(o.status == STATUS_OK for o in campaign.outcomes[1:])


def test_pool_width_respects_downgraded_target():
    """After a downgrade event the pool never respawns past the new
    target -- the ladder's word is binding, not advisory."""
    ladder = DegradationLadder(target=4, storm_deaths=2)
    jobs = [Job("selftest", {"mode": "crash"}),
            Job("selftest", {"mode": "crash"})] + ok_jobs(8)
    campaign = run_campaign(jobs, parallel=4, retry=NO_RETRY, ladder=ladder,
                            chunk_cost=1e-9)
    assert [e["kind"] for e in campaign.downgrades] == ["downgrade"]
    assert ladder.target == 2 and not ladder.serial
    assert all(o.status == STATUS_OK for o in campaign.outcomes[2:])


# -------------------------------------------------------- differential proof
def test_resilience_differential_converges(tmp_path):
    """The tentpole property: a sweep under scripted infrastructure
    faults (worker kills, a poisoned chunk, a stall, cache sabotage)
    converges to the byte-identical outcome fingerprint of the
    fault-free sweep -- and the recovery is visible, not vacuous."""
    jobs = ok_jobs(12)
    report = run_resilience_differential(seed=11, parallel=2, jobs=jobs)
    assert report["ok"], report
    prints = {e["fingerprint"] for e in report["phases"].values()}
    assert len(prints) == 1
    faulted = report["phases"]["faulted"]
    assert faulted["retried"] > 0 and faulted["failures"] == 0
    recovery = report["phases"]["recovery"]
    assert recovery["quarantined"] >= 2     # corrupt + truncated blob
    assert recovery["manifest_repair"]["dropped_lines"] >= 1
    assert recovery["cached"] > 0           # surviving blobs were reused
