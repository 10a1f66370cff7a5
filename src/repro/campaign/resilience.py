"""Campaign resilience: retries, graceful degradation, differential proof.

The campaign engine's contract is that infrastructure failures never
change *what* a sweep computes -- only whether and how fast it
completes.  This module supplies the recovery machinery behind that
contract and the harness that proves it:

* :class:`RetryPolicy` -- exponential backoff with deterministic
  jitter for the *transient* failure classifications
  (``worker-crash``, ``worker-timeout``).  A deterministic job
  ``error`` (an exception inside the job) is never retried: re-running
  the same pure function on the same inputs reproduces the same
  exception, so a retry would only launder a real bug into wasted
  cycles.  Final outcomes record the full attempt history.
* :class:`DegradationLadder` -- the pool-shrinking response to respawn
  storms.  A worker death is normal (that is what crash isolation is
  for); a *stream* of deaths means the host is hostile -- fork bombs
  out of memory, an OOM killer picking off children -- and respawning
  at full width feeds the fire.  Every :data:`STORM_DEATHS` deaths the
  ladder halves the worker target (8 -> 4 -> 2) and finally abandons
  the pool for serial fallback execution, completing the sweep slowly
  rather than failing it.
* :func:`run_resilience_differential` -- the proof harness behind
  ``python -m repro campaign --chaos-infra <seed>``: one fault-free
  sweep and one sweep under a scripted
  :class:`~repro.campaign.chaosinfra.InfraFaultPlan` (worker SIGKILLs,
  heartbeat stalls, slow-worker jitter, then at-rest cache corruption
  and a torn manifest) must produce byte-identical outcome
  fingerprints, with every retry, downgrade and quarantine visible in
  the report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from random import Random

#: failure classifications that may be environment-caused and are
#: therefore worth retrying.  ``error`` is deliberately absent: job
#: payloads are pure functions of their parameters, so an in-job
#: exception is deterministic and a retry cannot change it.
TRANSIENT_STATUSES = ("worker-crash", "worker-timeout")

#: worker deaths per degradation rung: every this-many deaths the pool
#: target halves, and below two workers the pool is abandoned for
#: serial fallback.  High enough that a single poisoned chunk burning
#: its re-queue budget does not shrink a healthy pool.
STORM_DEATHS = 6


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run transient failures, and how patiently.

    ``retries`` caps the *re*-runs: a job always gets one attempt, plus
    up to ``retries`` more while its failures stay transient.  Delays
    grow exponentially (``backoff_base * backoff_mult**attempt``,
    capped at ``backoff_cap``) with a deterministic jitter fraction
    drawn from a ``(seed, job index, attempt)``-keyed stream -- two
    jobs whose first attempts die together do not hammer the pool in
    lockstep, yet the schedule is reproducible run to run.
    """

    retries: int = 2
    backoff_base: float = 0.05
    backoff_mult: float = 2.0
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25
    seed: int = 0

    def retries_for(self, status: str) -> int:
        """Re-runs allowed after a failure of ``status``."""
        return self.retries if status in TRANSIENT_STATUSES else 0

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before re-running job ``index`` after failed ``attempt``."""
        base = min(self.backoff_cap,
                   self.backoff_base * self.backoff_mult ** attempt)
        rng = Random(f"{self.seed}:backoff:{index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


#: retries disabled -- the pre-resilience engine behaviour, used by
#: tests that assert raw failure classification
NO_RETRY = RetryPolicy(retries=0)


@dataclass
class DegradationLadder:
    """Shrink the pool under respawn storms instead of failing the sweep.

    ``target`` is the number of workers the pool may keep alive; the
    engine consults it before every (re)spawn.  :meth:`record_death`
    counts every worker death -- crash, timeout kill, chunk poisoning
    -- and on each :attr:`storm_deaths` multiple descends one rung:
    halve ``target`` while it is above two, then flip :attr:`serial`,
    telling the engine to drain the pool and finish the sweep with
    serial fallback execution.  Every descent is recorded in
    :attr:`events` (and surfaced by the campaign driver); a ladder
    with ``enabled=False`` never descends, which tests use to pin
    pool-width-sensitive behaviour.
    """

    target: int
    storm_deaths: int = STORM_DEATHS
    enabled: bool = True
    deaths: int = 0
    serial: bool = False
    events: list[dict] = field(default_factory=list)

    def record_death(self, jobs_done: int) -> dict | None:
        """Count one worker death; returns the descent event, if any."""
        self.deaths += 1
        if not self.enabled or self.serial or self.deaths % self.storm_deaths:
            return None
        if self.target > 2:
            event = {"kind": "downgrade", "from": self.target,
                     "to": self.target // 2, "deaths": self.deaths,
                     "jobs_done": jobs_done}
            self.target //= 2
        else:
            event = {"kind": "serial-fallback", "from": self.target, "to": 0,
                     "deaths": self.deaths, "jobs_done": jobs_done}
            self.serial = True
        self.events.append(event)
        return event


# ----------------------------------------------------------- differential proof
def resilience_jobs(smoke: bool = False) -> list:
    """The job set the differential harness sweeps.

    Real simulation work (the litmus corpus, a couple of chaos cells)
    plus a spread of trivial selftest jobs -- enough indices that the
    scripted fault plan has distinct targets for each fault kind.
    """
    from .jobs import Job, chaos_jobs, litmus_jobs

    jobs = litmus_jobs()
    if not smoke:
        jobs += chaos_jobs(algos=["lamport", "wsq"], scenarios=["latency"],
                           n_seeds=1)
    jobs += [Job("selftest", {"mode": "ok", "echo": i}) for i in range(8)]
    return jobs


def outcome_fingerprint(campaign) -> str:
    """SHA-256 over every outcome's status + payload, submission order.

    Cache-service flags and error tracebacks are excluded -- they
    describe *how* a job ran, not what it computed -- so the same
    digest must come out inline or at any worker count, cold or warm.
    """
    digest = hashlib.sha256()
    for outcome in campaign.outcomes:
        digest.update(json.dumps(
            [outcome.status, outcome.result],
            sort_keys=True, separators=(",", ":"),
        ).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def run_resilience_differential(
    seed: int,
    parallel: int = 2,
    smoke: bool = False,
    jobs: list | None = None,
    job_timeout: float | None = None,
    progress=None,
) -> dict:
    """Prove fault-free and faulted sweeps converge byte-identically.

    Three campaigns over the same job list:

    1. **baseline** -- fresh cache, no faults, retries disabled;
    2. **faulted** -- fresh cache, scripted live infrastructure faults
       (worker kills, a pre-start chunk poisoning, a heartbeat stall
       that trips the job timeout, slow-worker jitter) healed by the
       retry policy; then the populated cache is sabotaged at rest
       (corrupted + truncated blobs, torn manifest append);
    3. **recovery** -- a warm re-run over the damaged cache: the torn
       manifest is repaired at startup, corrupt blobs are caught by
       checksum, quarantined and recomputed.

    The report's ``ok`` requires all three outcome fingerprints to be
    byte-identical and every job to end ``ok``.  Retry counts,
    degradation events, quarantines and the manifest repair are all
    recorded -- recovery must be visible, never silent.
    """
    import tempfile

    from .cache import ResultCache
    from .chaosinfra import sabotage_cache, scripted_plan
    from .engine import run_campaign

    def say(line: str) -> None:
        if progress is not None:
            progress(line)

    jobs = resilience_jobs(smoke) if jobs is None else jobs
    policy = RetryPolicy(retries=2, seed=seed)
    plan = scripted_plan(seed, len(jobs), retries=policy.retries)
    if job_timeout is None:
        # the scripted stall must reliably out-sleep the timeout, with
        # margin for slow CI hosts on the legitimate jobs
        job_timeout = plan.stall_seconds / 4.0

    report: dict = {
        "seed": seed, "jobs": len(jobs), "parallel": parallel,
        "smoke": smoke, "phases": {}, "plan": plan.describe(),
    }

    def phase(name: str, campaign, cache) -> dict:
        entry = {
            "executed": campaign.executed,
            "cached": campaign.cached,
            "failures": len(campaign.failures),
            "retried": campaign.retried,
            "recovered": len(campaign.recovered),
            "downgrades": list(campaign.downgrades),
            "quarantined": cache.quarantined,
            "manifest_repair": cache.repaired,
            "fingerprint": outcome_fingerprint(campaign),
        }
        report["phases"][name] = entry
        say(f"[chaos-infra] {name}: {entry['executed']} executed, "
            f"{entry['cached']} cached, {entry['retried']} retried, "
            f"{entry['failures']} failed, "
            f"fingerprint {entry['fingerprint'][:12]}")
        return entry

    with tempfile.TemporaryDirectory(prefix="resil-base-") as base_dir, \
            tempfile.TemporaryDirectory(prefix="resil-fault-") as fault_dir:
        say(f"[chaos-infra] seed {seed}: {len(jobs)} jobs, "
            f"{parallel} workers, plan {plan.describe()}")
        base_cache = ResultCache(base_dir)
        baseline = run_campaign(jobs, parallel=parallel, cache=base_cache,
                                retry=NO_RETRY)
        phase("baseline", baseline, base_cache)

        fault_cache = ResultCache(fault_dir)
        faulted = run_campaign(jobs, parallel=parallel, cache=fault_cache,
                               retry=policy, infra=plan,
                               job_timeout=job_timeout)
        phase("faulted", faulted, fault_cache)

        report["sabotage"] = sabotage_cache(fault_dir, plan)
        say(f"[chaos-infra] sabotage: {report['sabotage']}")

        recovery_cache = ResultCache(fault_dir)  # init repairs the manifest
        recovered = run_campaign(jobs, parallel=parallel,
                                 cache=recovery_cache, retry=policy)
        phase("recovery", recovered, recovery_cache)

    fingerprints = {p: e["fingerprint"] for p, e in report["phases"].items()}
    report["identical"] = len(set(fingerprints.values())) == 1
    report["ok"] = bool(
        report["identical"]
        and all(e["failures"] == 0 for e in report["phases"].values())
        # the faults must have actually fired and been healed -- a
        # vacuous pass (nothing injected, nothing quarantined) fails
        and report["phases"]["faulted"]["retried"] > 0
        and report["phases"]["recovery"]["quarantined"] > 0
        and report["phases"]["recovery"]["manifest_repair"] is not None
    )
    return report
