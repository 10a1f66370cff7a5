"""Parallel campaign engine: cached, resumable, crash-isolated sweeps.

The evaluation surfaces of this repo -- chaos sweeps, the Figure 12-16
benchmark tables, the litmus corpus -- are all embarrassingly parallel
grids of independent simulations.  This package turns each of them into
a declarative job list (:mod:`~repro.campaign.jobs`), executes the list
on a pool of crash-isolated worker processes
(:mod:`~repro.campaign.engine`), and memoises every completed cell in a
content-addressed on-disk cache (:mod:`~repro.campaign.cache`) so
re-runs and interrupted campaigns resume without re-simulating
anything.  Determinism is the contract throughout: the same job list
with the same seeds produces byte-identical results inline, on one
worker, or on many.

A resilience layer (:mod:`~repro.campaign.resilience`,
:mod:`~repro.campaign.chaosinfra`) extends that contract to a hostile
substrate: transient worker failures retry with backoff, respawn
storms degrade the pool gracefully down to serial execution, cached
results are checksum-verified (corrupt entries quarantined and
recomputed), and a scripted infrastructure fault injector plus a
differential harness prove a faulted sweep converges to the
byte-identical outcome fingerprint of a fault-free one.
"""

from .cache import (
    ResultCache,
    code_fingerprint,
    job_key,
    result_checksum,
    set_process_fingerprint,
)
from .chaosinfra import InfraFaultPlan, sabotage_cache, scripted_plan
from .engine import (
    CampaignResult,
    DEFAULT_JOB_TIMEOUT,
    FAILURE_STATUSES,
    JobOutcome,
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    auto_parallel,
    plan_chunks,
    run_campaign,
)
from .resilience import (
    DegradationLadder,
    NO_RETRY,
    RetryPolicy,
    TRANSIENT_STATUSES,
    run_resilience_differential,
)
from .figures import (
    BACKEND_REPORT_PATH,
    FIGURES,
    assemble_figure,
    backend_compare_report,
    figure_jobs,
    run_figure_cell,
)
from .jobs import (
    Job,
    chaos_jobs,
    execute_job,
    job_affinity,
    job_cost,
    litmus_jobs,
    app_synth_jobs,
    probe_jobs,
    synth_jobs,
    verify_jobs,
)

__all__ = [
    "BACKEND_REPORT_PATH",
    "CampaignResult",
    "DEFAULT_JOB_TIMEOUT",
    "DegradationLadder",
    "FAILURE_STATUSES",
    "FIGURES",
    "InfraFaultPlan",
    "Job",
    "JobOutcome",
    "NO_RETRY",
    "ResultCache",
    "RetryPolicy",
    "STATUS_CRASH",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "TRANSIENT_STATUSES",
    "assemble_figure",
    "auto_parallel",
    "backend_compare_report",
    "chaos_jobs",
    "code_fingerprint",
    "execute_job",
    "figure_jobs",
    "job_affinity",
    "job_cost",
    "job_key",
    "litmus_jobs",
    "plan_chunks",
    "app_synth_jobs",
    "probe_jobs",
    "result_checksum",
    "run_campaign",
    "run_figure_cell",
    "run_resilience_differential",
    "sabotage_cache",
    "scripted_plan",
    "set_process_fingerprint",
    "synth_jobs",
    "verify_jobs",
]
