"""The campaign executor: cached, resumable, crash-isolated fan-out.

``run_campaign`` takes a declarative job list and executes it either
inline (``parallel=0``) or on a pool of worker *processes*
(``parallel>=1``).  Four properties are the contract:

* **Determinism** -- results are returned in job-submission order and
  each job's payload is a pure function of its parameters (see
  :func:`repro.campaign.jobs.execute_job`), so a campaign produces the
  identical outcome list whether it ran inline, on one worker, or on
  sixteen.  Nothing host- or wall-clock-dependent enters a payload.
* **Crash isolation** -- a worker that dies is respawned and only the
  job it was executing is classified ``worker-crash``; one that stops
  heartbeating past the job timeout is killed and its job classified
  ``worker-timeout``; an exception inside a job is ``error`` with the
  traceback.  None of them abort the campaign or poison other jobs.
* **Resilience** -- transient failures (``worker-crash``,
  ``worker-timeout``) are re-run under a
  :class:`~repro.campaign.resilience.RetryPolicy` with exponential
  backoff and deterministic jitter; a deterministic job ``error`` is
  never retried.  Final outcomes record their attempt history.  Under
  a respawn storm the :class:`~repro.campaign.resilience.DegradationLadder`
  shrinks the pool (8 -> 4 -> 2) and ultimately abandons it for serial
  fallback execution, completing the sweep rather than failing it --
  every downgrade is reported through ``on_event``.
* **Resumability** -- with a :class:`~repro.campaign.cache.ResultCache`
  attached, completed jobs are served from disk (checksum-verified;
  corrupt entries are quarantined and recomputed) and *zero*
  simulations re-execute; an interrupted campaign continues from
  wherever its manifest left off.

Parallel campaigns run on a **persistent pool** that forks each of the
``parallel`` workers once per campaign.  Workers pull *chunks* of jobs
(size-aware chunking via :func:`repro.campaign.jobs.job_cost`: many
tiny litmus/verify cells batch together, long chaos rungs stay solo),
stream per-job results and heartbeats back over their pipe, and keep
warm state between jobs -- the source-tree fingerprint computed once
in the parent and installed into each worker
(:func:`repro.campaign.cache.set_process_fingerprint`), memoised
parse/exploration products and figure points keyed by job parameters
(jobs sharing a figure point travel in one chunk, see
:func:`plan_chunks`), and a quiesced garbage collector (the inherited
module heap is frozen out of collection traversal, which also keeps
forked pages copy-on-write clean).  Completed results are flushed to
the cache one manifest append + fsync per *chunk* instead of per job.
A worker that dies mid-chunk is respawned; only its in-flight job is
classified ``worker-crash`` and the unstarted remainder of the chunk is
re-queued at the front of the queue.

Workers are forked (POSIX) so they inherit the loaded simulator modules
instead of re-importing them; the spawn fallback keeps the engine
functional on platforms without ``fork``.  The chaos supervisor's
escalation ladder runs entirely inside the worker -- each budget rung
sends a heartbeat over the result pipe, which resets the parent's
deadline so a legitimately escalating case is never confused with a
hung one.  Timeouts are therefore *per job* even when jobs travel in
chunks: any message from a worker (job start, heartbeat, result)
resets its deadline.

For fault-injection testing, an
:class:`~repro.campaign.chaosinfra.InfraFaultPlan` (``infra=``) arms
scripted worker kills, stalls and jitter inside persistent pool
workers; the serial fallback path deliberately runs fault-free.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing.connection import wait as _conn_wait

from .cache import ResultCache, set_process_fingerprint
from .chaosinfra import InfraFaultPlan, fault_on_receive, fault_pre_job
from .jobs import Job, execute_job, follower_cost, job_affinity, job_cost
from .resilience import DegradationLadder, RetryPolicy, TRANSIENT_STATUSES

#: outcome statuses (job-level; a chaos job whose *case* deadlocked is
#: still status "ok" here -- the classification is in its payload)
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CRASH = "worker-crash"
STATUS_TIMEOUT = "worker-timeout"

FAILURE_STATUSES = (STATUS_ERROR, STATUS_CRASH, STATUS_TIMEOUT)

assert set(TRANSIENT_STATUSES) == {STATUS_CRASH, STATUS_TIMEOUT}

#: default per-job wall-clock budget between heartbeats (seconds).
#: Generous: a single escalation rung of a storm case is well under a
#: minute; only a genuinely wedged worker trips this.
DEFAULT_JOB_TIMEOUT = 600.0

#: ``--parallel auto`` resolves to the host's CPU count, capped here --
#: beyond this the grids in this repo are IPC-bound, not compute-bound
AUTO_PARALLEL_CAP = 8

#: chunking targets: aim for this many chunks per worker so stragglers
#: rebalance, and never put more than this many jobs in one chunk (the
#: re-queue blast radius when a worker dies mid-chunk)
CHUNKS_PER_WORKER = 4
MAX_CHUNK_JOBS = 16

#: a chunk re-queued this many times without any job *starting* is
#: declared poisoned and its jobs classified worker-crash -- the
#: backstop that keeps a worker crashing on chunk receipt from looping
MAX_CHUNK_REQUEUES = 3

#: the retry policy ``run_campaign`` uses when none is passed
DEFAULT_RETRY = RetryPolicy()


def auto_parallel() -> int:
    """The worker count ``--parallel auto`` resolves to."""
    return max(1, min(os.cpu_count() or 1, AUTO_PARALLEL_CAP))


@dataclass
class JobOutcome:
    """One job's terminal state.

    ``attempts`` is the status of every *failed attempt that was
    retried*, oldest first; the final attempt's status is ``status``
    itself, so a job that crashed twice and then succeeded has
    ``status == "ok"`` and ``attempts == ("worker-crash",
    "worker-crash")``.
    """

    job: Job
    status: str
    result: dict | None = None
    cached: bool = False
    error: str = ""
    attempts: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def attempt_count(self) -> int:
        """Total executions of this job (retries included)."""
        return len(self.attempts) + 1


@dataclass
class CampaignResult:
    """All outcomes, in job-submission order, plus execution counters."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    executed: int = 0     # jobs that actually ran (not cache hits)
    cached: int = 0       # jobs served from the result cache
    downgrades: list[dict] = field(default_factory=list)

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def retried(self) -> int:
        """Total re-executions across the campaign."""
        return sum(len(o.attempts) for o in self.outcomes)

    @property
    def recovered(self) -> list[JobOutcome]:
        """Jobs that failed transiently but ended ``ok`` after retries."""
        return [o for o in self.outcomes if o.ok and o.attempts]

    def results(self) -> list[dict | None]:
        return [o.result for o in self.outcomes]


# ------------------------------------------------------------------- chunking
def plan_chunks(
    jobs: list[Job],
    pending: list[int],
    parallel: int,
    target_cost: float | None = None,
) -> list[list[int]]:
    """Size-aware chunks of the pending job indices.

    Submission order is preserved inside every chunk and, for jobs
    without affinity, across chunks (adjacent litmus cells share a
    worker's warm parse), the
    per-chunk cost aims at ``total / (parallel * CHUNKS_PER_WORKER)``
    so many tiny jobs batch together while a single expensive job --
    one chaos storm rung costs an order of magnitude more than a litmus
    cell -- fills a chunk by itself, and no chunk exceeds
    :data:`MAX_CHUNK_JOBS` jobs (the re-queue blast radius).

    Jobs sharing a :func:`~repro.campaign.jobs.job_affinity` travel in
    the chunk of the first of them, so the worker's warm memo serves the
    rest; each adds its :func:`~repro.campaign.jobs.follower_cost` to
    that chunk's cost.  A job list without affinities is cut into
    contiguous chunks.
    """
    if not pending:
        return []
    # each unit is a job plus the later pending jobs sharing its affinity
    units: list[list[int]] = []
    leaders: dict = {}
    for index in pending:
        key = job_affinity(jobs[index])
        if key is None:
            units.append([index])
        elif key in leaders:
            leaders[key].append(index)
        else:
            leaders[key] = [index]
            units.append(leaders[key])
    costs = [job_cost(jobs[unit[0]]) + sum(follower_cost(jobs[i]) for i in unit[1:])
             for unit in units]
    if target_cost is None:
        target_cost = sum(costs) / max(1, parallel * CHUNKS_PER_WORKER)
    target_cost = max(target_cost, 1e-9)
    chunks: list[list[int]] = []
    cur: list[int] = []
    acc = 0.0
    for unit, cost in zip(units, costs):
        if cur and (acc + cost > target_cost
                    or len(cur) + len(unit) > MAX_CHUNK_JOBS):
            chunks.append(cur)
            cur, acc = [], 0.0
        cur.extend(unit)
        acc += cost
        if acc >= target_cost or len(cur) >= MAX_CHUNK_JOBS:
            chunks.append(cur)
            cur, acc = [], 0.0
    if cur:
        chunks.append(cur)
    if len(units) < len(pending):
        chunks = [sorted(chunk) for chunk in chunks]
    return chunks


# ------------------------------------------------------------- worker bodies
def _worker_entry(conn, job: Job) -> None:
    """Single-shot worker body (serial fallback): run one job, ship the
    payload back."""
    try:
        result = execute_job(job, heartbeat=lambda: conn.send(("heartbeat",)))
        conn.send(("done", STATUS_OK, result))
    except Exception:
        conn.send(("done", STATUS_ERROR, traceback.format_exc()))
    finally:
        conn.close()


def _quiesce_worker_gc() -> None:
    """Freeze the inherited heap in a freshly forked persistent worker.

    The parent's module graph is immortal for the worker's lifetime;
    freezing it moves it out of cyclic-GC traversal, so the frequent
    young-generation collections a simulation triggers stop touching
    (and copy-on-write duplicating) the shared pages.  The raised
    generation-0 threshold trades a little peak memory for not running
    the collector thousands of times per job; per-job garbage still
    dies by refcount, so results are unaffected (``tests/test_teardown.py``
    runs apps, a verify case and a synthesis kernel with the collector
    disabled and checks that every run is freed).
    """
    gc.freeze()
    gc.set_threshold(100_000, 50, 50)


def _pool_worker_entry(conn, fingerprint: str,
                       infra: InfraFaultPlan | None = None) -> None:
    """Persistent-worker body: drain job chunks until told to exit.

    Protocol (all over one duplex pipe):

    * parent -> worker: ``("chunk", [(index, job, attempt), ...])`` or
      ``("exit",)``
    * worker -> parent: ``("start", index)`` before each job,
      ``("heartbeat",)`` while one runs, ``("done", index, status,
      payload)`` after it, ``("chunk-done",)`` after the chunk.

    ``attempt`` is the number of prior failed attempts of that job --
    it never influences the payload (results are pure functions of the
    job parameters), only the scripted infrastructure fault hooks,
    which key on ``(index, attempt)`` so an injected fault fires on a
    specific attempt and the retry runs clean.

    The parent's source-tree fingerprint is installed so nothing in
    this process ever re-hashes the tree (see
    :func:`repro.campaign.cache.set_process_fingerprint`).
    """
    if fingerprint:
        set_process_fingerprint(fingerprint)
    _quiesce_worker_gc()
    try:
        while True:
            message = conn.recv()
            if message[0] != "chunk":
                break
            for index, job, attempt in message[1]:
                if infra is not None:
                    fault_on_receive(infra, index, attempt)
                conn.send(("start", index))
                if infra is not None:
                    fault_pre_job(infra, index, attempt)
                try:
                    result = execute_job(
                        job, heartbeat=lambda: conn.send(("heartbeat",)))
                    conn.send(("done", index, STATUS_OK, result))
                except Exception:
                    conn.send(("done", index, STATUS_ERROR,
                               traceback.format_exc()))
            conn.send(("chunk-done",))
    except (EOFError, OSError):  # pragma: no cover - parent went away
        pass
    finally:
        conn.close()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


# --------------------------------------------------------------- entry point
def run_campaign(
    jobs: list[Job],
    parallel: int = 0,
    cache: ResultCache | None = None,
    progress=None,
    job_timeout: float = DEFAULT_JOB_TIMEOUT,
    chunk_cost: float | None = None,
    retry: RetryPolicy | None = None,
    infra: InfraFaultPlan | None = None,
    ladder: DegradationLadder | None = None,
    on_event=None,
) -> CampaignResult:
    """Execute ``jobs``; see the module docstring for the contract.

    ``parallel=0`` runs inline in this process (still cache-aware and
    still per-job isolated from lazy global state); ``parallel>=1``
    uses that many persistent chunk-pulling worker processes.
    ``progress(outcome, done, total)`` is invoked once per job as it
    completes (cache hits first, then executions in *completion* order
    -- the returned list is always in submission order regardless).
    ``chunk_cost`` overrides the persistent pool's per-chunk cost
    target (tests use it to force exact chunk shapes).

    ``retry`` defaults to :data:`DEFAULT_RETRY` (pass
    :data:`~repro.campaign.resilience.NO_RETRY` to disable); ``ladder``
    defaults to a fresh degradation ladder sized to ``parallel``;
    ``infra`` arms scripted infrastructure faults in pool workers;
    ``on_event(kind, message)`` receives ``"retry"``, ``"downgrade"``
    and ``"serial-fallback"`` notifications as they happen.
    """
    retry = DEFAULT_RETRY if retry is None else retry
    campaign = CampaignResult(outcomes=[None] * len(jobs))  # type: ignore[list-item]
    done = 0

    def finish(index: int, outcome: JobOutcome) -> None:
        nonlocal done
        campaign.outcomes[index] = outcome
        done += 1
        if outcome.cached:
            campaign.cached += 1
        else:
            campaign.executed += 1
        if progress is not None:
            progress(outcome, done, len(jobs))

    # ---------------------------------------------------------- cache pass
    pending: list[int] = []
    for i, job in enumerate(jobs):
        hit = cache.get(job) if cache is not None else None
        if hit is not None:
            finish(i, JobOutcome(job, STATUS_OK, hit, cached=True))
        else:
            pending.append(i)

    # ---------------------------------------------------------- inline mode
    if parallel <= 0:
        for i in pending:
            job = jobs[i]
            try:
                result = execute_job(job)
                outcome = JobOutcome(job, STATUS_OK, result)
            except Exception:
                outcome = JobOutcome(job, STATUS_ERROR, None,
                                     error=traceback.format_exc())
            if cache is not None:
                cache.put(job, outcome.status, outcome.result)
            finish(i, outcome)
        return campaign

    if ladder is None:
        ladder = DegradationLadder(target=parallel)
    leftover, attempts = _run_persistent_pool(
        jobs, pending, parallel, cache, finish, job_timeout, chunk_cost,
        retry, infra, ladder, on_event)
    campaign.downgrades = list(ladder.events)
    # announced whenever the ladder abandoned the pool, like the ladder's
    # own record: the surviving workers may already have finished every job
    if ladder.serial and on_event is not None:
        on_event("serial-fallback",
                 f"pool abandoned; running {len(leftover)} remaining "
                 f"job(s) serially")
    if leftover:
        _run_serial_fallback(jobs, sorted(set(leftover)), cache, finish,
                             attempts, job_timeout)
    return campaign


# ------------------------------------------------------------ persistent pool
class _PoolWorker:
    """Parent-side state of one persistent worker."""

    __slots__ = ("process", "conn", "deadline", "timeout",
                 "remaining", "in_flight", "batch", "requeues", "idle")

    def __init__(self, process, conn, timeout):
        self.process = process
        self.conn = conn
        self.timeout = timeout
        self.remaining: list[int] = []   # chunk jobs not yet started
        self.in_flight: int | None = None  # started, no result yet
        self.batch: list[tuple[Job, str, dict]] = []  # ok results to flush
        self.requeues = 0                # the current chunk's requeue count
        self.idle = True                 # alive but holding no chunk
        self.beat()

    def beat(self) -> None:
        self.deadline = time.monotonic() + self.timeout


def _run_persistent_pool(
    jobs, pending, parallel, cache, finish, job_timeout, chunk_cost,
    retry, infra, ladder, on_event,
) -> tuple[list[int], dict[int, list[str]]]:
    """The chunk-pulling pool; returns (unstarted leftovers, attempts).

    Leftovers are non-empty only when the degradation ladder abandoned
    the pool (serial fallback) -- the caller finishes them in-process.
    """
    ctx = _mp_context()
    fingerprint = cache.fingerprint if cache is not None else ""
    # chunks carry their requeue count so a chunk that repeatedly kills
    # its worker before starting any job cannot re-queue forever
    chunks: deque[tuple[list[int], int]] = deque(
        (chunk, 0) for chunk in plan_chunks(jobs, pending, parallel, chunk_cost)
    )
    active: dict[object, _PoolWorker] = {}
    attempts: dict[int, list[str]] = {}   # retried-failure statuses per job
    retry_at: list[tuple[float, int]] = []  # heap of (ready time, index)
    serial_pending: list[int] = []
    completed = 0
    # drop garbage now so every fork starts from a clean heap and the
    # workers' gc.freeze() pins live objects only
    gc.collect()

    def emit(kind: str, message: str) -> None:
        if on_event is not None:
            on_event(kind, message)

    def settle_ok(index: int, payload) -> None:
        nonlocal completed
        completed += 1
        finish(index, JobOutcome(jobs[index], STATUS_OK, payload,
                                 attempts=tuple(attempts.get(index, ()))))

    def settle_failure(index: int, status: str, error: str) -> None:
        """Retry a transient failure with backoff, or finish the job."""
        nonlocal completed
        history = attempts.setdefault(index, [])
        if len(history) < retry.retries_for(status):
            history.append(status)
            if ladder.serial:
                serial_pending.append(index)
                emit("retry", f"{jobs[index].label()}: {status}; retry "
                              f"{len(history)}/{retry.retries} via serial "
                              f"fallback")
            else:
                delay = retry.delay(index, len(history) - 1)
                heappush(retry_at, (time.monotonic() + delay, index))
                emit("retry", f"{jobs[index].label()}: {status}; retry "
                              f"{len(history)}/{retry.retries} "
                              f"in {delay:.2f}s")
            return
        completed += 1
        finish(index, JobOutcome(jobs[index], status, None, error=error,
                                 attempts=tuple(history)))

    def flush(worker: _PoolWorker) -> None:
        if cache is not None and worker.batch:
            cache.put_many(worker.batch)
        worker.batch.clear()

    def assign(worker: _PoolWorker) -> bool:
        """Hand ``worker`` the next chunk or ready retry; False if none."""
        if chunks:
            chunk, requeues = chunks.popleft()
        elif retry_at and retry_at[0][0] <= time.monotonic():
            chunk, requeues = [heappop(retry_at)[1]], 0
        else:
            return False
        worker.remaining = list(chunk)
        worker.in_flight = None
        worker.requeues = requeues
        worker.idle = False
        worker.beat()
        worker.conn.send(("chunk", [
            (i, jobs[i], len(attempts.get(i, ()))) for i in chunk]))
        return True

    def spawn() -> None:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_pool_worker_entry,
                           args=(child_conn, fingerprint, infra), daemon=True)
        proc.start()
        child_conn.close()
        worker = _PoolWorker(proc, parent_conn, job_timeout)
        active[parent_conn] = worker
        assign(worker)

    def retire(worker: _PoolWorker) -> None:
        """Clean shutdown of an idle worker (no work for it)."""
        flush(worker)
        try:
            worker.conn.send(("exit",))
        except (BrokenPipeError, OSError):  # pragma: no cover - racing death
            pass
        worker.conn.close()
        del active[worker.conn]
        worker.process.join()

    def go_serial() -> None:
        """Abandon the pool: queue everything for in-process execution."""
        while chunks:
            chunk, _ = chunks.popleft()
            serial_pending.extend(chunk)
        while retry_at:
            serial_pending.append(heappop(retry_at)[1])
        for worker in [w for w in active.values() if w.idle]:
            retire(worker)

    def reap(worker: _PoolWorker, status: str, error: str, kill: bool) -> None:
        """A worker died or was killed: classify, re-queue, replace.

        Only the in-flight job gets ``status``; chunk jobs that never
        started are pushed back to the *front* of the queue so overall
        ordering stays as close to submission order as a crash allows.
        Every death feeds the degradation ladder.
        """
        if kill:
            worker.process.terminate()
        worker.process.join()
        worker.conn.close()
        del active[worker.conn]
        flush(worker)
        if worker.in_flight is not None:
            settle_failure(worker.in_flight, status, error)
            worker.requeues = 0  # progress was made; reset the backstop
        if worker.remaining:
            if worker.requeues + 1 > MAX_CHUNK_REQUEUES:
                for i in worker.remaining:
                    settle_failure(i, STATUS_CRASH,
                                   f"chunk re-queued {worker.requeues} times "
                                   f"without progress; giving up ({error})")
            else:
                chunks.appendleft((list(worker.remaining), worker.requeues + 1))
        event = ladder.record_death(completed)
        if event is not None:
            if ladder.serial:
                emit("downgrade",
                     f"respawn storm ({event['deaths']} worker deaths): "
                     f"abandoning the pool for serial execution")
                go_serial()
            else:
                emit("downgrade",
                     f"respawn storm ({event['deaths']} worker deaths): "
                     f"shrinking pool {event['from']} -> {event['to']} "
                     f"worker(s)")
        if (not ladder.serial and (chunks or retry_at)
                and len(active) < ladder.target):
            spawn()

    for _ in range(min(parallel, len(chunks))):
        spawn()

    while active:
        now = time.monotonic()
        waits = [w.deadline - now for w in active.values() if not w.idle]
        if retry_at:
            waits.append(retry_at[0][0] - now)
        wait_for = max(0.01, min(waits)) if waits else 0.05
        ready = _conn_wait(list(active), timeout=wait_for)

        for conn in ready:
            worker = active.get(conn)
            if worker is None:  # reaped earlier in this same batch
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                worker.process.join()  # reap first so exitcode is real
                code = worker.process.exitcode
                reap(worker, STATUS_CRASH,
                     f"worker exited with code {code} before reporting",
                     kill=False)
                continue
            worker.beat()
            tag = message[0]
            if tag == "heartbeat":
                continue
            if tag == "start":
                index = message[1]
                worker.in_flight = index
                if index in worker.remaining:
                    worker.remaining.remove(index)
                continue
            if tag == "done":
                _tag, index, status, payload = message
                worker.in_flight = None
                worker.requeues = 0
                if status == STATUS_OK:
                    worker.batch.append((jobs[index], status, payload))
                    settle_ok(index, payload)
                else:
                    settle_failure(index, status, str(payload))
                continue
            if tag == "chunk-done":
                flush(worker)
                if not assign(worker):
                    if chunks or retry_at:
                        worker.idle = True  # a retry will ready up soon
                    else:
                        retire(worker)
                continue

        now = time.monotonic()
        for worker in [w for w in active.values()
                       if not w.idle and w.deadline <= now]:
            reap(worker, STATUS_TIMEOUT,
                 f"no progress for {worker.timeout:.0f}s; worker killed",
                 kill=True)

        # idle workers: hand out retries that became ready, retire the
        # rest once no further work can materialise
        for worker in [w for w in active.values() if w.idle]:
            if chunks or retry_at:
                assign(worker)  # no-op while the retry backoff runs
            else:
                retire(worker)

    # whatever never started belongs to the serial fallback (non-empty
    # only when the ladder bottomed out or the whole pool died)
    while chunks:
        chunk, _ = chunks.popleft()
        serial_pending.extend(chunk)
    while retry_at:
        serial_pending.append(heappop(retry_at)[1])
    return serial_pending, attempts


# ------------------------------------------------------------ serial fallback
def _run_one_isolated(ctx, job: Job, job_timeout: float) -> tuple[str, object]:
    """Run one job in a fresh single-shot process; (status, payload)."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker_entry, args=(child_conn, job),
                       daemon=True)
    proc.start()
    child_conn.close()
    deadline = time.monotonic() + job_timeout
    try:
        while True:
            remain = deadline - time.monotonic()
            if remain <= 0:
                proc.terminate()
                proc.join()
                return (STATUS_TIMEOUT,
                        f"no progress for {job_timeout:.0f}s; worker killed")
            if not parent_conn.poll(remain):
                continue
            try:
                message = parent_conn.recv()
            except (EOFError, OSError):
                proc.join()
                return (STATUS_CRASH,
                        f"worker exited with code {proc.exitcode} "
                        f"before reporting")
            if message[0] == "heartbeat":
                deadline = time.monotonic() + job_timeout
                continue
            _tag, status, payload = message
            proc.join()
            return status, payload
    finally:
        parent_conn.close()


def _run_serial_fallback(jobs, indices, cache, finish, attempts,
                         job_timeout) -> None:
    """The ladder's last rung: finish the sweep without a pool.

    Jobs with a clean history run in-process (serial, no fork); a job
    that has already taken a worker down -- any transient failure in
    its history -- is never brought into the campaign driver's own
    process and re-runs in a fresh single-shot isolated process
    instead, still under the job timeout.  No further retries: this is
    the recovery of last resort, and infrastructure fault hooks are
    deliberately not installed here.
    """
    ctx = _mp_context()
    for index in indices:
        job = jobs[index]
        history = attempts.get(index, [])
        if history:
            status, payload = _run_one_isolated(ctx, job, job_timeout)
        else:
            try:
                payload = execute_job(job)
                status = STATUS_OK
            except Exception:
                status, payload = STATUS_ERROR, traceback.format_exc()
        if status == STATUS_OK:
            if cache is not None:
                cache.put(job, status, payload)
            finish(index, JobOutcome(job, STATUS_OK, payload,
                                     attempts=tuple(history)))
        else:
            finish(index, JobOutcome(job, status, None, error=str(payload),
                                     attempts=tuple(history)))

