"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` launches ``python passes.py '<json spec>'`` once per pass, so
every pass pays interpreter start, ``repro`` import and job enumeration
the way a CLI user does.  The pass prints one JSON record as its last
line of standard output: when the first job was submitted (the
``CLOCK_MONOTONIC`` nanosecond the parent's launch time is compared
with), its wall time from that submission to the last checked result,
peak RSS, per-job times and simulated cycles, the output digest, and
every failed check named by job.

Spec keys: ``workload``, ``seed``, ``smoke``, ``mode`` (``untraced`` or
``traced``), ``records`` (the per-job record file) and ``tmp`` (scratch
directory for result caches).

Each workload is sized so that one pass takes a few seconds, and a 30 s
run of the benchmark holds several passes to take the median of.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "expected.json"
VERIFY_REPORT = Path("verify-report.json")
APP_SYNTH_REPORT = Path("app-synth-report.json")
SYNTH_REPORT = Path("synth-report.json")

#: Fig. 13 S-Fence normalized execution times the paper reports, as
#: recorded in the Figure 13 table of EXPERIMENTS.md (T = 1.0)
PAPER_FIG13_S = {"pst": 0.90, "ptc": 0.957, "barnes": 0.805, "radiosity": 0.842}

#: figures: the Fig. 13 and Fig. 15 cells at the scale the repository's
#: quick checks use
FIGURES_SCALE = 0.3
FIGURES_SMOKE_SCALE = 0.1

#: fig15-hot: the Figure 15 memory-latency axis pushed into the
#: stall-dominated regime, on both coherence backends
HOT_SCALE = 1.0
HOT_LATENCIES = (1000, 2000, 4000)
HOT_BACKENDS = ("mesi", "sisd")

#: verify-matrix: the fast engine on both backends.  The dense reference
#: loop is the oracle the fast engines are checked against, not a path
#: anyone regenerates results on, and its column takes 7x as long.
VERIFY_ENGINES = ["event"]
VERIFY_BACKENDS = ["mesi", "sisd"]
#: one pool worker: the pool's fork, chunking and result traffic are
#: exercised, and the pass runs no more processes at once than the
#: 2-CPU reference host has cores
VERIFY_WORKERS = 1

#: synth-apps: every app but harris-list, whose synthesis alone takes
#: about 20 s and would leave one pass per run.  harris-list was the only
#: app whose synthesis probes measured costs, so the two synthesis
#: kernels distilled from apps take its place for the cost layer.
SYNTH_APPS = ["chase-lev", "barnes", "ptc", "radiosity"]
SYNTH_KERNELS = ["barnes-publish", "ptc-handoff"]


def job_id(job) -> str:
    """A name unique within a workload, used in every failure message."""
    p = job.params
    if job.kind != "figure":
        return job.label()
    parts = [p["app"]]
    if "label" in p:
        parts.append(p["label"])
    if "param" in p:
        parts += [f"{p['param']}={p['value']}", p["scope"] or "scoped"]
    parts.append(p["mem_backend"])
    return f"{p['figure']}:" + "/".join(parts)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ------------------------------------------------------------------ jobs
def enumerate_jobs(workload: str, seed: int, smoke: bool) -> list:
    from repro.campaign import app_synth_jobs, figure_jobs, verify_jobs
    from repro.campaign.jobs import Job, synth_jobs

    if workload == "figures":
        scale = FIGURES_SMOKE_SCALE if smoke else FIGURES_SCALE
        return figure_jobs("fig13", scale) + figure_jobs("fig15", scale)
    if workload == "fig15-hot":
        latencies = HOT_LATENCIES[1:2] if smoke else HOT_LATENCIES
        jobs = []
        for backend in HOT_BACKENDS:
            # one radiosity cell per fence scope, moved along the latency axis
            templates = {}
            for j in figure_jobs("fig15", HOT_SCALE, mem_backend=backend):
                if j.params["app"] == "radiosity":
                    templates.setdefault(j.params["scope"], j)
            jobs += [Job(t.kind, {**t.params, "value": latency})
                     for latency in latencies for t in templates.values()]
        return jobs
    if workload == "verify-matrix":
        return verify_jobs(engines=VERIFY_ENGINES, backends=VERIFY_BACKENDS, smoke=smoke)
    if workload == "synth-apps":
        if smoke:
            return (app_synth_jobs(names=SYNTH_APPS[:1], seeds=[seed], smoke=True)
                    + synth_jobs(names=SYNTH_KERNELS[-1:], smoke=True))
        return (app_synth_jobs(names=SYNTH_APPS, seeds=[seed, seed + 1])
                + synth_jobs(names=SYNTH_KERNELS))
    raise KeyError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- timing
#: the calibration loop is timed again, before a job or before a
#: simulation inside one, once its last timing is this old
CALIBRATE_EVERY_S = 0.2


def calibration_loop() -> float:
    """Seconds this fixed pure-Python loop takes right now.

    On a shared host the speed the same code runs at changes from one
    second to the next by up to 2x.  Timed next to each job, this loop
    slows and speeds up with the job (README.md, "Noise and bounds"),
    and it runs no repository code, so no change to the program under
    test moves it.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(50_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        total += i * 3 % 7
    return time.perf_counter() - t0


class JobClock:
    """Per-job wall time and simulated cycles, recorded where jobs run.

    Wraps ``execute_job`` and ``Simulator.run`` in this process before
    any pool worker forks, so inline jobs and pool workers alike append
    one ``[job id, seconds, cycles, loop units, calibration seconds]``
    line to the shared record file.

    With ``calibrate`` on, the calibration loop is timed before a job,
    and before each simulation the job starts, whenever its last timing
    is :data:`CALIBRATE_EVERY_S` old, and once more at the end of a job
    if due.  *Loop units* is the job's time counted in loop times: each
    stretch between two timings divided by their mean, a last stretch
    with no timing after it by the last timing.  *Seconds* leave the
    timings out; *calibration seconds* is the time they took.  With
    ``calibrate`` off, loop units and calibration seconds are 0.
    """

    def __init__(self, path: str, calibrate: bool) -> None:
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        self.cycles = 0
        self.calibrate = calibrate
        self.loop_s = 0.0
        self.loop_at = -math.inf
        #: while a job runs: [start of its open stretch, loop units, seconds
        #: spent timing the loop]
        self.job: list[float] | None = None

    def _due(self) -> bool:
        return self.calibrate and time.perf_counter() - self.loop_at >= CALIBRATE_EVERY_S

    def _time_loop(self) -> float:
        """Time the loop, closing the running job's open stretch."""
        t0 = time.perf_counter()
        loop_s = calibration_loop()
        t1 = time.perf_counter()
        if self.job is not None:
            self.job[1] += (t0 - self.job[0]) / ((self.loop_s + loop_s) / 2)
            self.job[0] = t1
            self.job[2] += t1 - t0
        self.loop_s, self.loop_at = loop_s, t1
        return t1 - t0

    def install(self) -> None:
        from repro.campaign import engine
        from repro.sim.simulator import Simulator

        run = Simulator.run
        execute = engine.execute_job

        def counted_run(sim, *args, **kwargs):
            if self.job is not None and self._due():
                self._time_loop()
            result = run(sim, *args, **kwargs)
            self.cycles += result.cycles
            return result

        def timed_execute(job, heartbeat=None):
            before = self._time_loop() if self._due() else 0.0
            c0, t0 = self.cycles, time.perf_counter()
            self.job = state = [t0, 0.0, 0.0]
            try:
                result = execute(job, heartbeat=heartbeat)
            finally:
                self.job = None
            end = time.perf_counter()
            seconds = end - t0 - state[2]
            if self._due():
                self.job = state
                self._time_loop()
                self.job = None
            elif self.calibrate:
                state[1] += (end - state[0]) / self.loop_s
            line = json.dumps([job_id(job), seconds, self.cycles - c0, state[1],
                               before + state[2]])
            os.write(self.fd, (line + "\n").encode())
            return result

        Simulator.run = counted_run
        engine.execute_job = timed_execute

    def records(self) -> list:
        os.close(self.fd)
        return [json.loads(line) for line in Path(self.path).read_text().splitlines()]


# ----------------------------------------------------------------- checks
class Checks:
    """Failed checks, each naming the job (or artifact) it concerns."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.failed_jobs: set[str] = set()

    def fail(self, who: str, message: str) -> None:
        self.failures.append(f"{who}: {message}")
        self.failed_jobs.add(who)

    def outcomes(self, outcomes) -> None:
        for o in outcomes:
            if not o.ok:
                detail = (o.error.strip().splitlines() or [""])[-1]
                self.fail(job_id(o.job), f"{o.status} {detail}")


def _pinned(workload: str, smoke: bool) -> dict:
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    return pins.get(workload + ("-smoke" if smoke else ""), {})


def _check_pinned(checks: Checks, jobs, results, pinned: dict) -> list:
    """Per-job cycle and stall fields against the pinned values."""
    rows = []
    for job, result in zip(jobs, results):
        jid = job_id(job)
        rows.append([jid, result])
        if result is None:
            continue
        want = pinned.get(jid)
        if want != result:
            checks.fail(jid, f"result {result} != pinned {want}")
    for jid in sorted(set(pinned) - {r[0] for r in rows}):
        checks.fail(jid, "pinned job was not run")
    return rows


def _check_cells(checks: Checks, ours: dict, committed: dict) -> None:
    """Every verify cell of ours must equal the committed report's cell.

    The committed report also holds the dense-engine columns, which this
    workload does not run, so it is compared cell by cell.
    """
    if set(ours["tests"]) != set(committed["tests"]):
        checks.fail("verify-report", "tests differ from committed verify-report.json")
    for name, test in sorted(ours["tests"].items()):
        for mode, cell in sorted(test["modes"].items()):
            want = committed["tests"].get(name, {}).get("modes", {}).get(mode, {})
            shared = {k: v for k, v in cell.items() if k != "engines"}
            if shared != {k: want.get(k) for k in shared}:
                checks.fail(f"verify:{name}[{mode}]",
                            "outcomes differ from committed verify-report.json")
            for eng, result in sorted(cell["engines"].items()):
                if result != want.get("engines", {}).get(eng):
                    checks.fail(f"verify:{name}[{mode}]@{eng}",
                                "cell differs from committed verify-report.json")


def run_figures(jobs, smoke: bool, checks: Checks, workload: str) -> dict:
    from repro.campaign import assemble_figure, run_campaign

    t0 = time.perf_counter()
    campaign = run_campaign(jobs, parallel=0)
    out = {"campaign_wall_s": time.perf_counter() - t0, "workers": 1}
    checks.outcomes(campaign.outcomes)
    results = campaign.results()
    for figure in sorted({j.params["figure"] for j in jobs}):
        idx = [i for i, j in enumerate(jobs) if j.params["figure"] == figure]
        assemble_figure(figure, [jobs[i] for i in idx], [results[i] for i in idx])
    rows = _check_pinned(checks, jobs, results, _pinned(workload, smoke))
    cells = {job_id(j): r for j, r in zip(jobs, results) if r is not None}
    out["rows"] = rows
    out["digest"] = sha256(json.dumps(rows, sort_keys=True))
    if workload == "figures":
        s_cells = {j.params["app"]: cells.get(job_id(j)) for j in jobs
                   if j.params.get("label") == "S"}
        t_cells = {j.params["app"]: cells.get(job_id(j)) for j in jobs
                   if j.params.get("label") == "T"}
        if all(s_cells.values()) and all(t_cells.values()):
            ours = {a: s_cells[a]["cycles"] / t_cells[a]["cycles"] for a in s_cells}
            out["sfence_speedup"] = geomean(1 / v for v in ours.values())
            out["fence_stall_share"] = (sum(c["fence_stall_fraction"] for c in s_cells.values())
                                        / len(s_cells))
            out["paper_sfence_speedup"] = geomean(1 / PAPER_FIG13_S[a] for a in ours)
            out["fig13_s_normalized"] = {a: [v, PAPER_FIG13_S[a]] for a, v in ours.items()}
    else:
        pairs = {}
        for j in jobs:
            key = (j.params["mem_backend"], j.params["value"])
            pairs.setdefault(key, {})[j.params["scope"]] = cells.get(job_id(j))
        if all(p.get("global") and p.get(None) for p in pairs.values()):
            out["sfence_speedup"] = geomean(
                p["global"]["cycles"] / p[None]["cycles"] for p in pairs.values())
    return out


def run_verify(jobs, smoke: bool, checks: Checks, mode: str, tmp: str) -> dict:
    from repro.campaign import ResultCache, run_campaign
    from repro.verify.runner import assemble_verify_report, format_verify_failures

    def report_text(outcomes) -> str:
        report = assemble_verify_report(outcomes, seeds=jobs[0].params["seeds"],
                                        smoke=smoke)
        for line in format_verify_failures(report):
            checks.fail("verify-report", line.splitlines()[0])
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    t0 = time.perf_counter()
    if mode == "traced":
        # the traced pass runs inline: every layer in one process
        cold = run_campaign(jobs, parallel=0)
        out = {"campaign_wall_s": time.perf_counter() - t0, "workers": 1}
        warm = None
    else:
        cold = run_campaign(jobs, parallel=VERIFY_WORKERS, cache=ResultCache(tmp))
        out = {"campaign_wall_s": time.perf_counter() - t0, "workers": VERIFY_WORKERS}
        warm = run_campaign(jobs, parallel=VERIFY_WORKERS, cache=ResultCache(tmp))
    checks.outcomes(cold.outcomes)
    text = report_text(cold.outcomes)
    if not smoke:
        _check_cells(checks, json.loads(text), json.loads(VERIFY_REPORT.read_text()))
    if warm is not None:
        checks.outcomes(warm.outcomes)
        if warm.executed:
            checks.fail("verify-warm", f"warm pass executed {warm.executed} job(s), want 0")
        if report_text(warm.outcomes) != text:
            checks.fail("verify-warm", "warm report differs from the cold report")
    out["digest"] = sha256(text)
    return out


def run_synth(jobs, seed: int, smoke: bool, checks: Checks) -> dict:
    from repro.campaign import run_campaign
    from repro.synth.report import assemble_app_synth_report, assemble_synth_report

    t0 = time.perf_counter()
    campaign = run_campaign(jobs, parallel=0)
    out = {"campaign_wall_s": time.perf_counter() - t0, "workers": 1}
    checks.outcomes(campaign.outcomes)
    apps = [o for o in campaign.outcomes if o.job.kind == "app-synth"]
    kernels = [o for o in campaign.outcomes if o.job.kind == "synth"]
    report = assemble_app_synth_report(apps, smoke=smoke)
    for r in report["rejections"]:
        checks.fail(f"app-synth:{r['name']}", "placement rejected or mutant survived")
    kernel_report = assemble_synth_report(kernels, smoke=smoke)
    for r in kernel_report["regressions"]:
        checks.fail(f"synth:{r['name']}", "hand placement unsound or synthesis costlier")
    # the committed reports also hold the cases this workload leaves out:
    # compare case by case.  Only the apps' chaos battery reads the seed.
    if not smoke:
        for who, ours, path, seeded in (
                ("app-synth", report, APP_SYNTH_REPORT, True),
                ("synth", kernel_report, SYNTH_REPORT, False)):
            if seeded and seed != 0:
                continue
            committed = json.loads(path.read_text())["cases"]
            for name, case in ours["cases"].items():
                if case != committed.get(name):
                    checks.fail(f"{who}:{name}", f"differs from committed {path}")
    out["digest"] = sha256(json.dumps([report, kernel_report], sort_keys=True))
    return out


# ------------------------------------------------------------------- main
def run_pass(spec: dict, start_loop_s: float, start_spent_s: float) -> dict:
    """One pass; the calibration loop took ``start_loop_s`` when timed
    at process start, and timing it took ``start_spent_s`` of set-up."""
    workload, seed, smoke, mode = spec["workload"], spec["seed"], spec["smoke"], spec["mode"]
    jobs = enumerate_jobs(workload, seed, smoke)
    record = {"t_submit_ns": time.monotonic_ns()}
    # set-up is bracketed by a loop timing at either end; this one falls
    # between set-up and the timed pass, so neither includes it
    record["setup_loop"] = [(start_loop_s + calibration_loop()) / 2, start_spent_s]
    import layers

    trace = layers.LayerTrace()
    if mode == "traced":
        layers.install(trace)
    else:
        # parent-side result-cache counts only: a few hundred calls a pass
        layers.install_cache_counters(trace)
    clock = JobClock(spec["records"], calibrate=mode != "traced")
    clock.install()
    checks = Checks()
    t0 = time.perf_counter()
    trace.start()
    if workload == "verify-matrix":
        out = run_verify(jobs, smoke, checks, mode, spec["tmp"])
    elif workload == "synth-apps":
        out = run_synth(jobs, seed, smoke, checks)
    else:
        out = run_figures(jobs, smoke, checks, workload)
    trace.stop()
    wall = time.perf_counter() - t0
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    attempted = len(jobs) * (2 if workload == "verify-matrix" and mode != "traced" else 1)
    record.update(
        wall_s=wall,
        peak_rss_mb=peak_kb / 1024,
        jobs=clock.records(),
        attempted=attempted,
        failed=min(attempted, len(checks.failed_jobs)),
        failures=checks.failures,
        digest=out.pop("digest"),
        sim=out,
        layers=trace.report(),
    )
    return record


if __name__ == "__main__":
    _t0 = time.perf_counter()
    _loop_s = calibration_loop()
    print(json.dumps(run_pass(json.loads(sys.argv[1]), _loop_s, time.perf_counter() - _t0)))
