"""End-to-end benchmark of the Fence Scoping reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload figures --seed 0 --seconds 30 --trace 0

Four workloads (see README.md) run through the repository's public
entry points.  Every pass is a fresh ``passes.py`` process; passes of
several workloads interleave rep by rep.  ``--seconds`` bounds each
workload's untraced passes by time, ``--reps`` by count.  ``--trace 1``
adds one traced pass per workload and reports the per-layer metrics.

The metric names and units are the ones ``BENCHMARK.json`` declares.
Every metric is printed with its median, quartiles and sample count
(end-to-end times at the reference speed, see :func:`pass_metrics`,
beside the host clock's median); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
the medians.  The exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("figures", "fig15-hot", "verify-matrix", "synth-apps")

#: a launch is killed as hung after these limits, which depend only on
#: its own workload's passes: the first pass, then later untraced and
#: traced passes as multiples of the median pass (a traced pass runs
#: inline and wrapped: up to 5.6x measured)
FIRST_PASS_TIMEOUT_S = 60
PASS_TIMEOUT_FACTOR = {"untraced": 3, "traced": 8}
TIMEOUT_SLACK_S = 20

#: the calibration loop's time (``passes.calibration_loop``) that sets the
#: reference speed: its median over 11,000 timings next to jobs on the
#: 2-CPU reference container
REF_LOOP_S = 0.017


def pass_metrics(record: dict, ref_loop_s: float | None = REF_LOOP_S) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Every host time is rescaled to the reference speed, the speed at
    which the calibration loop takes ``ref_loop_s``: a job's time is its
    loop units (``passes.JobClock``) times ``ref_loop_s``, set-up time is
    scaled by the loop timed at either end of set-up, and the pass's
    time outside its jobs (campaign bookkeeping, the pool's fork and
    messages, the warm verify sweep, report assembly and checks) by the
    median job's mean loop time.  Time spent timing the loop is left
    out.  With ``ref_loop_s=None`` the times are the host clock's.
    """
    jobs = record["jobs"]
    setup_loop_s, setup_spent_s = record["setup_loop"]

    def scale(loop_s: float) -> float:
        return 1.0 if ref_loop_s is None else ref_loop_s / loop_s

    job_s = sum(j[1] for j in jobs)
    outside_s = record["wall_s"] - job_s - sum(j[4] for j in jobs)
    scaled_job_s = job_s if ref_loop_s is None else sum(j[3] for j in jobs) * ref_loop_s
    return {
        "wall_s": scaled_job_s + outside_s * scale(statistics.median(j[1] / j[3] for j in jobs)),
        "setup_s": (record["setup_s"] - setup_spent_s) * scale(setup_loop_s),
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_cycles_per_s": sum(j[2] for j in jobs) / scaled_job_s,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Launcher:
    """Runs passes in fresh processes inside the output directory."""

    def __init__(self, out: Path) -> None:
        self.tmp = out / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def __call__(self, spec: dict, timeout: float) -> dict:
        scratch = Path(tempfile.mkdtemp(dir=self.tmp))
        spec = dict(spec, records=str(scratch / "jobs.jsonl"), tmp=str(scratch / "cache"))
        env = dict(os.environ, TMPDIR=str(scratch),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        t_launch = time.monotonic_ns()
        with subprocess.Popen(
                [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                stdout, stderr = "", f"pass killed after {timeout:.0f}s"
            finally:
                # the pass and its pool workers: none may outlive the launch
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        shutil.rmtree(scratch, ignore_errors=True)
        elapsed = (time.monotonic_ns() - t_launch) / 1e9
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            return {"crashed": f"{spec['workload']} {spec['mode']} pass exited "
                               f"{proc.returncode}: {tail}", "elapsed_s": elapsed}
        record = json.loads(lines[-1])
        record["setup_s"] = (record["t_submit_ns"] - t_launch) / 1e9
        record["elapsed_s"] = elapsed
        return record


class WorkloadRun:
    """The passes of one workload and the metrics they yield."""

    def __init__(self, name: str, reps: int | None, seconds: float | None) -> None:
        self.name = name
        self.reps = reps
        self.seconds = seconds
        self.passes: list[dict] = []
        self.traced: dict | None = None
        self.crashes: list[str] = []

    def wants_pass(self) -> bool:
        """Whether another untraced pass should run."""
        if self.crashes:
            return False
        if not self.passes:
            return True
        if self.seconds is None:
            return len(self.passes) < self.reps
        spent = sum(r["elapsed_s"] for r in self.passes)
        return spent + statistics.median(r["elapsed_s"] for r in self.passes) <= self.seconds

    def timeout(self, mode: str) -> float:
        """Seconds after which a launch of this workload counts as hung.

        Only this workload's own passes set it, so no workload's launches
        are cut short by the time other workloads of the run have taken.
        """
        if not self.passes:
            return FIRST_PASS_TIMEOUT_S
        median = statistics.median(r["elapsed_s"] for r in self.passes)
        return PASS_TIMEOUT_FACTOR[mode] * median + TIMEOUT_SLACK_S

    def add(self, record: dict, kind: str) -> None:
        if "crashed" in record:
            self.crashes.append(record["crashed"])
        elif kind == "traced":
            self.traced = record
        else:
            self.passes.append(record)

    # ------------------------------------------------------------ checks
    def checked(self) -> list[dict]:
        """Every pass whose outputs were checked, traced or not."""
        return self.passes + ([self.traced] if self.traced else [])

    def split_digest(self) -> bool:
        return len({r["digest"] for r in self.checked()}) > 1

    def split_jobs(self) -> bool:
        """Whether the untraced passes ran different sets of jobs."""
        return len({tuple(sorted(j[0] for j in r["jobs"])) for r in self.passes}) > 1

    def failures(self) -> list[str]:
        out = list(self.crashes)
        for r in self.checked():
            out += r["failures"]
        if self.split_digest():
            out.append(f"{self.name}: passes disagree on the output digest")
        if self.split_jobs():
            out.append(f"{self.name}: passes ran different job lists")
        if not self.passes:
            out.append(f"{self.name}: no untraced pass completed")
        return out

    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.checked()) + len(self.crashes)

    def failed(self) -> int:
        return (sum(r["failed"] for r in self.checked()) + len(self.crashes)
                + self.split_digest() + self.split_jobs())

    # ----------------------------------------------------------- metrics
    def samples(self) -> dict[str, list[float]]:
        """Per-pass samples of the end-to-end metrics, at the reference
        speed (see :func:`pass_metrics`)."""
        per_pass = [pass_metrics(r) for r in self.passes]
        return {name: [m[name] for m in per_pass] for name in per_pass[0]}

    def raw_samples(self) -> dict[str, list[float]]:
        """The same samples as the host's clock read them."""
        per_pass = [pass_metrics(r, ref_loop_s=None) for r in self.passes]
        return {name: [m[name] for m in per_pass] for name in per_pass[0]}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass (plus work counts of the
        untraced passes' parent-side result cache)."""
        import layers

        t = self.traced["layers"]
        wall = t["wall_s"]
        calls, self_s, counts = t["calls"], t["self_s"], t["counts"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for layer in layers.LAYER_NAMES + (layers.ROOT,):
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            m[f"{layer}.share"] = ratio(self_s.get(layer, 0.0), wall)
        for layer in ("cpu.store_buffer", "core.scope_tracker", "mem.hierarchy",
                      "mem.sisd", "verify.explorer", "core.semantics"):
            m[f"{layer}.calls"] = calls.get(layer, 0)
        ticks = counts.get("cpu.core.ticks", 0)
        m.update({
            "sim.simulator.runs": counts.get("sim.simulator.runs", 0),
            "sim.simulator.init_s": counts.get("sim.simulator.init_ns", 0) / 1e9,
            "cpu.core.ticks": ticks,
            "cpu.core.progress_ratio": ratio(counts.get("cpu.core.progress_ticks", 0), ticks),
            "cpu.core.idle_cycles": counts.get("cpu.core.idle_cycles", 0),
            "cpu.core.ns_per_tick": ratio(self_s.get("cpu.core", 0.0) * 1e9, ticks),
            "runtime.lang.resumes": calls.get(layers.GUEST_LAYER, 0),
            "core.scope_tracker.fence_ready_ratio": ratio(
                counts.get("core.scope_tracker.fence_ready", 0),
                counts.get("core.scope_tracker.fence_checks", 0)),
            "mem.hierarchy.ops_per_batch": ratio(counts.get("mem.hierarchy.batch_ops", 0),
                                                 counts.get("mem.hierarchy.batches", 0)),
            "chaos.invariants.events": counts.get("chaos.invariants.events", 0),
            "chaos.runner.cases": counts.get("chaos.runner.cases", 0),
            "synth.cost.probes": counts.get("synth.cost.probes", 0),
            "synth.cost.probe_s": counts.get("synth.cost.probes_ns", 0) / 1e9,
            "sim.stats.cycles": counts.get("sim.stats.cycles", 0),
            "sim.stats.instructions": counts.get("sim.stats.instructions", 0),
            "sim.stats.fence_stall_cycles": counts.get("sim.stats.fence_stall_cycles", 0),
            "sim.stats.l1_hit_ratio": ratio(
                counts.get("sim.stats.l1_hits", 0),
                counts.get("sim.stats.l1_hits", 0) + counts.get("sim.stats.l1_misses", 0)),
            "sim.stats.sfence_speedup": self.traced["sim"].get("sfence_speedup", 0.0),
            "sim.stats.fence_stall_share": self.traced["sim"].get("fence_stall_share", 0.0),
            "trace.wall_s": wall,
        })
        # cache traffic and pool efficiency come from the untraced passes
        med = statistics.median
        untraced = [r["layers"]["counts"] for r in self.passes]
        for key, name in (("campaign.cache.puts", "puts"), ("campaign.cache.gets", "gets")):
            m[f"campaign.cache.{name}"] = med(c.get(key, 0) for c in untraced)
            m[f"campaign.cache.{name[:-1]}_s"] = med(c.get(key + "_ns", 0) for c in untraced) / 1e9
        m["campaign.engine.efficiency"] = med(
            sum(j[1] for j in r["jobs"]) / (r["sim"]["workers"] * r["sim"]["campaign_wall_s"])
            for r in self.passes)
        job_s = med(sum(j[1] for j in r["jobs"]) for r in self.passes)
        m["trace.overhead_ratio"] = ratio(sum(j[1] for j in self.traced["jobs"]), job_s)
        return m


# ------------------------------------------------------------------ output
def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(run: WorkloadRun, units: dict[str, str], seed: int) -> dict:
    """Human-readable lines for one workload; returns, per metric, the
    median, quartiles and count of its samples (and, for the end-to-end
    metrics, the median the host's clock read)."""
    print(f"== {run.name} (seed {seed}): {len(run.passes)} untraced pass(es)"
          + (", 1 traced pass" if run.traced else ""))
    summary: dict[str, dict] = {}
    if run.passes:
        raw = run.raw_samples()
        for name, samples in run.samples().items():
            q1, med, q3 = quartiles(samples)
            host = statistics.median(raw[name])
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(samples),
                             "host_clock_median": host}
            print(f"  {name:<18} {units.get(name, ''):<9} median {fmt(med):>10}  "
                  f"q1 {fmt(q1):>10}  q3 {fmt(q3):>10}  n {len(samples)}  "
                  f"(host clock: median {fmt(host)})")
        sim = run.passes[0]["sim"]
        if "sfence_speedup" in sim:
            line = f"  simulated sfence_speedup {sim['sfence_speedup']:.4f}x"
            if "paper_sfence_speedup" in sim:
                paper = sim["paper_sfence_speedup"]
                line += (f" (paper Fig. 13 {paper:.4f}x, relative error "
                         f"{(sim['sfence_speedup'] - paper) / paper:+.1%}; "
                         f"the model is unvalidated against hardware, never gated)")
            print(line)
            for app, (ours, paper) in sim.get("fig13_s_normalized", {}).items():
                print(f"    Fig. 13 {app} S/T time {ours:.3f} vs paper {paper:.3f} "
                      f"({(ours - paper) / paper:+.1%})")
            if "fence_stall_share" in sim:
                print(f"  simulated fence_stall_share {sim['fence_stall_share']:.4f}")
    if run.traced and run.passes:
        layer_values = run.layer_metrics()
        print(f"  traced pass {fmt(layer_values['trace.wall_s'])} s, overhead x"
              f"{fmt(layer_values['trace.overhead_ratio'])} (n 1 each):")
        for name, value in layer_values.items():
            summary[name] = {"median": value, "n": 1}
            print(f"    {name:<38} {units.get(name, ''):<8} {fmt(value)}")
    for failure in run.failures():
        print(f"  FAIL {failure}")
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", "--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time budget of each workload's untraced passes")
    ap.add_argument("--reps", type=int, default=5,
                    help="untraced passes per workload when --seconds is not given")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="shrunken workloads (CI)")
    ap.add_argument("--out", type=Path, default=HERE / ".out")
    ns = ap.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"run from the repository root: {SRC / 'repro'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    names = [w for w in ns.workload.split(",") if w]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or not names:
        print(f"unknown workload(s) {unknown} (have {list(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if ns.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # a terminated run still reaches the launcher's cleanup, which kills
    # the running pass's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    launch = Launcher(ns.out)
    runs = [WorkloadRun(w, ns.reps, ns.seconds) for w in names]
    base = {"seed": ns.seed, "smoke": ns.smoke}

    def launch_pass(run: WorkloadRun, mode: str) -> None:
        run.add(launch(dict(base, workload=run.name, mode=mode), run.timeout(mode)), mode)

    try:
        # rep by rep across workloads, so drifting host noise hits all alike
        while any(run.wants_pass() for run in runs):
            for run in runs:
                if run.wants_pass():
                    launch_pass(run, "untraced")
        if ns.trace:
            for run in runs:
                if run.passes and not run.crashes:
                    launch_pass(run, "traced")
    finally:
        shutil.rmtree(launch.tmp, ignore_errors=True)

    metrics: dict[str, dict] = {}
    results = {}
    for run in runs:
        summary = print_report(run, units, ns.seed)
        results[run.name] = {"summary": summary, "failures": run.failures(),
                             "passes": run.passes, "traced": run.traced}
        prefix = "" if len(runs) == 1 else f"{run.name}/"
        for m in declared:
            if m["name"] in summary:
                metrics[prefix + m["name"]] = {"value": summary[m["name"]]["median"],
                                               "unit": m["unit"]}
    ns.out.mkdir(parents=True, exist_ok=True)
    (ns.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")

    correct = not any(run.failures() for run in runs) and all(
        math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(run.attempted() for run in runs)),
        "failed": sum(run.failed() for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
