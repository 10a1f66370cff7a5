"""Smoke test of the end-to-end benchmark (about 30 s).

Run from the repository root::

    python3 -m pytest -q benchmarks/e2e/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import passes  # noqa: E402
import run as bench_run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(script: Path, *args: str, out: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args, "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, time-bounded and traced, as the benchmark is
    run for its per-layer metrics."""
    out = tmp_path_factory.mktemp("smoke")
    proc = _run(HERE / "run.py", "--smoke", "--seconds", "1", "--trace", "1", out=out)
    return proc, json.loads((out / "results.json").read_text())


def test_smoke_prints_every_declared_metric_with_its_unit(smoke):
    proc, _ = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    sections = proc.stdout.split("\n== ")
    assert len(sections) == 4
    for section in sections:
        printed = {}
        for line in section.splitlines()[1:]:
            tokens = line.split()
            if len(tokens) >= 3:
                printed.setdefault(tokens[0], tokens[1])
        for metric in declared:
            assert NAME.fullmatch(metric["name"])
            assert printed.get(metric["name"]) == metric["unit"], (
                section.splitlines()[0], metric["name"])
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    _, results = smoke
    for name, run in results.items():
        traced = run["traced"]
        self_s = traced["layers"]["self_s"]
        assert min(self_s.values()) >= 0, name
        assert sum(self_s.values()) == pytest.approx(traced["wall_s"], rel=0.01), name
    for name in ("figures", "fig15-hot"):
        layer_times = results[name]["traced"]["layers"]
        assert layer_times["self_s"][layers.ROOT] < 0.1 * layer_times["wall_s"], name


def test_launch_timeouts_depend_only_on_the_workloads_own_passes():
    quick = bench_run.WorkloadRun("verify-matrix", None, 30)
    slow = bench_run.WorkloadRun("figures", None, 30)
    assert quick.timeout("untraced") == bench_run.FIRST_PASS_TIMEOUT_S
    for elapsed in (2.5, 2.4, 2.6):
        quick.add({"elapsed_s": elapsed}, "untraced")
    before = quick.timeout("traced")
    for elapsed in (8.0, 9.0):
        slow.add({"elapsed_s": elapsed}, "untraced")
    assert quick.timeout("traced") == before
    # a traced pass measured up to 5.6x its workload's median pass
    assert quick.timeout("traced") > 5.6 * 2.5
    assert slow.timeout("traced") > 5.6 * 8.5
    # a 30 s run of a workload twice as slow as on the reference host
    # ends within 180 s even if its last untraced and its traced pass hang
    assert 30 + slow.timeout("untraced") + slow.timeout("traced") < 180


def test_times_are_rescaled_by_the_calibration_loop_next_to_them():
    ref = bench_run.REF_LOOP_S
    # job a ran while the loop took twice its reference time, job b at
    # the reference speed; timing the loop took 0.1 s of the 2 s pass
    # and 0.02 s of the 0.5 s set-up, which ran at half speed
    record = {"jobs": [["a", 1.0, 10, 1.0 / (2 * ref), 0.06],
                       ["b", 0.5, 30, 0.5 / ref, 0.04]],
              "wall_s": 2.0, "setup_s": 0.5, "setup_loop": [2 * ref, 0.02],
              "peak_rss_mb": 50.0}
    metrics = bench_run.pass_metrics(record)
    outside = (2.0 - 1.5 - 0.1) * ref / (1.5 * ref)
    assert metrics["wall_s"] == pytest.approx(0.5 + 0.5 + outside)
    assert metrics["setup_s"] == pytest.approx(0.24)
    assert metrics["sim_cycles_per_s"] == pytest.approx(40 / 1.0)
    host = bench_run.pass_metrics(record, ref_loop_s=None)
    assert host["wall_s"] == pytest.approx(1.9)
    assert host["setup_s"] == pytest.approx(0.48)
    assert host["sim_cycles_per_s"] == pytest.approx(40 / 1.5)


def test_a_jobs_stretch_counts_in_the_mean_loop_time_at_its_ends(monkeypatch, tmp_path):
    clock = passes.JobClock(str(tmp_path / "jobs.jsonl"), calibrate=True)
    clock.loop_s = 0.01
    clock.job = [time.perf_counter() - 0.3, 0.0, 0.0]
    monkeypatch.setattr(passes, "calibration_loop", lambda: 0.03)
    spent = clock._time_loop()
    assert clock.job[1] == pytest.approx(0.3 / 0.02, rel=0.05)
    assert clock.job[2] == spent
    assert clock.loop_s == 0.03


def test_passes_with_different_jobs_fail_the_run():
    run = bench_run.WorkloadRun("figures", 2, None)
    for jobs in ([["a", 1.0, 10, 60.0, 0.0], ["b", 1.0, 10, 60.0, 0.0]],
                 [["b", 1.0, 10, 60.0, 0.0], ["a", 1.0, 10, 60.0, 0.0]]):
        run.add({"jobs": jobs, "digest": "d", "failures": []}, "untraced")
    assert not run.split_jobs()
    run.add({"jobs": [["a", 1.0, 10, 60.0, 0.0]], "digest": "d", "failures": []},
            "untraced")
    assert run.split_jobs()
    assert "figures: passes ran different job lists" in run.failures()


def test_same_layer_reentry_counts_once():
    trace = layers.LayerTrace()

    class Toy:
        def outer(self):
            self.inner()
            Other().work()

        def inner(self):
            time.sleep(0.02)

    class Other:
        def work(self):
            time.sleep(0.02)

    Toy.outer = trace.wrap(Toy.outer, "toy")
    Toy.inner = trace.wrap(Toy.inner, "toy")
    Other.work = trace.wrap(Other.work, "other-layer")
    trace.start()
    Toy().outer()
    trace.stop()
    assert trace.calls == {"toy": 1, "other-layer": 1}
    self_s = trace.report()["self_s"]
    assert self_s["toy"] == pytest.approx(0.02, abs=0.015)
    assert self_s["other-layer"] == pytest.approx(0.02, abs=0.015)
    assert sum(self_s.values()) == pytest.approx(trace.wall_ns / 1e9, rel=1e-9)


def test_corrupted_pin_exits_nonzero_and_names_the_job(tmp_path):
    bench = tmp_path / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    pins = json.loads((bench / "expected.json").read_text())
    job = sorted(pins["fig15-hot-smoke"])[0]
    pins["fig15-hot-smoke"][job]["cycles"] += 1
    (bench / "expected.json").write_text(json.dumps(pins))
    proc = _run(bench / "run.py", "--smoke", "--workload", "fig15-hot", "--reps", "1",
                out=tmp_path / "out")
    assert proc.returncode != 0
    assert f"FAIL {job}: result" in proc.stdout
    result = _result(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path / "benchmarks" / "e2e" / "run.py", "--workload", "figures",
                out=tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
