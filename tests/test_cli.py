"""Tests for the ``python -m repro`` command-line driver."""

import json

import pytest

import repro.litmus.corpus as corpus_mod
from repro.__main__ import main
from repro.litmus.corpus import CorpusEntry


def test_hwcost_command(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "hardware cost" in out
    assert "77.5 bytes" in out


def test_litmus_command(tmp_path, capsys):
    f = tmp_path / "sb.litmus"
    f.write_text(
        """
        name SBdemo
        x = 1  | y = 1
        fence  | fence
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """
    )
    assert main(["litmus", str(f)]) == 0
    out = capsys.readouterr().out
    assert "SBdemo" in out
    assert "never observed" in out


def test_litmus_observes_relaxed_outcome(tmp_path, capsys):
    f = tmp_path / "sb_nofence.litmus"
    f.write_text(
        """
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """
    )
    assert main(["litmus", str(f)]) == 0
    assert "OBSERVED" in capsys.readouterr().out


def test_litmus_requires_file():
    with pytest.raises(SystemExit):
        main(["litmus"])


def test_litmus_missing_file_clean_error(capsys):
    """A missing file exits non-zero with a message, not a traceback."""
    assert main(["litmus", "/no/such/file.litmus"]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err


def test_litmus_unparseable_file_clean_error(tmp_path, capsys):
    f = tmp_path / "bad.litmus"
    f.write_text("x = 1 | garbage {{{\n")
    assert main(["litmus", str(f)]) == 2
    err = capsys.readouterr().err
    assert "garbage" in err
    assert "Traceback" not in err


def test_litmus_observed_condition_names_matching_outcome(tmp_path, capsys):
    """An observed exists clause lists the exact matching tuples."""
    f = tmp_path / "sb_nofence.litmus"
    f.write_text(
        """
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """
    )
    assert main(["litmus", str(f)]) == 0
    out = capsys.readouterr().out
    assert "matching outcome: (0, 0)" in out


def _rigged_corpus(expect_observable: bool):
    """A one-entry corpus whose expectation can be forced wrong."""
    return [CorpusEntry(
        "SB-rigged",
        """
        name SB-rigged
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        observable_rmo=expect_observable,
    )]


def test_campaign_litmus_mismatch_names_offending_outcome(monkeypatch, capsys):
    """A forbidden-but-observed litmus failure exits non-zero and names
    the offending outcome tuple, not just the test."""
    monkeypatch.setattr(corpus_mod, "CORPUS", _rigged_corpus(False))
    assert main(["campaign", "--litmus", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert "forbidden outcome observed" in captured.err
    assert "('r0', 'r1') = (0, 0)" in captured.err


def test_campaign_litmus_vacuous_expectation_reports_observed_set(
        monkeypatch, capsys):
    """The inverse mismatch (expected outcome never seen) lists what
    *was* observed so the vacuity is debuggable."""
    monkeypatch.setattr(corpus_mod, "CORPUS", [CorpusEntry(
        "CoWR-rigged",
        """
        name CoWR-rigged
        x = 1  | r0 = x
        x = 2  | r1 = x
        exists r0 == 2 and r1 == 1
        """,
        observable_rmo=True,  # coherence forbids it: expectation is wrong
    )])
    assert main(["campaign", "--litmus", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "expected-observable outcome never seen" in err
    assert "observed only" in err


def test_campaign_litmus_happy_path_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(corpus_mod, "CORPUS", _rigged_corpus(True))
    assert main(["campaign", "--litmus", "--no-cache"]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_command_smoke(tmp_path, capsys):
    out_path = tmp_path / "verify-report.json"
    assert main(["verify", "--smoke", "--no-cache",
                 "--verify-modes", "none,sfence-set",
                 "--verify-out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "exhaustive allowed sets vs simulator coverage" in captured.out
    assert "zero soundness violations" in captured.err
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    assert report["soundness_violations"] == []
    sb = report["tests"]["SB"]["modes"]
    assert [0, 0] in sb["none"]["allowed"]
    assert [0, 0] not in sb["sfence-set"]["allowed"]
    covered, total = sb["none"]["engines"]["event"]["coverage"]
    assert 0 < covered <= total


def test_verify_has_no_engine_flag(capsys):
    """verify runs the event engine only; --engines is gone, not ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--engines", "event"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engines" in capsys.readouterr().err


def test_verify_rejects_unknown_mode(capsys):
    assert main(["verify", "--verify-modes", "nope", "--no-cache"]) == 2
    assert "unknown fence mode" in capsys.readouterr().err


def test_chaos_command_smoke(capsys):
    assert main(["chaos", "--seeds", "1", "--algos", "lamport",
                 "--scenarios", "latency,scope"]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out
    assert "all 2 cases passed" in out
    assert "1/1" in out


def test_chaos_unknown_algo_rejected(capsys):
    assert main(["chaos", "--seeds", "1", "--algos", "nope"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_single_sweep_command_rejects_backend_list(capsys):
    """Only verify and perf sweep a --mem-backend list; a figure command
    exits 2 naming that rule instead of silently picking one backend."""
    assert main(["fig13", "--mem-backend", "mesi,sisd"]) == 2
    assert ("only verify and perf sweep a comma-separated list"
            in capsys.readouterr().err)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["figNaN"])


def test_parallel_accepts_auto_and_counts(monkeypatch, capsys):
    monkeypatch.setattr(corpus_mod, "CORPUS", _rigged_corpus(True))
    assert main(["campaign", "--litmus", "--no-cache",
                 "--parallel", "auto"]) == 0
    capsys.readouterr()
    assert main(["campaign", "--litmus", "--no-cache", "--parallel", "2"]) == 0
    assert "ok" in capsys.readouterr().out


def test_parallel_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["chaos", "--parallel", "lots"])


def test_implicit_auto_parallel_never_creates_cache_dir(monkeypatch, tmp_path,
                                                        capsys):
    """The auto default must not start writing .campaign-cache unasked;
    an explicit --parallel keeps opting into the shared resume cache."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(corpus_mod, "CORPUS", _rigged_corpus(True))
    assert main(["campaign", "--litmus"]) == 0
    assert not (tmp_path / ".campaign-cache").exists()
    assert main(["campaign", "--litmus", "--parallel", "1"]) == 0
    assert (tmp_path / ".campaign-cache").exists()


def test_fig14_command_small(capsys):
    assert main(["fig14", "--scale", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "class vs set" in out
    for name in ("msn", "harris", "pst", "ptc"):
        assert name in out


@pytest.mark.parametrize("argv", [["figbackend"],
                                  ["campaign", "--figures", "figbackend"]])
def test_figure_failure_prints_fail_and_skips_backend_report(
        argv, monkeypatch, tmp_path, capsys):
    """The figure command and ``campaign --figures`` share one helper: a
    failed cell prints a FAIL line, exits 1 and writes no figbackend
    report."""
    import repro.campaign.figures as figures_mod

    def fake_cell(params):
        if params["app"] == "ptc" and params["label"] == "SiSd":
            raise RuntimeError("cell exploded")
        return {"cycles": 100, "fence_stall_cycles": 10,
                "fence_stall_fraction": 0.1}

    monkeypatch.setattr(figures_mod, "run_figure_cell", fake_cell)
    out = tmp_path / "backend.json"
    assert main([*argv, "--parallel", "0", "--no-cache",
                 "--backend-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAIL figbackend:ptc/SiSd/sisd: error" in err
    assert "cell exploded" in err
    assert not out.exists()


# ---------------------------------------------------------- resilience surface
def test_campaign_unrecovered_failures_exit_nonzero(monkeypatch, capsys):
    """Jobs still crash-classified after the retry budget produce a
    per-classification summary line and a non-zero exit."""
    import repro.campaign as campaign_mod
    from repro.campaign import Job

    monkeypatch.setattr(
        campaign_mod, "litmus_jobs",
        lambda **kw: [Job("selftest", {"mode": "crash", "name": "crasher"})])
    assert main(["campaign", "--litmus", "--no-cache", "--parallel", "1",
                 "--retries", "1", "--retry-backoff", "0.01"]) == 1
    captured = capsys.readouterr()
    assert "unrecovered failures after retries: worker-crash=1" in captured.err
    assert "retry 1/1" in captured.err   # the retry itself was reported
    assert "1 retried" in captured.err
    assert "FAIL" in captured.out        # and the litmus table shows it


def test_campaign_retries_disabled_on_request(monkeypatch, capsys):
    import repro.campaign as campaign_mod
    from repro.campaign import Job

    monkeypatch.setattr(
        campaign_mod, "litmus_jobs",
        lambda **kw: [Job("selftest", {"mode": "crash", "name": "crasher"})])
    assert main(["campaign", "--litmus", "--no-cache", "--parallel", "1",
                 "--retries", "0"]) == 1
    err = capsys.readouterr().err
    assert "retry" not in err.split("unrecovered")[0]  # no retry happened
    assert "worker-crash=1" in err


def _fake_differential_report(ok: bool) -> dict:
    phase = {"executed": 5, "cached": 0, "failures": 0, "retried": 2,
             "recovered": 2, "downgrades": [], "quarantined": 0,
             "manifest_repair": None, "fingerprint": "f" * 64}
    recovery = dict(phase, quarantined=2,
                    manifest_repair={"dropped_lines": 1, "recovered_blobs": 0})
    return {"seed": 3, "jobs": 5, "parallel": 2, "smoke": True,
            "identical": ok, "ok": ok, "sabotage": {},
            "phases": {"baseline": dict(phase, retried=0, recovered=0),
                       "faulted": phase, "recovery": recovery}}


def test_campaign_chaos_infra_reports_phases(monkeypatch, capsys):
    import repro.campaign as campaign_mod

    seen = {}

    def fake(seed, parallel, smoke, progress):
        seen.update(seed=seed, parallel=parallel, smoke=smoke)
        return _fake_differential_report(True)

    monkeypatch.setattr(campaign_mod, "run_resilience_differential", fake)
    assert main(["campaign", "--chaos-infra", "3", "--smoke",
                 "--parallel", "2"]) == 0
    assert seen == {"seed": 3, "parallel": 2, "smoke": True}
    captured = capsys.readouterr()
    assert "campaign resilience differential" in captured.out
    assert "baseline" in captured.out and "recovery" in captured.out
    assert "byte-identical outcome fingerprint" in captured.out
    assert "manifest repair: 1 torn line(s) dropped" in captured.err


def test_campaign_chaos_infra_divergence_fails(monkeypatch, capsys):
    import repro.campaign as campaign_mod

    monkeypatch.setattr(
        campaign_mod, "run_resilience_differential",
        lambda seed, parallel, smoke, progress: _fake_differential_report(False))
    assert main(["campaign", "--chaos-infra", "3"]) == 1
    assert "fingerprints diverged" in capsys.readouterr().err


def test_synth_command_smoke(tmp_path, capsys):
    out_path = tmp_path / "synth-report.json"
    assert main(["synth", "--smoke", "--no-cache",
                 "--synth-tests", "SB,barnes-publish",
                 "--synth-out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "hand-written vs synthesized placements" in captured.out
    assert "proven sound by both oracles" in captured.err
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    assert sorted(report["cases"]) == ["SB", "barnes-publish"]
    barnes = report["cases"]["barnes-publish"]
    # the headline: scoped fences beat the hand-written bracketing
    assert barnes["stall_savings"] > 0
    assert barnes["synthesized"]["mode_mix"] == {"sfence-set": 2}


def test_synth_rejects_unknown_test(capsys):
    assert main(["synth", "--synth-tests", "nope", "--no-cache"]) == 2
    assert "unknown synth test" in capsys.readouterr().err


def test_synth_rejects_unknown_mode(capsys):
    assert main(["synth", "--synth-modes", "mega", "--no-cache"]) == 2
    assert "unknown fence mode" in capsys.readouterr().err


# ------------------------------------------------------------- synth --apps
def _fake_app_payload(ok=True, hand_failures=(), mutation_survivor=False):
    """A minimal but shape-complete run_app_synth_case payload."""
    battery = {
        "put.publish:delete": {
            "kind": "delete", "slot": "put.publish",
            "killed": not mutation_survivor, "runs": 2,
            "kills": 0 if mutation_survivor else 2,
            "evidence": [] if mutation_survivor else [
                {"scenario": "drain", "seed": 0, "status": "violations",
                 "detail": "[delay-pair-ww] reordered publish"}],
        },
    }
    failures = list(hand_failures)
    return {
        "ok": ok, "app": "chase-lev", "oracle": "chaos",
        "schedule": "sequential", "note": "",
        "recording": {"accesses": 8, "fences": 2, "steps": 20},
        "analysis": {"critical_cycles": 1, "delay_pairs": 1,
                     "components": 1, "patterns": [], "hand_enforced": []},
        "monitor": {"candidates": 0, "monitored": 0, "calibrated_out": []},
        "slots": {}, "synthesized": {"put.publish": "sfence-set"},
        "scope": "set", "kernels": None,
        "fences": {"hand": 2, "synthesized": 1},
        "soundness": {
            "method": "chaos", "sound": not failures,
            "hand": {"runs": 2, "failures": failures, "ok": not failures},
            "synthesized": {"runs": 2, "failures": [], "ok": True},
            "confidence": 0.0 if failures else 1.0,
        },
        "mutation": {"battery": battery, "mutants": 1,
                     "killed": 0 if mutation_survivor else 1,
                     "kill_rate": 0.0 if mutation_survivor else 1.0,
                     "p_floor": 0.0 if mutation_survivor else 1.0},
        "cost": None,
    }


def test_synth_apps_command_smoke(tmp_path, capsys):
    out_path = tmp_path / "app-synth-report.json"
    assert main(["synth", "--apps", "--smoke", "--no-cache", "--parallel", "0",
                 "--synth-tests", "chase-lev",
                 "--app-synth-out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "whole-program fence synthesis" in captured.out
    assert "(smoke)" in captured.out
    assert "proven sound by their designated oracles" in captured.err
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    assert report["smoke"] is True
    assert sorted(report["cases"]) == ["chase-lev"]
    case = report["cases"]["chase-lev"]
    assert case["soundness"]["sound"] is True
    assert all(m["killed"] for m in case["mutation"]["battery"].values())


def test_synth_apps_rejects_unknown_app(capsys):
    assert main(["synth", "--apps", "--synth-tests", "nope",
                 "--no-cache"]) == 2
    assert "unknown app synth target" in capsys.readouterr().err


def test_synth_apps_hand_rejection_names_the_counterexample(
        monkeypatch, tmp_path, capsys):
    """A rejected hand placement exits non-zero and prints the exact
    (scenario, seed) chaos counterexample that condemned it."""
    import repro.synth.programs as programs_mod

    payload = _fake_app_payload(ok=False, hand_failures=[
        {"scenario": "drain", "seed": 1, "status": "violations",
         "detail": "[delay-pair-ww] store became visible early"}])
    monkeypatch.setattr(programs_mod, "run_app_synth_case",
                        lambda name, **kw: payload)
    out_path = tmp_path / "app-synth-report.json"
    assert main(["synth", "--apps", "--no-cache", "--parallel", "0",
                 "--synth-tests", "chase-lev",
                 "--app-synth-out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "HAND-WRITTEN REJECTED chase-lev" in err
    assert "scenario=drain seed=1 status=violations" in err
    assert "FAIL -- see report" in err
    assert json.loads(out_path.read_text())["ok"] is False


def test_synth_apps_mutation_survivor_fails_the_run(
        monkeypatch, tmp_path, capsys):
    """A battery survivor is an anti-vacuity failure: the oracle cannot
    see the fences it polices, so the run must not pass."""
    import repro.synth.programs as programs_mod

    payload = _fake_app_payload(ok=False, mutation_survivor=True)
    monkeypatch.setattr(programs_mod, "run_app_synth_case",
                        lambda name, **kw: payload)
    assert main(["synth", "--apps", "--no-cache", "--parallel", "0",
                 "--synth-tests", "chase-lev",
                 "--app-synth-out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "MUTATION SURVIVORS chase-lev" in err
    assert "put.publish:delete" in err


def test_synth_apps_oracle_disagreement_aborts(monkeypatch, tmp_path, capsys):
    """An oracle disagreement (static floor accepts, chaos rejects) is
    an engine failure, never a silently-dropped case."""
    import repro.synth.programs as programs_mod
    from repro.synth.search import SynthesisError

    def boom(name, **kw):
        raise SynthesisError(
            f"{name}: oracle disagreement: the static delay-set floor "
            f"accepts the synthesized placement but chaos run "
            f"scenario=drain seed=0 reports violations")

    monkeypatch.setattr(programs_mod, "run_app_synth_case", boom)
    assert main(["synth", "--apps", "--no-cache", "--parallel", "0",
                 "--retries", "0", "--synth-tests", "chase-lev",
                 "--app-synth-out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "ENGINE FAILURE app-synth:chase-lev" in err
    assert "oracle disagreement" in err
