"""The figure claims judge, fed made-up cell results: no simulation.

:func:`repro.campaign.figures.figure_claims` turns each figure's cell
results into one verdict per claim row, so each test can put a value
exactly on, or one ulp past, a bound.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.__main__ import main
from repro.campaign import figures as fig

_FIG13 = {"T": (1000, 400, 0.4), "S": (880, 88, 0.1),  # cycles, stalls, share
          "T+": (1000, 300, 0.3), "S+": (880, 44, 0.05)}
_SWEEP = {200: 1.1, 300: 1.15, 500: 1.19, 64: 1.1, 128: 1.12, 256: 1.14}


def satisfying(params: dict) -> dict:
    """A cell result that satisfies every claim reading it."""
    figure = params["figure"]
    if figure == "fig12":
        speedup = (1.0, 1.2, 1.3, 1.2, 1.1, 1.05)[params["level"] - 1]
        return {"cycles": 1000 if params["scoped"] else round(1000 * speedup)}
    if figure == "fig13":
        return dict(zip(fig._FULL_POINT, _FIG13[params["label"]]))
    if figure == "figbackend":
        return dict(zip(fig._FULL_POINT, _FIG13["S"]))
    if figure == "fig14":
        return {"cycles": 1000 if params["scope"] == "class" else 990}
    speedup = _SWEEP[params["value"]] if params["scope"] == "global" else 1.0
    if figure == "fig15":
        return {"cycles": round(1000 * speedup)}
    return {"cycles": round(1000 * speedup), "avg_rob_occupancy": 20.0}


def judge(figure, scale=1.0, edit=None, **job_kwargs):
    """Claim rows on satisfying cells passed through ``edit(params,
    result)``; an edit returning ``None`` drops that cell."""
    jobs = fig.figure_jobs(figure, scale, **job_kwargs)
    results = [satisfying(j.params) for j in jobs]
    if edit:
        results = [edit(j.params, r) for j, r in zip(jobs, results)]
    return fig.figure_claims(figure, jobs, results)


def verdicts(rows, subject, expr):
    return [r["verdict"] for r in rows if (r["subject"], r["expr"]) == (subject, expr)]


def setting(figure, match, field, value):
    """An edit putting ``value`` in ``field`` of the cells ``match`` picks."""
    def edit(params, result):
        if params["figure"] == figure and match(params):
            result[field] = value
        return result
    return edit


@pytest.mark.parametrize("figure", fig.FIGURES)
def test_satisfied_claims_pass(figure):
    rows = judge(figure)
    assert len(rows) == len(fig.CLAIMS.get(figure, ()))
    assert {r["verdict"] for r in rows} <= {"pass"}
    assert fig.broken_claims(rows) == []


@pytest.mark.parametrize("share, verdict", [
    (0.50, "pass"), (math.nextafter(0.50, 1.0), "FAIL"),
    (0.30, "pass"), (math.nextafter(0.30, 0.0), "FAIL"),
])
def test_inclusive_bound_breaks_one_ulp_outside(share, verdict):
    barnes_t = setting("fig13", lambda p: (p["app"], p["label"]) == ("barnes", "T"),
                       "fence_stall_fraction", share)
    rows = judge("fig13", edit=barnes_t)
    assert verdicts(rows, "barnes", "T.fence_stall_fraction") == [verdict]
    assert len(fig.broken_claims(rows)) == (verdict == "FAIL")


@pytest.mark.parametrize("occupancy, verdict", [
    (80.0, "FAIL"), (math.nextafter(80.0, 0.0), "pass"),
])
def test_strict_bound_breaks_on_the_bound(occupancy, verdict):
    pst_s256 = setting("fig16", lambda p: (p["app"], p["value"], p["scope"]) == ("pst", 256, None),
                       "avg_rob_occupancy", occupancy)
    assert verdicts(judge("fig16", edit=pst_s256), "pst", "occupancy[-1]") == [verdict]


def test_missing_cell_breaks_every_row_that_reads_it():
    rows = judge("fig13", edit=lambda p, r: None if (p["app"], p["label"]) == ("barnes", "S") else r)
    broken = fig.broken_claims(rows)
    assert {(r["subject"], r["expr"]) for r in broken} == {
        ("barnes", "S.cycles"), ("barnes", "S.fence_stall_cycles"),
        ("barnes", "S.fence_stall_fraction")}
    assert {(r["verdict"], r["value"]) for r in broken} == {("missing", None)}
    assert verdicts(rows, "barnes", "Tp.cycles") == ["pass"]  # reads no S

    rows = judge("fig15", edit=lambda p, r: None if (p["app"], p["value"]) == ("pst", 300) else r)
    assert verdicts(rows, "pst", "curve[2] - curve[0]") == ["missing"]
    assert verdicts(rows, "barnes", "curve[2]") == ["pass"]


BREAK_FIG16 = setting("fig16", lambda p: True, "avg_rob_occupancy", 99.0)


@pytest.mark.parametrize("scale, backend", [(0.5, "mesi"), (1.0, "sisd")])
def test_claims_are_judged_only_on_their_machine(scale, backend):
    rows = judge("fig16", scale, edit=BREAK_FIG16, mem_backend=backend)
    assert {r["verdict"] for r in rows} == {"n/a"}
    assert [r["value"] for r in rows if r["expr"] == "occupancy[-1]"] == [99.0] * 3


# ------------------------------------------------------------------------ CLI
def _same(params, result):
    return result


def _explode(params, result):
    if params["figure"] == "fig14":
        raise RuntimeError("cell exploded")
    return result


@pytest.fixture
def cli(monkeypatch, tmp_path):
    """Run the CLI on made-up cells in an empty directory; returns
    ``run(*argv, edit=...) -> exit status``."""
    monkeypatch.chdir(tmp_path)

    def run(*argv, edit=_same):
        monkeypatch.setattr(fig, "run_figure_cell",
                            lambda params: edit(params, satisfying(params)))
        return main([*argv, "--parallel", "0", "--no-cache"])
    return run


def test_broken_claim_fails_only_at_the_claims_scale(cli, capsys):
    assert cli("fig16", edit=BREAK_FIG16) == 1
    out, err = capsys.readouterr()
    assert "fig16 claims" in out and "FAIL" in out
    assert "CLAIM FAIL fig16 pst: occupancy[-1] = 99.0, bound x < 80" in err
    assert cli("fig16", "--scale", "0.5", edit=BREAK_FIG16) == 0
    out, err = capsys.readouterr()
    assert "n/a" in out and "CLAIM" not in err


def test_full_run_writes_the_figures_report(cli, tmp_path):
    assert cli("campaign", "--figures", "all") == 0
    report = json.loads((tmp_path / fig.FIGURES_REPORT_PATH).read_text())
    assert report["claims_ok"] is True
    assert list(report["figures"]) == list(fig.FIGURES)
    claims = [r for f in report["figures"].values() for r in f["claims"]]
    assert len(claims) == sum(len(c) for c in fig.CLAIMS.values())
    assert report["figures"]["fig16"]["cells"][0] == {
        "cell": "fig16:pst/rob_size=64/global/mesi",
        "result": {"avg_rob_occupancy": 20.0, "cycles": 1100}}


@pytest.mark.parametrize("argv, edit, status", [
    (("campaign", "--figures", "fig13,fig15"), _same, 0),
    (("campaign", "--figures", "all", "--scale", "0.5"), _same, 0),
    (("campaign", "--figures", "all"), _explode, 1),
])
def test_no_figures_report_from_a_partial_run(cli, tmp_path, argv, edit, status):
    assert cli(*argv, edit=edit) == status
    assert not (tmp_path / fig.FIGURES_REPORT_PATH).exists()
