"""Figure 12-16 as declarative campaign cells.

Each paper figure is a table whose cells are independent simulations --
exactly the shape the campaign engine wants.  :func:`figure_jobs`
enumerates a figure into picklable cell jobs, :func:`run_figure_cell`
executes one cell (in whatever process the engine chose), and
:func:`assemble_figure` folds the cell results back into the same
ASCII table the serial CLI has always printed.  The enumeration order
is the serial loop order, so ``--parallel`` changes wall-clock time and
nothing else.  App cells of different figures that are the same
simulation (:func:`cell_key`) share one run per process.

The paper's claims about each figure are data too (:data:`CLAIMS`):
:func:`figure_claims` judges them against the same cell results, and
:func:`figures_report` folds every cell and verdict into the committed
``figures-report.json``.

Cell parameters are plain data (names, levels, scale factors); the
builder callables live in module-level registries and are resolved
inside the executing process, never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from ..analysis.report import format_table
from ..analysis.speedup import RunPoint, measure, normalized_series, ratio
from ..isa.instructions import FenceKind
from ..runtime.lang import Env
from ..sim.config import SimConfig
from .jobs import Job

FIGURES = ("fig12", "fig13", "fig14", "fig15", "fig16", "figbackend")

#: the parameter each sweep figure varies, and the values it takes
_SWEEPS = {
    "fig15": ("mem_latency", [200, 300, 500], "Figure 15 -- varying memory latency"),
    "fig16": ("rob_size", [64, 128, 256], "Figure 16 -- varying ROB size"),
}

_FIG12_LEVELS = range(1, 7)
_FIG13_CONFIGS = (
    ("T", "global", False),
    ("S", None, False),       # None -> the app's native scoped kind
    ("T+", "global", True),
    ("S+", None, True),
)

#: the three-way coherence comparison (label, fence scope, backend):
#: the paper's S-Fence scoping and the traditional full fence both run
#: on invalidation-based coherence, against the SiSd rival design that
#: needs no invalidation traffic but pays SI/SD work at every sync point
_BACKEND_CONFIGS = (
    ("S-Fence", None, "mesi"),       # None -> the app's native scoped kind
    ("full-fence", "global", "mesi"),
    ("SiSd", None, "sisd"),
)


def _scaled(n: int, scale: float) -> int:
    return max(2, int(round(n * scale)))


# ------------------------------------------------------------------ registries
def _fig12_builders(scale: float):
    from ..algorithms.dekker import build_workload as dekker
    from ..algorithms.workloads import (
        build_harris_workload,
        build_msn_workload,
        build_wsq_workload,
    )

    return {
        "dekker": lambda env, lvl: dekker(env, workload_level=lvl, iterations=_scaled(25, scale)),
        "wsq": lambda env, lvl: build_wsq_workload(env, workload_level=lvl, iterations=_scaled(30, scale)),
        "msn": lambda env, lvl: build_msn_workload(env, workload_level=lvl, iterations=_scaled(15, scale)),
        "harris": lambda env, lvl: build_harris_workload(env, workload_level=lvl, iterations=_scaled(15, scale)),
    }


def _app_builders(scale: float):
    from ..apps.barnes import build_barnes
    from ..apps.pst import build_pst
    from ..apps.ptc import build_ptc
    from ..apps.radiosity import build_radiosity

    return {
        "pst": (lambda env, k: build_pst(env, scope=k, n_vertices=_scaled(160, scale)), FenceKind.CLASS),
        "ptc": (lambda env, k: build_ptc(env, scope=k, n_vertices=_scaled(48, min(scale, 1.3))), FenceKind.CLASS),
        "barnes": (lambda env, k: build_barnes(env, scope=k, n_bodies=_scaled(192, scale)), FenceKind.SET),
        "radiosity": (lambda env, k: build_radiosity(env, scope=k, n_patches=_scaled(128, scale)), FenceKind.SET),
    }


def _fig14_builders(scale: float):
    from ..algorithms.workloads import build_harris_workload, build_msn_workload
    from ..apps.pst import build_pst
    from ..apps.ptc import build_ptc

    return {
        "msn": lambda env, k: build_msn_workload(env, scope=k, iterations=_scaled(12, scale), workload_level=2),
        "harris": lambda env, k: build_harris_workload(env, scope=k, iterations=_scaled(12, scale), workload_level=2),
        "pst": lambda env, k: build_pst(env, scope=k, n_vertices=_scaled(128, scale)),
        "ptc": lambda env, k: build_ptc(env, scope=k, n_vertices=_scaled(48, min(scale, 1.3))),
    }


# ---------------------------------------------------------------- enumeration
def figure_jobs(
    figure: str,
    scale: float = 1.0,
    mem_backend: str = "mesi",
) -> list[Job]:
    """All cell jobs of one figure, in serial loop order.

    ``mem_backend`` is the coherence backend every cell of a fig12-16
    table runs on -- part of each job's parameters, hence of its
    result-cache key.  ``figbackend`` ignores it: that figure's whole
    point is a per-cell backend axis (:data:`_BACKEND_CONFIGS`).
    """
    common = {"figure": figure, "scale": scale, "mem_backend": mem_backend}
    if figure == "figbackend":
        common.pop("mem_backend")
        return [
            Job("figure", {**common, "app": app, "label": label,
                           "scope": scope, "backend": backend})
            for app in _app_builders(scale)
            for label, scope, backend in _BACKEND_CONFIGS
        ]
    if figure == "fig12":
        return [
            Job("figure", {**common, "bench": bench, "level": level,
                           "scoped": scoped})
            for bench in _fig12_builders(scale)
            for level in _FIG12_LEVELS
            for scoped in (False, True)
        ]
    if figure == "fig13":
        return [
            Job("figure", {**common, "app": app, "label": label,
                           "scope": scope, "spec": spec})
            for app in _app_builders(scale)
            for label, scope, spec in _FIG13_CONFIGS
        ]
    if figure == "fig14":
        return [
            Job("figure", {**common, "bench": bench, "scope": scope.value})
            for bench in _fig14_builders(scale)
            for scope in (FenceKind.CLASS, FenceKind.SET)
        ]
    if figure in _SWEEPS:
        param, values, _title = _SWEEPS[figure]
        return [
            Job("figure", {**common, "app": app, "param": param,
                           "value": value, "scope": scope})
            for app in _app_builders(scale)
            for value in values
            for scope in ("global", None)
        ]
    raise KeyError(f"unknown figure {figure!r} (have {FIGURES})")


#: relative chunk-cost base per figure kind (fig13 apps run 4 configs of
#: full applications; fig12 workload cells are small algorithm loops)
_FIGURE_COST = {"fig12": 3.0, "fig13": 14.0, "fig14": 8.0,
                "fig15": 10.0, "fig16": 10.0, "figbackend": 12.0}


def cell_cost(params: dict) -> float:
    """Chunk-shaping weight of one figure cell (see campaign.jobs.job_cost)."""
    cost = _FIGURE_COST.get(params.get("figure", ""), 8.0)
    return cost * max(float(params.get("scale", 1.0)), 0.1)


# ------------------------------------------------------------------ execution
#: figures whose cells are whole-application runs from :func:`_app_builders`.
#: Their sweeps all pass through the default machine (300-cycle memory,
#: 128-entry ROB, MESI), so Fig. 15's 300-cycle column, Fig. 16's
#: 128-entry column and the MESI cells of the backend comparison are the
#: same simulations as Fig. 13's T and S cells.
_APP_FIGURES = ("fig13", "fig15", "fig16", "figbackend")

#: the fields of a measured point (:func:`_app_point`), and the ones
#: each app figure keeps in its payload
_POINT = ("cycles", "fence_stall_cycles", "fence_stall_fraction",
          "avg_rob_occupancy")
_FULL_POINT = _POINT[:3]
_PAYLOAD_FIELDS = {"fig13": _FULL_POINT, "figbackend": _FULL_POINT,
                   "fig15": ("cycles",),
                   "fig16": ("cycles", "avg_rob_occupancy")}


def _resolve_scope(spec: str | None, native: FenceKind) -> FenceKind:
    return FenceKind(spec) if spec is not None else native


def cell_key(params: dict) -> tuple | None:
    """The simulation an app figure cell measures, or ``None``.

    ``(app, scale, resolved fence kind, SimConfig)`` fully determines an
    app cell's run, so two cells -- of the same figure or of different
    ones -- with equal keys are the same simulation.  Cells of fig12 and
    fig14 (algorithm loops, not apps) have no key.
    """
    figure = params.get("figure")
    if figure not in _APP_FIGURES:
        return None
    _builder, native = _app_builders(params["scale"])[params["app"]]
    fields = {"mem_backend": params.get("mem_backend", "mesi")}
    if figure == "figbackend":
        fields["mem_backend"] = params["backend"]
    elif figure == "fig13":
        fields["in_window_speculation"] = params["spec"]
    else:
        fields[params["param"]] = params["value"]
    return (params["app"], params["scale"],
            _resolve_scope(params["scope"], native), SimConfig(**fields))


def _app_point(key: tuple) -> tuple:
    """The :data:`_POINT` fields of one key's run.

    Memoised per process (campaign warm slot ``figure-points``), so every
    cell sharing the key -- inline, or in the same pool worker, which the
    chunk planner arranges (:func:`repro.campaign.jobs.job_affinity`) --
    simulates once.  Only these numbers are kept, never the run, and
    an entry is stored only after the app's ``check()`` passed: a failing
    cell raises again for every job that shares its key.  The memo sits
    here and not in :func:`~repro.analysis.speedup.measure`, whose
    callers (``repro perf``) time repeated runs of one configuration.
    """
    from .jobs import warm_slot

    memo = warm_slot("figure-points")
    point = memo.get(key)
    if point is None:
        app, scale, scope, cfg = key
        builder, _native = _app_builders(scale)[app]
        run = measure(lambda env: builder(env, scope), cfg)
        point = memo[key] = (run.cycles, run.fence_stall_cycles,
                             run.fence_stall_fraction,
                             run.stats_summary["avg_rob_occupancy"])
    return point


def run_figure_cell(params: dict) -> dict:
    """Execute one figure cell; returns the cell's headline numbers."""
    figure = params["figure"]
    key = cell_key(params)
    if key is not None:
        point = dict(zip(_POINT, _app_point(key)))
        return {name: point[name] for name in _PAYLOAD_FIELDS[figure]}
    scale = params["scale"]
    cfg = SimConfig(mem_backend=params.get("mem_backend", "mesi"))
    if figure == "fig12":
        build = _fig12_builders(scale)[params["bench"]]
        env = Env(cfg.with_(scoped_fences=params["scoped"]))
        handle = build(env, params["level"])
        res = env.run(handle.program)
        handle.check()
        return {"cycles": res.cycles}
    if figure == "fig14":
        build = _fig14_builders(scale)[params["bench"]]
        point = measure(lambda env: build(env, FenceKind(params["scope"])), cfg)
        return {"cycles": point.cycles}
    raise KeyError(f"unknown figure {figure!r}")


# ------------------------------------------------------------------- assembly
def _cell_map(jobs: list[Job], results: list[dict | None]) -> dict[tuple, dict | None]:
    """Index results by the identifying parameters of each job."""
    out = {}
    for job, result in zip(jobs, results):
        key = tuple(sorted(
            (k, v) for k, v in job.params.items()
            if k not in ("figure", "scale", "mem_backend")
        ))
        out[key] = result
    return out


def _get(cells: dict, **params) -> dict | None:
    return cells.get(tuple(sorted(params.items())))


def _fmt_ratio(value: float | None) -> str:
    return f"{value:.3f}" if value is not None else "n/a"


def assemble_figure(figure: str, jobs: list[Job], results: list[dict | None]) -> str:
    """Fold cell results into the figure's table (missing cells -> n/a)."""
    scale = jobs[0].params["scale"] if jobs else 1.0
    cells = _cell_map(jobs, results)
    if figure == "figbackend":
        rows = []
        for app in _app_builders(scale):
            by_label = {}
            for label, scope, backend in _BACKEND_CONFIGS:
                cell = _get(cells, app=app, label=label, scope=scope,
                            backend=backend)
                by_label[label] = cell
            sfence = by_label.get("S-Fence")
            row = [app]
            for label, _scope, _backend in _BACKEND_CONFIGS:
                cell = by_label.get(label)
                row.append(cell["cycles"] if cell else "n/a")
            row.append(_fmt_ratio(ratio(
                by_label.get("full-fence") and by_label["full-fence"]["cycles"],
                sfence and sfence["cycles"])))
            row.append(_fmt_ratio(ratio(
                by_label.get("SiSd") and by_label["SiSd"]["cycles"],
                sfence and sfence["cycles"])))
            rows.append(tuple(row))
        return format_table(
            ["app", "S-Fence", "full-fence", "SiSd",
             "S-Fence speedup vs full", "S-Fence speedup vs SiSd"],
            rows,
            title="Backend comparison -- S-Fence vs full fence vs SiSd",
        )
    if figure == "fig12":
        rows = []
        for bench in _fig12_builders(scale):
            curve = []
            for level in _FIG12_LEVELS:
                trad = _get(cells, bench=bench, level=level, scoped=False)
                scoped = _get(cells, bench=bench, level=level, scoped=True)
                curve.append(ratio(trad and trad["cycles"], scoped and scoped["cycles"]))
            peak = max((s for s in curve if s is not None), default=None)
            rows.append((bench, " ".join(_fmt_ratio(s) for s in curve),
                         f"{peak:.2f}x" if peak is not None else "n/a"))
        return format_table(["benchmark", "speedup @ workload 1..6", "peak"], rows,
                            title="Figure 12 -- impact of workload")
    if figure == "fig13":
        rows = []
        for app in _app_builders(scale):
            points = []
            for label, scope, spec in _FIG13_CONFIGS:
                cell = _get(cells, app=app, label=label, scope=scope, spec=spec)
                if cell is None:
                    continue
                points.append(RunPoint(label, **cell))
            if not points:
                rows.append((app, "n/a", "n/a", "n/a", "n/a"))
                continue
            for s in normalized_series(points, points[0]):
                rows.append((app, s["label"], s["normalized_time"],
                             s["fence_stalls"], s["others"]))
        return format_table(["app", "config", "normalized", "fence stalls", "others"],
                            rows, title="Figure 13 -- normalized execution time")
    if figure == "fig14":
        rows = []
        for bench in _fig14_builders(scale):
            cs = _get(cells, bench=bench, scope="class")
            ss = _get(cells, bench=bench, scope="set")
            rows.append((
                bench,
                cs["cycles"] if cs else "n/a",
                ss["cycles"] if ss else "n/a",
                _fmt_ratio(ratio(ss and ss["cycles"], cs and cs["cycles"])),
            ))
        return format_table(["benchmark", "class scope", "set scope", "set/class"],
                            rows, title="Figure 14 -- class vs set scope")
    if figure in _SWEEPS:
        param, values, title = _SWEEPS[figure]
        rows = []
        for app in _app_builders(scale):
            speedups = []
            for value in values:
                t = _get(cells, app=app, param=param, value=value, scope="global")
                s = _get(cells, app=app, param=param, value=value, scope=None)
                speedups.append(ratio(t and t["cycles"], s and s["cycles"]))
            rows.append((app, " ".join(_fmt_ratio(x) for x in speedups)))
        return format_table(["app", f"S-Fence speedup @ {param} {values}"], rows,
                            title=title)
    raise KeyError(f"unknown figure {figure!r}")


# --------------------------------------------------------------------- claims
@dataclass(frozen=True)
class Claim:
    """A paper claim about one row (``subject``) of a figure: ``bound``
    holds for the value ``x`` of the cell expression ``expr``.  Both read
    the names :func:`_claim_names` gives the row; ``paper`` is what the
    paper reports."""

    subject: str
    expr: str
    bound: str
    paper: str


#: claims are judged only on the cells their bounds were set on: the
#: default (MESI) machine at full scale.  Elsewhere a row reads ``n/a``.
CLAIMS_SCALE = 1.0
CLAIMS_BACKEND = "mesi"

_FIG12_PEAK = {"dekker": "1.14", "wsq": "1.30", "msn": "1.20", "harris": "1.26"}
_FIG13_S = {"pst": "0.90", "ptc": "0.957", "barnes": "0.805", "radiosity": "0.842"}
#: pst/ptc steal schedules diverge between T and S runs: 2 % slack there
_FIG13_S_BOUND = {"pst": "x <= T.cycles * 1.02", "ptc": "x <= T.cycles * 1.02",
                  "barnes": "x <= T.cycles", "radiosity": "x <= T.cycles"}

#: every figure's claims.  Names per figure: fig12/fig15/fig16 ``curve``
#: (T/S speedup at each level of the sweep), fig16 also ``occupancy``
#: (the S run's average ROB occupancy at each size); fig13 ``T``, ``S``,
#: ``Tp`` (T+), ``Sp`` (S+); fig14 ``CS`` (class scope), ``SS`` (set
#: scope).  The cells carry their payload fields as attributes.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "fig12": tuple(row for bench, peak in _FIG12_PEAK.items() for row in (
        Claim(bench, "curve.index(max(curve))", "x >= 1", "rises from workload 1"),
        Claim(bench, "curve[-1]", "x < max(curve)", "falls toward workload 6"),
        Claim(bench, "max(curve)", "1.05 <= x <= 1.5", f"peak ~{peak}x"),
        Claim(bench, "min(curve)", "x >= 0.99", "S-Fence never loses"),
    )),
    "fig13": tuple(row for app, bound in _FIG13_S_BOUND.items() for row in (
        Claim(app, "S.cycles", bound, f"S = {_FIG13_S[app]} T"),
        Claim(app, "S.fence_stall_cycles", "x <= T.fence_stall_cycles",
              "scoping removes stalls"),
        Claim(app, "Tp.cycles", "x <= T.cycles * 1.05", "speculation helps T"),
    )) + (
        Claim("barnes", "T.fence_stall_fraction", "0.30 <= x <= 0.50", "0.388"),
        Claim("barnes", "S.fence_stall_fraction",
              "x <= 0.6 * T.fence_stall_fraction", "S removes 40-50 % of stalls"),
        Claim("radiosity", "T.cycles / S.cycles", "1.10 <= x <= 1.35", "1.19x"),
        Claim("ptc", "T.cycles / S.cycles", "x <= 1.15", "small (1.045x)"),
    ),
    "fig14": tuple(row for bench in ("msn", "harris", "pst", "ptc") for row in (
        Claim(bench, "SS.cycles / CS.cycles", "x <= 1.02", "set scope slightly better"),
        Claim(bench, "SS.cycles / CS.cycles", "x >= 0.85", "difference not significant"),
    )),
    "fig15": (
        Claim("barnes", "curve[2]", "x > curve[0]", "grows with latency"),
        Claim("radiosity", "curve[2]", "x > curve[0]", "grows with latency"),
        Claim("pst", "curve[2] - curve[0]", "x < 0.10", "flat"),
    ),
    "fig16": tuple(row for app in ("radiosity", "pst", "ptc") for row in (
        Claim(app, "max(curve) - min(curve)", "x < 0.15", "stable"),
        Claim(app, "occupancy[-1]", "x < 80", "< 80 ROB entries used"),
    )),
}

_EVAL_GLOBALS = {"__builtins__": {}, "max": max, "min": min}


def _cell_ns(cell: dict | None) -> SimpleNamespace | None:
    return SimpleNamespace(**cell) if cell is not None else None


def _complete(values: list) -> list | None:
    return None if any(v is None for v in values) else values


def _claim_names(figure: str, subject: str, cells: dict) -> dict:
    """The names a claim about ``subject`` reads; ``None`` = missing cell."""
    if figure == "fig12":
        curve = []
        for level in _FIG12_LEVELS:
            t = _get(cells, bench=subject, level=level, scoped=False)
            s = _get(cells, bench=subject, level=level, scoped=True)
            curve.append(ratio(t and t["cycles"], s and s["cycles"]))
        return {"curve": _complete(curve)}
    if figure == "fig13":
        return {label.replace("+", "p"): _cell_ns(
                    _get(cells, app=subject, label=label, scope=scope, spec=spec))
                for label, scope, spec in _FIG13_CONFIGS}
    if figure == "fig14":
        return {name: _cell_ns(_get(cells, bench=subject, scope=scope))
                for name, scope in (("CS", "class"), ("SS", "set"))}
    param, values, _title = _SWEEPS[figure]
    pairs = [[_get(cells, app=subject, param=param, value=value, scope=scope)
              for scope in ("global", None)] for value in values]
    names = {"curve": _complete([ratio(t and t["cycles"], s and s["cycles"])
                                 for t, s in pairs])}
    if figure == "fig16":
        names["occupancy"] = _complete([s and s["avg_rob_occupancy"]
                                        for _t, s in pairs])
    return names


def _judge(claim: Claim, names: dict) -> tuple[object, str]:
    """``(value, verdict)``: a row whose cells are missing never passes."""
    used = set(compile(claim.expr, "<claim>", "eval").co_names)
    used |= set(compile(claim.bound, "<bound>", "eval").co_names)
    if any(names[n] is None for n in used & names.keys()):
        return None, "missing"
    # both strings are module data (CLAIMS), never user input
    x = eval(claim.expr, _EVAL_GLOBALS, names)
    held = eval(claim.bound, _EVAL_GLOBALS, {**names, "x": x})
    return x, "pass" if held else "FAIL"


def figure_claims(figure: str, jobs: list[Job], results: list[dict | None]) -> list[dict]:
    """Judge ``figure``'s :data:`CLAIMS` against its cell results.

    One row per claim, with its ``value`` and ``verdict``: ``pass``,
    ``FAIL``, ``missing`` (a cell it reads failed or did not run) or
    ``n/a`` (the cells are not the ones the bounds were set on).  Pure,
    like :func:`assemble_figure`, so a warm cache judges identically.
    """
    params = jobs[0].params if jobs else {}
    judged = (params.get("scale") == CLAIMS_SCALE
              and params.get("mem_backend") == CLAIMS_BACKEND)
    cells = _cell_map(jobs, results)
    rows = []
    for claim in CLAIMS.get(figure, ()):
        value, verdict = _judge(claim, _claim_names(figure, claim.subject, cells))
        rows.append({"subject": claim.subject, "expr": claim.expr,
                     "bound": claim.bound, "paper": claim.paper,
                     "value": value, "verdict": verdict if judged else "n/a"})
    return rows


def broken_claims(rows: list[dict]) -> list[dict]:
    """The rows that fail their bound or miss a cell."""
    return [r for r in rows if r["verdict"] in ("FAIL", "missing")]


def format_claims(figure: str, rows: list[dict]) -> str:
    def shown(value):
        return f"{value:.3f}" if isinstance(value, float) else (
            "n/a" if value is None else value)

    return format_table(
        ["subject", "claim", "value", "bound", "paper", "verdict"],
        [(r["subject"], r["expr"], shown(r["value"]), r["bound"], r["paper"],
          r["verdict"]) for r in rows],
        title=f"{figure} claims (judged at scale {CLAIMS_SCALE}, "
              f"{CLAIMS_BACKEND})",
    )


# ------------------------------------------------------ figures report
FIGURES_REPORT_PATH = "figures-report.json"


def figures_report(runs: dict[str, tuple[list[Job], list[dict | None]]]) -> dict:
    """Every cell payload and claim verdict of a full figure campaign
    (``runs``: figure -> ``(jobs, results)``), for the committed
    :data:`FIGURES_REPORT_PATH`; pure, so a warm cache reproduces it."""
    figures = {}
    for figure, (jobs, results) in runs.items():
        claims = figure_claims(figure, jobs, results)
        figures[figure] = {
            "cells": [{"cell": job.label(), "result": result}
                      for job, result in zip(jobs, results)],
            "claims": claims,
        }
    return {
        "scale": CLAIMS_SCALE,
        "mem_backend": CLAIMS_BACKEND,
        "figures": figures,
        "claims_ok": not any(broken_claims(f["claims"]) for f in figures.values()),
    }


# ---------------------------------------------- backend comparison report
BACKEND_REPORT_PATH = "backend-compare-report.json"


def backend_compare_report(jobs: list[Job], results: list[dict | None]) -> dict:
    """Machine-readable three-way comparison from ``figbackend`` cells.

    The committed artifact (:data:`BACKEND_REPORT_PATH`): per app, the
    raw cycles/stalls of every config plus the two headline ratios
    (full-fence / S-Fence and SiSd / S-Fence -- values above 1 mean
    S-Fence is faster).  Pure function of the cell results, so a warm
    cache reproduces it byte-identically.
    """
    scale = jobs[0].params["scale"] if jobs else 1.0
    cells = _cell_map(jobs, results)
    apps: dict[str, dict] = {}
    for app in _app_builders(scale):
        entry: dict = {"configs": {}}
        for label, scope, backend in _BACKEND_CONFIGS:
            cell = _get(cells, app=app, label=label, scope=scope,
                        backend=backend)
            entry["configs"][label] = cell and {
                "backend": backend,
                "cycles": cell["cycles"],
                "fence_stall_cycles": cell["fence_stall_cycles"],
                "fence_stall_fraction": cell["fence_stall_fraction"],
            }
        sfence = entry["configs"].get("S-Fence")
        full = entry["configs"].get("full-fence")
        sisd = entry["configs"].get("SiSd")
        entry["sfence_speedup_vs_full"] = ratio(
            full and full["cycles"], sfence and sfence["cycles"])
        entry["sfence_speedup_vs_sisd"] = ratio(
            sisd and sisd["cycles"], sfence and sfence["cycles"])
        apps[app] = entry
    return {
        "figure": "figbackend",
        "scale": scale,
        "configs": [
            {"label": label, "scope": scope or "native", "backend": backend}
            for label, scope, backend in _BACKEND_CONFIGS
        ],
        "apps": apps,
        "complete": all(
            c is not None for e in apps.values() for c in e["configs"].values()
        ),
    }
