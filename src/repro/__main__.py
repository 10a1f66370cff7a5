"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``fig12`` / ``fig13`` / ``fig14`` / ``fig15`` / ``fig16`` — rerun one
  of the paper's figures, print its table and judge the paper's claims
  about it (:data:`repro.campaign.figures.CLAIMS`, at ``--scale 1.0``);
  exits non-zero on a broken claim.
* ``hwcost`` — print the Section VI-E hardware bill of materials.
* ``litmus <file>`` — run a textual litmus test (see
  :mod:`repro.litmus.dsl`) and report the observed outcomes.
* ``chaos`` — fault-injection sweep over the lock-free algorithm suite
  with ordering-invariant checking (see :mod:`repro.chaos`); exits
  non-zero if any case fails.
* ``campaign`` — run job sets (chaos × seeds, figure cells, the litmus
  corpus) on the parallel campaign engine with an on-disk result cache
  (see :mod:`repro.campaign`).  Transient worker failures retry with
  backoff (``--retries``); whatever still ends ``worker-crash`` /
  ``worker-timeout`` / ``error`` is summarised per classification and
  the command exits non-zero.  ``--chaos-infra <seed>`` instead runs
  the resilience differential: a scripted infrastructure fault
  campaign (worker kills, stalls, cache corruption, a torn manifest)
  that must converge to the byte-identical outcome fingerprint of a
  fault-free sweep (see :mod:`repro.campaign.resilience`).
* ``perf`` — time the ``fig15-hot`` workload (radiosity under a
  global fence at 2000-cycle memory) under both execution engines
  (dense reference loop and event-driven fast path) and write
  ``BENCH_simperf.json`` (see :mod:`repro.analysis.simperf`); exits
  non-zero if the event-engine speedup falls below ``--min-speedup``,
  or if any engine's result fingerprint diverges.  ``--mem-backend
  mesi,sisd`` records a column set per coherence backend.
* ``verify`` — exhaustively model-check the litmus corpus across fence
  modes with the DPOR explorer, cross-check the reference model, and
  score the simulator's soundness and outcome coverage on every
  ``--mem-backend`` (see :mod:`repro.verify`); writes
  ``verify-report.json`` and exits non-zero on any soundness violation
  or explorer/reference disagreement.
* ``synth`` — automatically synthesize the cheapest sound fence
  placement for every synthesis-corpus entry (classic litmus tests
  plus kernels distilled from the ``apps/`` algorithms), prove each
  placement with both the DPOR explorer and the axiomatic reference,
  and print the synthesized-vs-hand-written comparison (fence count,
  mode mix, simulated stall cycles; see :mod:`repro.synth`); writes
  ``synth-report.json`` and exits non-zero if any hand-written
  placement is unsound or any synthesized placement costs more stall
  than the hand-written one.  ``synth --apps`` runs the whole-program
  path instead: fence slots and the reduced mode lattice derived from
  delay-set analysis of the real ``apps/``/``algorithms/`` workloads,
  proven by distilled kernels (DPOR + axiomatic) or the chaos-campaign
  oracle, policed by an anti-vacuity mutation battery; writes
  ``app-synth-report.json`` and exits non-zero naming the
  counterexample run when an oracle rejects a placement.

Every simulation-grid command accepts ``--parallel N`` to fan cells out
over N crash-isolated worker processes (default ``auto``: one per CPU,
capped) and ``--cache-dir``/``--no-cache`` to control result
memoisation.  Parallelism and caching never change any number in
any table — only how fast it appears.  The
figure commands and ``campaign --figures`` share one path
(:mod:`repro.campaign.figures`); ``--scale`` shrinks or grows
workloads, and ``campaign --figures all`` at scale 1.0 writes
``figures-report.json``.
Simulations run on the event-driven engine.  The per-cycle reference
loop runs the same core tick on every cycle; tier-1's
``tests/test_fastpath_equivalence.py`` (``test_verify_grid_equivalence``
covers every offset pair ``verify`` sweeps) and the ``perf`` gate check
the event scheduler's wake-ups and skips against it.  ``--mem-backend``
picks the coherence backend timing model (``mesi`` invalidation-based
directory coherence, the default, or ``sisd``
self-invalidation/self-downgrade);
``verify`` and ``perf`` accept a comma-separated list and sweep every
named backend, and the dedicated ``figbackend`` figure
sweeps the S-Fence / full-fence / SiSd three-way comparison and writes
``backend-compare-report.json``.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.report import (
    StreamAggregator,
    failure_counts,
    format_table,
    render_failure_counts,
    write_report,
)
from .core.hwcost import estimate_cost
from .sim.config import MemoryModel, SimConfig

#: default on-disk result cache location (relative to the working dir)
DEFAULT_CACHE_DIR = ".campaign-cache"

#: full chaos sweep depth when neither --seeds nor --smoke is given
CHAOS_DEFAULT_SEEDS = 20
CHAOS_SMOKE_SEEDS = 2


# --------------------------------------------------------------- campaign glue
def _parallel_arg(value: str):
    """``--parallel`` accepts a worker count or the literal ``auto``."""
    if value == "auto":
        return "auto"
    return int(value)


def _resolve_parallel(ns) -> None:
    """Turn the raw ``--parallel`` value into a worker count.

    ``ns.parallel_explicit`` records whether the user picked one: the
    implicit ``auto`` default must never change *what* runs, only how
    fast, so side effects keyed on parallelism -- the shared default
    cache directory, specifically -- stay opt-in.
    """
    from .campaign import auto_parallel

    ns.parallel_explicit = ns.parallel is not None
    if ns.parallel is None or ns.parallel == "auto":
        ns.parallel = auto_parallel()


def _parse_backends(ns) -> list[str] | None:
    """The ``--mem-backend`` value as a validated list (None on error)."""
    from .sim.config import MEM_BACKENDS

    backends = [b.strip() for b in ns.mem_backend.split(",") if b.strip()]
    if not backends:
        backends = ["mesi"]
    for backend in backends:
        if backend not in MEM_BACKENDS:
            print(f"{ns.command}: unknown memory backend {backend!r} "
                  f"(have {MEM_BACKENDS})", file=sys.stderr)
            return None
    return backends


def _single_backend(ns) -> str | None:
    """One backend for single-sweep commands (None on error).

    Only ``verify`` and ``perf`` sweep a backend list; everywhere else a
    comma-separated ``--mem-backend`` is an error, not a silent pick.
    """
    backends = _parse_backends(ns)
    if backends is None:
        return None
    if len(backends) > 1:
        print(f"{ns.command}: --mem-backend takes a single backend here "
              f"(only verify and perf sweep a comma-separated list)", file=sys.stderr)
        return None
    return backends[0]


def _make_cache(ns):
    """The ResultCache this invocation should use (or None)."""
    from .campaign import ResultCache

    if ns.no_cache:
        return None
    if ns.cache_dir:
        return ResultCache(ns.cache_dir)
    # explicitly parallel runs default to the shared cache so
    # re-invocations resume; the implicit auto default does not write
    # into the working directory unasked
    if ns.parallel > 0 and ns.parallel_explicit:
        return ResultCache(DEFAULT_CACHE_DIR)
    return None


def _run_jobs(jobs, ns, label: str):
    """Execute a job list under this invocation's engine settings."""
    from .campaign import RetryPolicy, run_campaign

    agg = StreamAggregator(len(jobs))
    live = sys.stderr.isatty()

    def progress(outcome, done, total):
        agg.add(outcome.ok, outcome.cached, outcome.job.label())
        if live:
            print(f"\r{label}: {agg.line()}", end="", file=sys.stderr)

    def on_event(kind, message):
        # retries, pool downgrades, serial fallback: visible as they
        # happen and retained for the end-of-run summary
        agg.note(f"{kind}: {message}")
        print(("\n" if live else "") + f"{label}: {message}", file=sys.stderr)

    retry = RetryPolicy(retries=max(0, ns.retries),
                        backoff_base=ns.retry_backoff)
    result = run_campaign(jobs, parallel=ns.parallel, cache=_make_cache(ns),
                          progress=progress, job_timeout=ns.job_timeout,
                          retry=retry,
                          on_event=on_event)
    if live:
        print(file=sys.stderr)
    extra = ""
    if result.retried:
        extra = (f", {result.retried} retried, "
                 f"{len(result.recovered)} recovered")
    print(f"{label}: {agg.summary()} "
          f"({result.executed} executed, {result.cached} from cache{extra})",
          file=sys.stderr)
    if result.failures:
        counts: dict[str, int] = {}
        for outcome in result.failures:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        tally = " ".join(f"{s}={n}" for s, n in sorted(counts.items()))
        print(f"{label}: unrecovered failures after retries: {tally}",
              file=sys.stderr)
    return result


def _run_figures(ns, figures: list[str], backend: str, label: str) -> int:
    """Run the figures' cells as one campaign; print each table and claims.

    One campaign for every requested figure, so cells shared across
    figures (the default-machine runs) simulate once.  Each figure's
    claim rows follow its table, and a broken row fails the command.
    The figbackend report is written only when every one of its cells
    is ok; ``figures-report.json`` only from a run of every figure, on
    the claims' machine, with every cell ok.
    """
    from .campaign import figures as fig

    per_figure = {
        figure: fig.figure_jobs(figure, ns.scale, mem_backend=backend)
        for figure in figures
    }
    result = _run_jobs([j for jobs in per_figure.values() for j in jobs],
                       ns, label)
    status = 0 if result.ok else 1
    outcomes = iter(result.outcomes)
    runs = {}
    for figure, jobs in per_figure.items():
        mine = [next(outcomes) for _ in jobs]
        results = [o.result for o in mine]
        runs[figure] = (jobs, results)
        print(fig.assemble_figure(figure, jobs, results))
        claims = fig.figure_claims(figure, jobs, results)
        if claims:
            print(fig.format_claims(figure, claims))
        for row in fig.broken_claims(claims):
            print(f"CLAIM {row['verdict']} {figure} {row['subject']}: "
                  f"{row['expr']} = {row['value']}, bound {row['bound']}",
                  file=sys.stderr)
            status = 1
        if figure == "figbackend" and all(o.ok for o in mine):
            report = fig.backend_compare_report(jobs, results)
            write_report(report, ns.backend_out)
            print(f"report written to {ns.backend_out}", file=sys.stderr)
    if (result.ok and set(figures) == set(fig.FIGURES)
            and ns.scale == fig.CLAIMS_SCALE and backend == fig.CLAIMS_BACKEND):
        write_report(fig.figures_report(runs), fig.FIGURES_REPORT_PATH)
        print(f"report written to {fig.FIGURES_REPORT_PATH}", file=sys.stderr)
    for outcome in result.failures:
        print(f"\nFAIL {outcome.job.label()}: {outcome.status}\n{outcome.error}",
              file=sys.stderr)
    return status


def cmd_figure(figure: str, ns) -> int:
    backend = _single_backend(ns)
    if backend is None:
        return 2
    return _run_figures(ns, [figure], backend, figure)


def cmd_hwcost(ns) -> int:
    cost = estimate_cost(SimConfig())
    print(format_table(
        ["structure", "bits"],
        [
            ("FSB (ROB)", cost.fsb_rob_bits),
            ("FSB (SB)", cost.fsb_sb_bits),
            ("mapping table", cost.mapping_table_bits),
            ("FSS + FSS'", cost.fss_bits + cost.shadow_fss_bits),
            ("overflow counter", cost.overflow_counter_bits),
            ("total", f"{cost.total_bits} ({cost.total_bytes:.1f} bytes)"),
        ],
        title="Section VI-E -- hardware cost per core",
    ))
    return 0


def cmd_litmus(path: str, model_name: str, mem_backend: str = "mesi") -> int:
    from .litmus.dsl import LitmusParseError, parse_litmus, run_litmus

    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"litmus: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        # statements are matched when the sweep compiles the test, so
        # run under the same guard
        test = parse_litmus(source)
        run = run_litmus(test, MemoryModel(model_name), mem_backend=mem_backend)
    except LitmusParseError as exc:
        print(f"litmus: {path}: {exc}", file=sys.stderr)
        return 2
    print(f"litmus {test.name} under {model_name}:")
    print(f"  registers: {run.register_names}")
    for outcome in sorted(run.outcomes, key=str):
        print(f"  observed: {outcome}")
    if test.condition:
        verdict = "OBSERVED" if run.condition_observed else "never observed"
        print(f"  exists {test.condition}: {verdict}")
        for outcome in run.matching_outcomes():
            print(f"    matching outcome: {outcome}")
    return 0


# ----------------------------------------------------------------------- chaos
def _resolve_chaos_seeds(ns) -> tuple[int, bool]:
    """The seeds-per-cell count, and whether --smoke truncated it."""
    if ns.seeds is not None:
        return ns.seeds, False
    if ns.smoke:
        return CHAOS_SMOKE_SEEDS, True
    return CHAOS_DEFAULT_SEEDS, False


def _print_chaos_summary(reports, n_seeds: int, seed_base: int,
                         truncated: bool) -> int:
    """Aggregate table + exit-status summary of one chaos sweep."""
    from .chaos.runner import ALGORITHMS, SCENARIOS

    scenarios = [s for s in SCENARIOS if any(r.scenario == s for r in reports)]
    algos = [a for a in ALGORITHMS if any(r.algo == a for r in reports)]
    rows = []
    for scenario in scenarios:
        for algo in algos:
            cell = [r for r in reports if r.scenario == scenario and r.algo == algo]
            if not cell:
                continue
            n_ok = sum(1 for r in cell if r.ok)
            injected = sum(sum(r.injected.values()) for r in cell)
            rows.append((
                scenario, algo, f"{n_ok}/{len(cell)}",
                sum(r.fences_checked for r in cell),
                sum(r.violations for r in cell),
                injected,
            ))
    print(format_table(
        ["scenario", "algo", "ok", "fences checked", "violations", "faults injected"],
        rows,
        title=f"chaos sweep -- {n_seeds} seed(s) from {seed_base}",
    ))
    failures = [r for r in reports if not r.ok]
    for r in failures:
        print(f"\nFAIL {r.algo}/{r.scenario} seed={r.seed} scope={r.scope}: {r.status}")
        if r.detail:
            print(r.detail)

    # exit-status summary: per-scenario failure counts are always
    # surfaced, and a truncated seed list is called out explicitly so a
    # green smoke run can't be mistaken for full-depth coverage
    per_scenario = failure_counts((r.scenario, r.ok) for r in reports)
    if truncated:
        dropped = CHAOS_DEFAULT_SEEDS - n_seeds
        print(f"\nsmoke: ran {n_seeds} of the default {CHAOS_DEFAULT_SEEDS} "
              f"seeds per cell ({dropped} dropped; coverage is reduced)",
              file=sys.stderr)
    print(f"failures by scenario: {render_failure_counts(per_scenario)}",
          file=sys.stderr)
    if failures:
        print(f"\n{len(failures)}/{len(reports)} case(s) failed", file=sys.stderr)
        return 1
    print(f"\nall {len(reports)} cases passed")
    return 0


def _run_chaos(ns, backend: str, label: str) -> int:
    """Run the chaos cross product as campaign jobs and summarise it.

    Returns the summary's exit status, or 2 on an unknown algorithm or
    scenario.  Engine failures (worker crash/timeout) become failed
    reports, so they print ``FAIL`` lines like failed cases do.
    """
    from .campaign import chaos_jobs
    from .chaos.runner import ChaosReport

    algos = ns.algos.split(",") if ns.algos else None
    scenarios = ns.scenarios.split(",") if ns.scenarios else None
    n_seeds, truncated = _resolve_chaos_seeds(ns)
    try:
        jobs = chaos_jobs(algos=algos, scenarios=scenarios, n_seeds=n_seeds,
                          seed_base=ns.seed_base, base_budget=ns.budget,
                          mem_backend=backend)
    except KeyError as exc:
        print(f"{ns.command}: {exc.args[0]}", file=sys.stderr)
        return 2
    result = _run_jobs(jobs, ns, label)
    reports = []
    for outcome in result.outcomes:
        if outcome.ok:
            reports.append(ChaosReport(**outcome.result))
        else:
            p = outcome.job.params
            reports.append(ChaosReport(
                algo=p["algo"], scenario=p["scenario"], seed=p["seed"],
                scope="?", status=outcome.status, detail=outcome.error,
            ))
    return _print_chaos_summary(reports, n_seeds, ns.seed_base, truncated)


def cmd_chaos(ns) -> int:
    backend = _single_backend(ns)
    if backend is None:
        return 2
    return _run_chaos(ns, backend, "chaos")


# ---------------------------------------------------------------------- verify
def cmd_verify(ns) -> int:
    """Exhaustive model check + simulator soundness/coverage verification."""
    from .campaign import verify_jobs
    from .verify.runner import (
        assemble_verify_report,
        format_verify_failures,
        format_verify_report,
    )

    modes = ns.verify_modes.split(",") if ns.verify_modes else None
    backends = _parse_backends(ns)
    if backends is None:
        return 2
    try:
        jobs = verify_jobs(modes=modes, seeds=ns.verify_seeds, smoke=ns.smoke,
                           backends=backends)
    except KeyError as exc:
        print(f"verify: {exc.args[0]}", file=sys.stderr)
        return 2
    result = _run_jobs(jobs, ns, "verify")
    report = assemble_verify_report(
        result.outcomes, seeds=jobs[0].params["seeds"], smoke=ns.smoke,
    )
    print(format_verify_report(report))
    for line in format_verify_failures(report):
        print(line, file=sys.stderr)
    write_report(report, ns.verify_out)
    print(f"report written to {ns.verify_out}", file=sys.stderr)
    if report["ok"]:
        n_cases = sum(len(t["modes"]) for t in report["tests"].values())
        print(f"verify: {n_cases} (test, mode) cases sound on "
              f"{len(report['backends'])} backend(s); zero soundness violations",
              file=sys.stderr)
        return 0
    print("verify: FAIL -- see report for details", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------- synth
def cmd_synth_apps(ns) -> int:
    """Whole-program synthesis over the apps/algorithms corpus."""
    from .campaign import app_synth_jobs
    from .synth.report import (
        assemble_app_synth_report,
        format_app_synth_failures,
        format_app_synth_report,
    )

    backend = _single_backend(ns)
    if backend is None:
        return 2
    if backend != "mesi":
        # the whole-program path is proven by chaos-oracle campaigns and
        # distilled kernels whose golden artifacts are mesi-timed; a
        # backend sweep there is future work, not a silent mesi run
        print("synth --apps: the whole-program path supports only "
              "--mem-backend mesi", file=sys.stderr)
        return 2
    names = ns.synth_tests.split(",") if ns.synth_tests else None
    seeds = list(range(ns.app_runs)) if ns.app_runs else None
    try:
        jobs = app_synth_jobs(names=names, seeds=seeds, smoke=ns.smoke)
    except KeyError as exc:
        print(f"synth: {exc.args[0]}", file=sys.stderr)
        return 2
    result = _run_jobs(jobs, ns, "app-synth")
    report = assemble_app_synth_report(result.outcomes, smoke=ns.smoke)
    print(format_app_synth_report(report))
    for line in format_app_synth_failures(report):
        print(line, file=sys.stderr)
    write_report(report, ns.app_synth_out)
    print(f"report written to {ns.app_synth_out}", file=sys.stderr)
    if report["ok"]:
        t = report["totals"]
        print(f"synth --apps: {len(report['cases'])} app placement(s) proven "
              f"sound by their designated oracles; {t['synth_fences']} "
              f"synthesized fences vs {t['hand_fences']} hand-written; "
              f"mutation battery {t['killed']}/{t['mutants']}",
              file=sys.stderr)
        return 0
    print("synth --apps: FAIL -- see report for details", file=sys.stderr)
    return 1


def cmd_synth(ns) -> int:
    """Synthesize fence placements and compare against hand-written."""
    from .campaign import synth_jobs
    from .synth.report import (
        assemble_synth_report,
        format_synth_failures,
        format_synth_report,
    )

    if ns.synth_apps:
        return cmd_synth_apps(ns)
    backend = _single_backend(ns)
    if backend is None:
        return 2
    names = ns.synth_tests.split(",") if ns.synth_tests else None
    modes = ns.synth_modes.split(",") if ns.synth_modes else None
    try:
        jobs = synth_jobs(names=names, modes=modes, smoke=ns.smoke,
                          mem_backend=backend)
    except KeyError as exc:
        print(f"synth: {exc.args[0]}", file=sys.stderr)
        return 2
    result = _run_jobs(jobs, ns, "synth")
    report = assemble_synth_report(result.outcomes, smoke=ns.smoke)
    print(format_synth_report(report))
    for line in format_synth_failures(report):
        print(line, file=sys.stderr)
    write_report(report, ns.synth_out)
    print(f"report written to {ns.synth_out}", file=sys.stderr)
    if report["ok"]:
        t = report["totals"]
        print(f"synth: {len(report['cases'])} placement(s) synthesized, each "
              f"proven sound by both oracles; total stall "
              f"{t['synth_stall']} vs hand-written {t['hand_stall']} cycles",
              file=sys.stderr)
        return 0
    print("synth: FAIL -- see report for details", file=sys.stderr)
    return 1


# ------------------------------------------------------------------------ perf
def cmd_perf(ns) -> int:
    from .analysis.simperf import GATE_WORKLOAD, divergent_cells, run_perf

    backends = _parse_backends(ns)
    if backends is None:
        return 2
    report = run_perf(
        smoke=ns.smoke, min_speedup=ns.min_speedup,
        progress=lambda line: print(line, file=sys.stderr),
        mem_backends=backends, reps=ns.perf_reps,
    )
    write_report(report, ns.perf_out)
    rows = [
        (f"{GATE_WORKLOAD}[{backend}]" if len(backends) > 1 else GATE_WORKLOAD,
         cell["sim_cycles"], cell["dense_wall_s"], cell["event_wall_s"],
         f"{cell['event_speedup']}x" if cell["event_speedup"] is not None else "n/a",
         cell["event_ticks"],
         "yes" if cell["identical"] else "DIVERGED")
        for backend, cell in report["backends"].items()
    ]
    print(format_table(
        ["workload", "sim cycles", "dense s", "event s", "speedup",
         "event ticks", "identical"],
        rows, title="simulator perf -- dense loop vs event engine",
    ))
    print(f"report written to {ns.perf_out}", file=sys.stderr)
    gate = report["gate"]
    if gate["speedup"] is None or gate["speedup"] < gate["min_speedup"]:
        print(f"perf: FAIL -- {GATE_WORKLOAD} event speedup "
              f"{gate['speedup']}x < required {gate['min_speedup']}x",
              file=sys.stderr)
    diverged = divergent_cells(report)
    if diverged:
        print("perf: FAIL -- identical cross-check failed: "
              + ", ".join(diverged), file=sys.stderr)
    return 0 if report["ok"] else 1


def _litmus_mismatch_detail(r: dict) -> str:
    """One mismatch line naming the offending outcome tuples.

    A bare "MISMATCH <name>" is undebuggable; the message carries the
    register order and either the forbidden tuples that were observed
    or the full observed set when an expected outcome never appeared.
    """
    regs = tuple(r["registers"])
    if r["condition_observed"]:
        offending = ", ".join(str(tuple(o)) for o in r["condition_outcomes"])
        return (f"campaign/litmus: {r['name']}: forbidden outcome observed -- "
                f"exists {r['condition']} matched by registers {regs} = {offending}")
    observed = ", ".join(str(tuple(o)) for o in r["outcomes"])
    return (f"campaign/litmus: {r['name']}: expected-observable outcome never "
            f"seen -- exists {r['condition']}; registers {regs} observed only "
            f"{observed}")


# -------------------------------------------------------------------- campaign
def cmd_campaign_resilience(ns) -> int:
    """``campaign --chaos-infra``: the scripted-fault differential proof."""
    from .campaign import run_resilience_differential

    report = run_resilience_differential(
        ns.chaos_infra, parallel=ns.parallel, smoke=ns.smoke,
        progress=lambda line: print(line, file=sys.stderr),
    )
    rows = [
        (name, e["executed"], e["cached"], e["retried"], e["recovered"],
         len(e["downgrades"]), e["quarantined"], e["fingerprint"][:12])
        for name, e in report["phases"].items()
    ]
    print(format_table(
        ["phase", "executed", "cached", "retried", "recovered",
         "downgrades", "quarantined", "fingerprint"],
        rows,
        title=f"campaign resilience differential -- seed {report['seed']}, "
              f"{report['jobs']} jobs, {report['parallel']} workers",
    ))
    repair = report["phases"]["recovery"]["manifest_repair"]
    if repair:
        print(f"manifest repair: {repair['dropped_lines']} torn line(s) "
              f"dropped, {repair['recovered_blobs']} blob(s) re-indexed",
              file=sys.stderr)
    if report["ok"]:
        print("chaos-infra: fault-free, faulted and recovery sweeps converged "
              "to one byte-identical outcome fingerprint")
        return 0
    reason = ("outcome fingerprints diverged" if not report["identical"]
              else "recovery incomplete, or the scripted faults never fired")
    print(f"chaos-infra: FAIL -- {reason}", file=sys.stderr)
    return 1


def cmd_campaign(ns) -> int:
    """Run the selected job sets on the engine, cached and resumable."""
    from .campaign import FIGURES, litmus_jobs

    backend = _single_backend(ns)
    if backend is None:
        return 2
    run_chaos = ns.chaos or not (ns.figures or ns.litmus)
    figures = []
    if ns.figures:
        figures = list(FIGURES) if ns.figures == "all" else ns.figures.split(",")
        for f in figures:
            if f not in FIGURES:
                print(f"campaign: unknown figure {f!r} (have {FIGURES})",
                      file=sys.stderr)
                return 2

    status = 0
    if run_chaos:
        chaos_status = _run_chaos(ns, backend, "campaign/chaos")
        if chaos_status == 2:
            return 2
        status |= chaos_status
    if figures:
        status |= _run_figures(ns, figures, backend, "campaign/figures")

    if ns.litmus:
        jobs = litmus_jobs(model=ns.model, mem_backend=backend)
        result = _run_jobs(jobs, ns, "campaign/litmus")
        rows = []
        mismatches = []
        for outcome in result.outcomes:
            if outcome.ok:
                r = outcome.result
                rows.append((r["name"],
                             "observable" if r["expect_observable"] else "forbidden",
                             "observed" if r["condition_observed"] else "not observed",
                             "ok" if r["ok"] else "MISMATCH"))
                if not r["ok"]:
                    mismatches.append(r)
                    status |= 1
            else:
                rows.append((outcome.job.params["name"], "?", outcome.status, "FAIL"))
                status |= 1
        print(format_table(["test", "expected (rmo)", "simulator", "verdict"],
                           rows, title="litmus corpus"))
        for r in mismatches:
            print(_litmus_mismatch_detail(r), file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fence Scoping (SC'14) reproduction driver",
    )
    parser.add_argument(
        "command",
        choices=["fig12", "fig13", "fig14", "fig15", "fig16", "figbackend",
                 "hwcost", "litmus", "chaos", "campaign", "perf", "verify",
                 "synth"],
    )
    parser.add_argument("args", nargs="*", help="litmus: <file>")
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument("--model", default="rmo", help="litmus: memory model (sc/tso/pso/rmo)")
    parser.add_argument("--mem-backend", default="mesi",
                        help="coherence backend timing model (mesi/sisd) "
                             "[mesi]; verify and perf accept a "
                             "comma-separated list and sweep each")

    engine_group = parser.add_argument_group("campaign engine options")
    engine_group.add_argument("--parallel", type=_parallel_arg, default=None,
                              metavar="N|auto",
                              help="fan cells out over N worker processes "
                                   "(0: run in-process; auto: one per CPU, "
                                   "capped) [auto]")
    engine_group.add_argument("--cache-dir", default="",
                              help=f"result cache directory [{DEFAULT_CACHE_DIR} "
                                   f"when parallel]")
    engine_group.add_argument("--no-cache", action="store_true",
                              help="disable the on-disk result cache")
    engine_group.add_argument("--job-timeout", type=float, default=600.0,
                              help="kill a worker with no progress for this "
                                   "many seconds [600]")
    engine_group.add_argument("--retries", type=int, default=2,
                              help="re-run a job this many times after "
                                   "transient worker-crash/worker-timeout "
                                   "failures (0: fail fast) [2]")
    engine_group.add_argument("--retry-backoff", type=float, default=0.05,
                              metavar="S",
                              help="base retry backoff in seconds (doubles "
                                   "per attempt, jittered) [0.05]")
    engine_group.add_argument("--chaos-infra", type=int, default=None,
                              metavar="SEED",
                              help="campaign: run the infrastructure "
                                   "fault-injection differential (worker "
                                   "kills, stalls, cache corruption) and "
                                   "require byte-identical convergence with "
                                   "the fault-free sweep")

    chaos_group = parser.add_argument_group("chaos/campaign sweep options")
    chaos_group.add_argument("--seeds", type=int, default=None,
                             help=f"seeds per (scenario, algo) cell "
                                  f"[{CHAOS_DEFAULT_SEEDS}; --smoke: {CHAOS_SMOKE_SEEDS}]")
    chaos_group.add_argument("--seed-base", type=int, default=0,
                             help="first seed of the sweep")
    chaos_group.add_argument("--algos", default="",
                             help="comma-separated algorithm subset")
    chaos_group.add_argument("--scenarios", default="",
                             help="comma-separated scenario subset")
    chaos_group.add_argument("--budget", type=int, default=400_000,
                             help="base cycle budget before escalation")
    chaos_group.add_argument("--smoke", action="store_true",
                             help="quick CI sweep (truncated seed list)")

    campaign_group = parser.add_argument_group("campaign job sets")
    campaign_group.add_argument("--chaos", action="store_true",
                                help="campaign: include the chaos sweep (default "
                                     "when no set is selected)")
    campaign_group.add_argument("--figures", default="",
                                help="campaign: comma-separated figures "
                                     "(fig12..fig16, figbackend) or 'all'")
    campaign_group.add_argument("--backend-out",
                                default="backend-compare-report.json",
                                metavar="FILE",
                                help="figbackend: three-way comparison report "
                                     "path [backend-compare-report.json]")
    campaign_group.add_argument("--litmus", action="store_true",
                                help="campaign: include the litmus corpus")

    verify_group = parser.add_argument_group("verify options")
    verify_group.add_argument("--verify-out", default="verify-report.json",
                              metavar="FILE",
                              help="verify: report path [verify-report.json]")
    verify_group.add_argument("--verify-seeds", type=int, default=None,
                              help="verify: offset-grid seeds per case "
                                   "[2; --smoke: 1]")
    verify_group.add_argument("--verify-modes", default="",
                              help="verify: comma-separated fence-mode subset "
                                   "(orig,none,full,sfence-class,sfence-set)")

    synth_group = parser.add_argument_group("synth options")
    synth_group.add_argument("--synth-out", default="synth-report.json",
                             metavar="FILE",
                             help="synth: report path [synth-report.json]")
    synth_group.add_argument("--synth-tests", default="",
                             help="synth: comma-separated corpus subset "
                                  "(SB,MP,WRC,IRIW,barnes-publish,"
                                  "ptc-handoff)")
    synth_group.add_argument("--synth-modes", default="",
                             help="synth: comma-separated mode lattice subset "
                                  "(none,sfence-set,sfence-class,full)")
    synth_group.add_argument("--apps", dest="synth_apps", action="store_true",
                             help="synth: whole-program synthesis over the "
                                  "apps/algorithms corpus instead of the "
                                  "litmus corpus (use --synth-tests to pick "
                                  "apps: chase-lev,harris-list,barnes,ptc,"
                                  "radiosity)")
    synth_group.add_argument("--app-synth-out", default="app-synth-report.json",
                             metavar="FILE",
                             help="synth --apps: report path "
                                  "[app-synth-report.json]")
    synth_group.add_argument("--app-runs", type=int, default=0, metavar="N",
                             help="synth --apps: chaos-oracle seeds per "
                                  "scenario (0 = the corpus default)")

    perf_group = parser.add_argument_group("perf options")
    perf_group.add_argument("--perf-out", "-o", default="BENCH_simperf.json",
                            metavar="FILE",
                            help="perf: report path [BENCH_simperf.json]")
    perf_group.add_argument("--min-speedup", type=float, default=3.0,
                            help="perf: fail if the fig15-hot event-engine "
                                 "speedup over the dense loop is below this "
                                 "[3.0]; --smoke uses the same gate")
    perf_group.add_argument("--perf-reps", type=int, default=3, metavar="N",
                            help="perf: timed repetitions of each engine; "
                                 "the minimum wall is reported [3]")
    ns = parser.parse_args(argv)
    _resolve_parallel(ns)

    if ns.command == "litmus":
        if not ns.args:
            parser.error("litmus requires a file argument")
        backend = _single_backend(ns)
        if backend is None:
            return 2
        return cmd_litmus(ns.args[0], ns.model, mem_backend=backend)
    if ns.command == "chaos":
        return cmd_chaos(ns)
    if ns.command == "campaign":
        if ns.chaos_infra is not None:
            return cmd_campaign_resilience(ns)
        return cmd_campaign(ns)
    if ns.command == "perf":
        return cmd_perf(ns)
    if ns.command == "verify":
        return cmd_verify(ns)
    if ns.command == "synth":
        return cmd_synth(ns)
    if ns.command == "hwcost":
        return cmd_hwcost(ns)
    return cmd_figure(ns.command, ns)


if __name__ == "__main__":
    sys.exit(main())
