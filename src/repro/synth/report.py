"""Synthesized-vs-hand-written comparison: job driver and report.

:func:`run_synth_case` is the campaign ``synth`` job runner: it
synthesizes a placement for one corpus entry, evaluates the entry's
hand-written placement on the same simulator grid against the same
fence-free baseline, re-checks the hand placement against both
oracles, and returns one JSON-safe payload.  A case is ``ok`` when the
hand-written placement is itself sound and the synthesized one costs
no more simulated stall -- the acceptance bar the golden tests pin.

:func:`assemble_synth_report` folds campaign job outcomes into
``synth-report.json`` (deterministic: pure function of the job
payloads, so a warm cache re-run writes byte-identical output), and
the two ``format_*`` helpers render the CLI table and the gating
failure lines.
"""

from __future__ import annotations

from ..analysis.report import format_table
from ..core.semantics import reference_allowed_outcomes
from ..litmus.dsl import LitmusTest, abstract_threads, parse_litmus, stmt_kind
from ..verify.explorer import explore_allowed_outcomes
from .corpus import synth_entry
from .cost import PROBE_OFFSETS, SMOKE_PROBE_OFFSETS, placement_cycles
from .search import SynthesisResult, synthesize
from .sites import MODE_STMT, MODES, effective_flags, strip_test

REPORT_PATH = "synth-report.json"

#: DSL fence statement -> lattice mode (hand-written census)
_STMT_MODE = {stmt: mode for mode, stmt in MODE_STMT.items()}


def _mode_mix(modes_used: list[str]) -> dict[str, int]:
    """Fence count per mode, lattice-ordered, ``none`` elided."""
    mix = {}
    for mode in MODES:
        n = sum(1 for m in modes_used if m == mode)
        if n and mode != "none":
            mix[mode] = n
    # hand-written sources may use fences outside the lattice
    # (masked fence.ss/fence.ll); keep them visible, not dropped
    for m in modes_used:
        if m not in MODES:
            mix[m] = mix.get(m, 0) + 1
    return mix


def _hand_fences(hand: LitmusTest) -> list[dict]:
    """Every fence of the hand-written source, with its anchor.

    ``after`` is the statement the fence follows (``"^"`` for a fence
    leading its thread) -- same shape as synthesized placement labels,
    so the two columns of the report diff naturally.
    """
    fences = []
    for t, stmts in enumerate(hand.threads):
        prev = "^"
        for stmt in stmts:
            if stmt_kind(stmt) == "fence":
                fences.append({
                    "thread": t,
                    "after": f"T{t}:{prev}",
                    "mode": _STMT_MODE.get(stmt, stmt),
                })
            else:
                prev = stmt
    return fences


def evaluate_handwritten(
    hand: LitmusTest,
    forbidden: list[tuple],
    offsets: list[int],
    on_progress=None,
    mem_backend: str = "mesi",
) -> dict:
    """Measure and oracle-check one hand-written placement.

    Runs under the same effective flag set and offset grid as the
    synthesis lattice, with stall measured against the same stripped
    baseline, so the hand and synthesized columns are comparable
    cycle-for-cycle.
    """
    normalized = LitmusTest(hand.name, [list(s) for s in hand.threads],
                            dict(hand.init), effective_flags(hand),
                            hand.condition)
    baseline = strip_test(normalized)
    baseline_cycles = placement_cycles(baseline, offsets, mem_backend)
    cycles = placement_cycles(normalized, offsets, mem_backend)
    if on_progress is not None:
        on_progress()

    threads = abstract_threads(normalized)
    init = dict(normalized.init)
    exploration = explore_allowed_outcomes(threads, init)
    reference = reference_allowed_outcomes(threads, init)
    bad = {tuple(o) for o in forbidden}
    admits = sorted(
        {tuple(o) for o in exploration.outcomes | reference} & bad, key=str)
    fences = _hand_fences(normalized)
    return {
        "fences": fences,
        "fence_count": len(fences),
        "mode_mix": _mode_mix([f["mode"] for f in fences]),
        "cycles": cycles,
        "stall_cycles": cycles - baseline_cycles,
        "sound": not admits,
        "oracles_agree": exploration.outcomes == reference,
        "admits": [list(o) for o in admits],
    }


def _result_payload(result: SynthesisResult) -> dict:
    return {
        "placement": result.placement(),
        "assignment": list(result.assignment),
        "fence_count": result.fence_count,
        "mode_mix": result.mode_mix,
        "cycles": result.cycles,
        "stall_cycles": result.stall_cycles,
        "sound": True,  # synthesize() only returns two-oracle-proven placements
        "counterexamples": result.counterexamples,
        "search": {
            "candidates_total": result.candidates_total,
            "candidates_checked": result.candidates_checked,
            "candidates_pruned": result.candidates_pruned,
            "measured": result.measured,
            "explorations": result.explorations,
            "descent_steps": result.descent_steps,
        },
        "estimates": [
            [i, mode, stall]
            for (i, mode), stall in sorted(result.estimates.items())
            if mode != "none"
        ],
    }


def run_synth_case(params: dict, on_progress=None) -> dict:
    """Run one ``synth`` job: synthesize, then compare hand-written."""
    entry = synth_entry(params["name"])
    modes = tuple(params.get("modes") or MODES)
    offsets = list(params.get("offsets") or (
        SMOKE_PROBE_OFFSETS if params.get("smoke") else PROBE_OFFSETS))

    test = parse_litmus(entry.source)
    mem_backend = params.get("mem_backend", "mesi")
    result = synthesize(test, modes=modes, offsets=offsets,
                        on_progress=on_progress, mem_backend=mem_backend)
    hand = evaluate_handwritten(
        parse_litmus(entry.handwritten), result.forbidden, offsets,
        on_progress=on_progress, mem_backend=mem_backend,
    )
    synthesized = _result_payload(result)
    return {
        "name": entry.name,
        "note": entry.note,
        "modes": list(modes),
        "offsets": offsets,
        "registers": list(result.registers),
        "sites": [site.label for site in result.sites],
        "forbidden": [list(o) for o in result.forbidden],
        "baseline_cycles": result.baseline_cycles,
        "all_full_stall": result.all_full_stall,
        "synthesized": synthesized,
        "handwritten": hand,
        "stall_savings": hand["stall_cycles"] - result.stall_cycles,
        "fence_savings": hand["fence_count"] - result.fence_count,
        # the committed acceptance bar: the hand placement must itself
        # be sound, and synthesis must never cost more stall than it
        "ok": hand["sound"] and result.stall_cycles <= hand["stall_cycles"],
    }


# ------------------------------------------------------------------ the report
def assemble_synth_report(outcomes, smoke: bool = False) -> dict:
    """Fold campaign ``synth`` job outcomes into the synth report.

    ``outcomes`` is the submission-ordered
    :class:`~repro.campaign.engine.JobOutcome` list.  The report is
    ``ok`` iff every job ran, every hand-written placement proved
    sound, and no synthesized placement cost more stall than its
    hand-written counterpart.
    """
    cases: dict[str, dict] = {}
    engine_failures = []
    regressions = []
    for outcome in outcomes:
        p = outcome.job.params
        if not outcome.ok:
            engine_failures.append({
                "name": p["name"], "status": outcome.status,
                "error": outcome.error,
            })
            continue
        r = outcome.result
        cases[r["name"]] = r
        if not r["ok"]:
            regressions.append({
                "name": r["name"],
                "hand_sound": r["handwritten"]["sound"],
                "hand_admits": r["handwritten"]["admits"],
                "synth_stall": r["synthesized"]["stall_cycles"],
                "hand_stall": r["handwritten"]["stall_cycles"],
            })
    totals = {
        "synth_fences": sum(
            c["synthesized"]["fence_count"] for c in cases.values()),
        "hand_fences": sum(
            c["handwritten"]["fence_count"] for c in cases.values()),
        "synth_stall": sum(
            c["synthesized"]["stall_cycles"] for c in cases.values()),
        "hand_stall": sum(
            c["handwritten"]["stall_cycles"] for c in cases.values()),
        "explorations": sum(
            c["synthesized"]["search"]["explorations"] for c in cases.values()),
        "measured": sum(
            c["synthesized"]["search"]["measured"] for c in cases.values()),
    }
    return {
        "smoke": smoke,
        "cases": cases,
        "totals": totals,
        "engine_failures": engine_failures,
        "regressions": regressions,
        "ok": not (engine_failures or regressions),
    }


def _mix_cell(mix: dict[str, int]) -> str:
    return "+".join(f"{mode}:{n}" for mode, n in mix.items()) or "-"


def format_synth_report(report: dict) -> str:
    """The synthesized-vs-hand-written table, one row per corpus entry."""
    rows = []
    for name, c in report["cases"].items():
        s, h = c["synthesized"], c["handwritten"]
        rows.append((
            name,
            len(c["sites"]),
            f"{h['fence_count']} -> {s['fence_count']}",
            f"{_mix_cell(h['mode_mix'])} -> {_mix_cell(s['mode_mix'])}",
            f"{h['stall_cycles']} -> {s['stall_cycles']}",
            c["all_full_stall"],
            f"{s['search']['candidates_checked']}"
            f"/{s['search']['candidates_pruned']}"
            f"/{s['search']['candidates_total']}",
        ))
    t = report["totals"]
    rows.append((
        "TOTAL", "",
        f"{t['hand_fences']} -> {t['synth_fences']}", "",
        f"{t['hand_stall']} -> {t['synth_stall']}", "",
        "",
    ))
    title = "fence synthesis -- hand-written vs synthesized placements"
    if report["smoke"]:
        title += " (smoke)"
    return format_table(
        ["test", "sites", "fences h->s", "mode mix h->s",
         "stall cycles h->s", "all-full stall", "cands chk/pruned/total"],
        rows, title=title,
    )


def format_synth_failures(report: dict) -> list[str]:
    """Human-readable lines for everything that gates the exit status."""
    lines = []
    for r in report["regressions"]:
        if not r["hand_sound"]:
            tuples = ", ".join(str(tuple(o)) for o in r["hand_admits"])
            lines.append(
                f"HAND-WRITTEN UNSOUND {r['name']}: the corpus hand "
                f"placement admits forbidden outcome(s): {tuples}"
            )
        else:
            lines.append(
                f"COST REGRESSION {r['name']}: synthesized placement stalls "
                f"{r['synth_stall']} cycles vs hand-written "
                f"{r['hand_stall']} -- synthesis must never cost more"
            )
    for f in report["engine_failures"]:
        lines.append(
            f"ENGINE FAILURE synth:{f['name']}: {f['status']}\n{f['error']}"
        )
    return lines


# ----------------------------------------------------- whole-program report
APP_REPORT_PATH = "app-synth-report.json"


def assemble_app_synth_report(outcomes, smoke: bool = False) -> dict:
    """Fold campaign ``app-synth`` job outcomes into the apps report.

    Deterministic for the same reason as :func:`assemble_synth_report`;
    the report is ``ok`` iff every job ran, every placement was proven
    sound by its designated oracle, no app synthesized more fences than
    its hand-written placement, and the mutation battery killed every
    seeded mutant.
    """
    cases: dict[str, dict] = {}
    engine_failures = []
    rejections = []
    for outcome in outcomes:
        p = outcome.job.params
        if not outcome.ok:
            engine_failures.append({
                "name": p["name"], "status": outcome.status,
                "error": outcome.error,
            })
            continue
        r = outcome.result
        cases[r["app"]] = r
        if not r["ok"]:
            rejections.append({
                "name": r["app"],
                "oracle": r["oracle"],
                "sound": r["soundness"]["sound"],
                "hand_failures": r["soundness"]["hand"]["failures"],
                "synth_failures": r["soundness"]["synthesized"]["failures"],
                "fences": r["fences"],
                "survivors": sorted(
                    key for key, m in r["mutation"]["battery"].items()
                    if not m["killed"]),
            })
    totals = {
        "hand_fences": sum(c["fences"]["hand"] for c in cases.values()),
        "synth_fences": sum(
            c["fences"]["synthesized"] for c in cases.values()),
        "mutants": sum(c["mutation"]["mutants"] for c in cases.values()),
        "killed": sum(c["mutation"]["killed"] for c in cases.values()),
        "oracle_runs": sum(
            c["soundness"]["hand"]["runs"]
            + c["soundness"]["synthesized"]["runs"]
            for c in cases.values()),
    }
    return {
        "smoke": smoke,
        "cases": cases,
        "totals": totals,
        "engine_failures": engine_failures,
        "rejections": rejections,
        "ok": not (engine_failures or rejections),
    }


def _stall_cell(cost: dict | None) -> str:
    if cost is None:
        return "-"
    hand = cost["hand_stall"] if cost["hand_stall"] is not None else "?"
    synth = cost["synth_stall"] if cost["synth_stall"] is not None else "?"
    return f"{hand} -> {synth}"


def format_app_synth_report(report: dict) -> str:
    """One row per app: oracle, fences, modes, stall, battery, confidence."""
    rows = []
    for name, c in report["cases"].items():
        synth_mix = _mode_mix(
            [m for m in c["synthesized"].values() if m != "none"])
        rows.append((
            name,
            c["oracle"],
            f"{c['fences']['hand']} -> {c['fences']['synthesized']}",
            _mix_cell(synth_mix),
            _stall_cell(c["cost"]),
            f"{c['mutation']['killed']}/{c['mutation']['mutants']}",
            f"{c['soundness']['confidence']:.4f}",
        ))
    t = report["totals"]
    rows.append((
        "TOTAL", "",
        f"{t['hand_fences']} -> {t['synth_fences']}", "", "",
        f"{t['killed']}/{t['mutants']}", "",
    ))
    title = "whole-program fence synthesis -- apps and algorithms"
    if report["smoke"]:
        title += " (smoke)"
    return format_table(
        ["app", "oracle", "fences h->s", "synth modes", "stall h->s",
         "mutants killed", "confidence"],
        rows, title=title,
    )


def format_app_synth_failures(report: dict) -> list[str]:
    """Gating failure lines, counterexamples named run by run."""
    lines = []
    for r in report["rejections"]:
        for f in r["hand_failures"]:
            lines.append(
                f"HAND-WRITTEN REJECTED {r['name']}: chaos oracle "
                f"counterexample scenario={f['scenario']} seed={f['seed']} "
                f"status={f['status']}: {f['detail']}"
            )
        for f in r["synth_failures"]:
            lines.append(
                f"SYNTHESIS REJECTED {r['name']}: chaos oracle "
                f"counterexample scenario={f['scenario']} seed={f['seed']} "
                f"status={f['status']}: {f['detail']}"
            )
        if r["survivors"]:
            lines.append(
                f"MUTATION SURVIVORS {r['name']}: the battery failed to "
                f"kill {', '.join(r['survivors'])} -- the oracle cannot "
                f"see the fences it is policing"
            )
        if r["fences"]["synthesized"] > r["fences"]["hand"]:
            lines.append(
                f"FENCE REGRESSION {r['name']}: synthesized "
                f"{r['fences']['synthesized']} fences vs hand-written "
                f"{r['fences']['hand']}"
            )
    for f in report["engine_failures"]:
        lines.append(
            f"ENGINE FAILURE app-synth:{f['name']}: {f['status']}\n{f['error']}"
        )
    return lines
