"""Per-case verification drivers and the verify report.

One *case* is ``(litmus test, fence mode, coherence backend)``.  For
each case the driver:

1. rewrites the test for the fence mode (:mod:`repro.verify.modes`),
2. computes the **complete** allowed-outcome set with the DPOR
   explorer (:mod:`repro.verify.explorer`),
3. cross-checks it against the independently implemented
   :func:`repro.core.semantics.reference_allowed_outcomes`,
4. sweeps the simulator (the event engine) over the schedules
   (:func:`~repro.litmus.dsl.pair_grid`) of seeded timing-offset grids
   and collects every observed outcome, then
5. scores **soundness** (``observed - allowed`` must be empty; anything
   in it is a fence-semantics bug with the offending tuples named) and
   **coverage** (``allowed - observed``: outcomes the simulator never
   reached, so a "forbidden outcome not observed" test would pass
   vacuously if it were also failing to reach the *allowed* ones).

Soundness and reference agreement gate the exit status; coverage is
reported, never gated -- the simulator is deliberately stronger than
the reference model (DESIGN.md), so some allowed outcomes (LB-style
load reorderings, for one) are unreachable by construction.

The dense reference loop is not swept here: tier-1's
``tests/test_fastpath_equivalence.py::test_verify_grid_equivalence``
runs every schedule of this grid on both engines and compares
registers, cycles, per-core counters and final memory, which is
stronger than comparing outcome sets.

Cases run as campaign ``verify`` jobs
(:func:`repro.campaign.jobs.verify_jobs`), so ``python -m repro
verify`` gets parallel fan-out, crash isolation and the on-disk result
cache for free; :func:`assemble_verify_report` folds the job outcomes
back into one machine-readable report (``verify-report.json``).
"""

from __future__ import annotations

import random

from ..analysis.report import format_table
from ..core.semantics import reference_allowed_outcomes
from ..litmus.corpus import CORPUS_OFFSETS
from ..litmus.dsl import (
    abstract_threads,
    litmus_config,
    outcomes_matching,
    pair_grid,
    parse_litmus,
    run_content_key,
    run_litmus,
)
from ..sim.config import MemoryModel
from .explorer import explore_allowed_outcomes
from .modes import BACKENDS, FENCE_MODES, apply_fence_mode


def engine_key(backend: str) -> str:
    """Report column key for one coherence backend's cells.

    ``mesi`` cells keep the plain engine name ``event`` -- the schema
    (and the committed report) predates the backend axis -- while other
    backends report under ``event@<backend>``.
    """
    return "event" if backend == "mesi" else f"event@{backend}"

#: smoke seed-0 grid; the full seed 0 is the corpus grid, and later
#: seeds draw randomised grids of the same size
SMOKE_OFFSETS = [0, 1, 150]

DEFAULT_SEEDS = 2
REPORT_PATH = "verify-report.json"


def seed_offsets(name: str, mode: str, seed: int, smoke: bool = False) -> list[int]:
    """The timing-offset grid for one sweep seed (deterministic).

    Seed 0 is the fixed corpus grid; seed ``n > 0`` draws a fresh grid
    from an rng keyed on (test, mode, seed) -- backend-independent, so
    every backend sweeps identical schedules and their coverage can
    only differ through backend timing.
    """
    base = SMOKE_OFFSETS if smoke else CORPUS_OFFSETS
    if seed == 0:
        return list(base)
    rng = random.Random(f"verify:{name}:{mode}:{seed}")
    return sorted({rng.randint(0, 400) for _ in range(len(base))})


def _case_products(source: str, mode: str):
    """Parse/rewrite/explore products for one (test source, fence mode).

    Everything here is a pure function of the two key components and
    independent of backend, seeds and smoke, so the backend axis of the
    verify matrix -- and every sweep seed -- shares one DPOR exploration
    per (test, mode).  Memoised per process via the campaign warm slot:
    persistent pool workers walking the matrix pay the exploration once,
    while one-shot processes behave exactly as before.
    """
    from ..campaign.jobs import warm_slot

    memo = warm_slot("verify-products")
    entry = memo.get((source, mode))
    if entry is None:
        test = parse_litmus(source)
        variant = apply_fence_mode(test, mode)
        threads = abstract_threads(variant)
        init = dict(variant.init)
        exploration = explore_allowed_outcomes(threads, init)
        reference = reference_allowed_outcomes(threads, init)
        entry = memo[(source, mode)] = (test, variant, exploration, reference)
    return entry


def case_run_key(params: dict) -> tuple:
    """The run-memo key one verify cell's sweeps simulate under.

    :func:`~repro.litmus.dsl.run_content_key` of the cell's fence-mode
    variant on the cell's backend.  Cells with equal keys run
    the same program (SB has no fences, so its ``orig`` and ``none``
    cells are one program), and every schedule their sweeps have in
    common is simulated once per process.
    """
    variant = apply_fence_mode(parse_litmus(params["source"]), params["mode"])
    config = litmus_config(
        variant, MemoryModel.RMO, mem_backend=params.get("backend", "mesi"))
    return run_content_key(variant, config)


def verify_case(params: dict) -> dict:
    """Run one (test, mode, backend) case; returns the JSON-safe payload."""
    test, variant, exploration, reference = _case_products(
        params["source"], params["mode"])
    allowed = exploration.outcomes

    backend = params.get("backend", "mesi")
    smoke = bool(params.get("smoke", False))
    observed: set[tuple] = set()
    registers: list[str] = exploration.registers
    # the offset grids stay keyed on (test, mode, seed) only: every
    # backend sweeps identical schedules, so coverage differences can
    # only come from backend timing, never from a different sample
    for seed in range(params.get("seeds", DEFAULT_SEEDS)):
        offsets = seed_offsets(test.name, params["mode"], seed, smoke)
        run = run_litmus(variant, MemoryModel.RMO, pair_grid(variant, offsets),
                         mem_backend=backend)
        observed |= run.outcomes
        registers = run.register_names
    # one shared code path names the condition-matching tuples (the
    # same one litmus mismatch messages and synthesis counterexample
    # logs use), applied once to the union instead of per sweep seed
    condition_hits = outcomes_matching(variant.condition, registers, observed)

    violations = sorted(observed - allowed)
    unreached = sorted(allowed - observed)
    return {
        "name": test.name,
        "mode": params["mode"],
        "backend": backend,
        "registers": registers,
        "allowed": sorted(list(o) for o in allowed),
        "observed": sorted(list(o) for o in observed),
        "violations": [list(o) for o in violations],
        "unreached": [list(o) for o in unreached],
        "coverage": [len(allowed & observed), len(allowed)],
        "sound": not violations,
        "reference_match": allowed == reference,
        "reference_only": sorted(list(o) for o in reference - allowed),
        "explorer_only": sorted(list(o) for o in allowed - reference),
        "interleavings": exploration.interleavings,
        "transitions": exploration.transitions,
        "condition": variant.condition,
        "condition_observed": bool(condition_hits),
        "condition_outcomes": sorted(list(o) for o in condition_hits),
    }


# ------------------------------------------------------------------ the report
def assemble_verify_report(outcomes, seeds: int, smoke: bool) -> dict:
    """Fold campaign job outcomes into the verify report.

    ``outcomes`` is the submission-ordered
    :class:`~repro.campaign.engine.JobOutcome` list of a ``verify``
    campaign.  The report is ``ok`` iff every case ran, was sound, and
    the explorer agreed with the reference enumeration.
    """
    tests: dict[str, dict] = {}
    engine_failures = []
    soundness_violations = []
    reference_mismatches = []
    backends = [b for b in BACKENDS
                if any(o.job.params.get("backend", "mesi") == b
                       for o in outcomes)]
    modes = [m for m in FENCE_MODES
             if any(o.job.params["mode"] == m for o in outcomes)]
    for outcome in outcomes:
        p = outcome.job.params
        cell_key = engine_key(p.get("backend", "mesi"))
        if not outcome.ok:
            engine_failures.append({
                "name": p["name"], "mode": p["mode"], "engine": cell_key,
                "status": outcome.status, "error": outcome.error,
            })
            continue
        r = outcome.result
        mode_slot = (
            tests.setdefault(r["name"], {"modes": {}})["modes"]
            .setdefault(r["mode"], {
                "registers": r["registers"],
                "allowed": r["allowed"],
                "interleavings": r["interleavings"],
                "transitions": r["transitions"],
                "engines": {},
            })
        )
        mode_slot["engines"][cell_key] = {
            "observed": r["observed"],
            "unreached": r["unreached"],
            "coverage": r["coverage"],
            "sound": r["sound"],
            "violations": r["violations"],
            "condition_observed": r["condition_observed"],
            "condition_outcomes": r["condition_outcomes"],
        }
        if not r["sound"]:
            soundness_violations.append({
                "name": r["name"], "mode": r["mode"], "engine": cell_key,
                "registers": r["registers"], "violations": r["violations"],
            })
        if not r["reference_match"]:
            reference_mismatches.append({
                "name": r["name"], "mode": r["mode"],
                "explorer_only": r["explorer_only"],
                "reference_only": r["reference_only"],
            })
    return {
        "seeds": seeds,
        "smoke": smoke,
        "engines": [engine_key(b) for b in backends],
        "backends": backends,
        "modes": modes,
        "tests": tests,
        "engine_failures": engine_failures,
        "soundness_violations": soundness_violations,
        "reference_mismatches": reference_mismatches,
        "ok": not (engine_failures or soundness_violations
                   or reference_mismatches),
    }


def format_verify_report(report: dict) -> str:
    """The per-test coverage tables, one row per (test, mode)."""
    rows = []
    for name, entry in report["tests"].items():
        for mode, slot in entry["modes"].items():
            row = [name, mode, len(slot["allowed"]), slot["interleavings"]]
            for engine in report["engines"]:
                eng = slot["engines"].get(engine)
                if eng is None:
                    row.append("FAILED")
                    continue
                covered, total = eng["coverage"]
                cell = f"{covered}/{total}"
                if not eng["sound"]:
                    cell += " UNSOUND"
                row.append(cell)
            rows.append(tuple(row))
    title = "litmus verify -- exhaustive allowed sets vs simulator coverage"
    if report["smoke"]:
        title += " (smoke)"
    return format_table(
        ["test", "fence mode", "allowed", "interleavings"]
        + [f"{e} coverage" for e in report["engines"]],
        rows, title=title,
    )


def format_verify_failures(report: dict) -> list[str]:
    """Human-readable lines for everything that gates the exit status."""
    lines = []
    for v in report["soundness_violations"]:
        regs = tuple(v["registers"])
        tuples = ", ".join(str(tuple(o)) for o in v["violations"])
        lines.append(
            f"UNSOUND {v['name']}[{v['mode']}] on {v['engine']}: "
            f"simulator reached outcome(s) outside the exhaustive allowed "
            f"set -- registers {regs}, offending outcome(s): {tuples}"
        )
    for m in report["reference_mismatches"]:
        lines.append(
            f"REFERENCE MISMATCH {m['name']}[{m['mode']}]: "
            f"explorer-only {m['explorer_only']}, "
            f"reference-only {m['reference_only']}"
        )
    for f in report["engine_failures"]:
        lines.append(
            f"ENGINE FAILURE {f['name']}[{f['mode']}] on {f['engine']}: "
            f"{f['status']}\n{f['error']}"
        )
    return lines
