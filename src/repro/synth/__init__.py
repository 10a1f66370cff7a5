"""Automatic scoped-fence synthesis over the litmus placement lattice.

Prior fence-insertion work minimises fence *count* -- Alglave et al.
("Don't sit on the fence") via whole-program static analysis, Joshi &
Kroening via reorder-bounded model checking.  This package minimises
simulator-measured *stall cost* instead, which is the quantity the
paper's scoped fences actually trade on: an ``S-FENCE[set,...]`` that
skips a cold private store buys real cycles that a fence census can't
see.

Given a litmus test (or a litmus-DSL kernel distilled from an ``apps/``
algorithm) with its fences stripped, the synthesizer

1. enumerates the canonical insertion *sites* (after every non-final
   memory operation per thread -- the same points
   :mod:`repro.verify.modes` uses, :mod:`~repro.synth.sites`),
2. probes a per-(site, mode) stall estimate on the event-driven
   fast-path engine (:mod:`~repro.synth.cost`),
3. walks the placement x mode lattice (``none`` / ``full`` /
   ``sfence-class`` / ``sfence-set`` per site) cheapest-estimate-first,
   pruning assignments dominated by a known-unsound weaker one, and
4. accepts a candidate only when **both** independent oracles -- the
   DPOR explorer (:mod:`repro.verify.explorer`) and the axiomatic
   enumerator (:func:`repro.core.semantics.reference_allowed_outcomes`)
   -- prove its allowed-outcome set excludes every bad outcome, then
   descends to a local cost minimum so no one-step-weakened neighbour
   is both sound and strictly cheaper (:mod:`~repro.synth.search`).

The synthesis corpus (:mod:`~repro.synth.corpus`) pairs each stripped
program with its hand-written placement; :mod:`~repro.synth.report`
runs the comparison as campaign ``synth`` jobs and emits
``synth-report.json`` plus the synthesized-vs-hand-written table of
``python -m repro synth``.

:mod:`~repro.synth.programs` scales the same recipe to whole programs:
insertion sites and the reduced mode lattice come from the delay-set
analysis of a concrete recording of each ``apps/``/``algorithms/``
workload, distillable cycle signatures are proven by the DPOR +
axiomatic kernel oracles, and full-scale apps are policed by the
chaos-campaign oracle (seeded fault schedules + the delay-pair runtime
checker, with rejection-sampling confidence calibrated against the
mutation battery); ``python -m repro synth --apps`` emits
``app-synth-report.json``.
"""

from .corpus import SYNTH_CORPUS, synth_entry
from .programs import APP_CORPUS, app_entry, app_names, run_app_synth_case
from .report import (
    APP_REPORT_PATH,
    REPORT_PATH,
    assemble_app_synth_report,
    assemble_synth_report,
    format_app_synth_failures,
    format_app_synth_report,
    format_synth_failures,
    format_synth_report,
    run_synth_case,
)
from .search import SynthesisError, SynthesisResult, synthesize
from .sites import MODES, FenceSite, apply_placement, fence_sites

__all__ = [
    "APP_CORPUS",
    "APP_REPORT_PATH",
    "MODES",
    "REPORT_PATH",
    "FenceSite",
    "SYNTH_CORPUS",
    "SynthesisError",
    "SynthesisResult",
    "app_entry",
    "app_names",
    "apply_placement",
    "assemble_app_synth_report",
    "assemble_synth_report",
    "fence_sites",
    "format_app_synth_failures",
    "format_app_synth_report",
    "format_synth_failures",
    "format_synth_report",
    "run_app_synth_case",
    "run_synth_case",
    "synth_entry",
    "synthesize",
]
