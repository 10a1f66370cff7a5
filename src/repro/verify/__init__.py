"""Exhaustive litmus model checking and simulator outcome verification.

Three layers (see ``docs/architecture.md`` §10):

* :mod:`~repro.verify.explorer` -- a stateless exhaustive interleaving
  explorer with sleep-set dynamic partial-order reduction over the
  abstract thread programs of :func:`repro.litmus.dsl.abstract_threads`;
* :mod:`~repro.verify.modes` -- the fence-mode matrix (original / no
  fences / full fence / S-Fence class / S-Fence set) each corpus test
  is verified under;
* :mod:`~repro.verify.runner` -- per-case soundness/coverage scoring
  of the event engine on every coherence backend and the
  ``verify-report.json`` assembly behind ``python -m repro verify``.
  The dense reference loop is checked against the event engine on the
  same grid by tier-1
  (``tests/test_fastpath_equivalence.py::test_verify_grid_equivalence``).
"""

from .explorer import Exploration, explore_allowed_outcomes
from .modes import BACKENDS, FENCE_MODES, apply_fence_mode
from .runner import (
    DEFAULT_SEEDS,
    REPORT_PATH,
    assemble_verify_report,
    engine_key,
    format_verify_failures,
    format_verify_report,
    seed_offsets,
    verify_case,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_SEEDS",
    "Exploration",
    "FENCE_MODES",
    "REPORT_PATH",
    "apply_fence_mode",
    "assemble_verify_report",
    "engine_key",
    "explore_allowed_outcomes",
    "format_verify_failures",
    "format_verify_report",
    "seed_offsets",
    "verify_case",
]
