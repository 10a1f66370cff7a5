"""Exhaustive litmus model checking and simulator outcome verification.

Three layers (see ``docs/architecture.md`` §10):

* :mod:`~repro.verify.explorer` -- a stateless exhaustive interleaving
  explorer with sleep-set dynamic partial-order reduction over the
  abstract thread programs of :func:`repro.litmus.dsl.abstract_threads`;
* :mod:`~repro.verify.modes` -- the fence-mode matrix (original / no
  fences / full fence / S-Fence class / S-Fence set) each corpus test
  is verified under;
* :mod:`~repro.verify.runner` -- per-case soundness/coverage scoring
  against both simulator engines and the ``verify-report.json``
  assembly behind ``python -m repro verify``.
"""

from .explorer import Exploration, explore_allowed_outcomes
from .modes import BACKENDS, FENCE_MODES, apply_fence_mode
from .runner import (
    DEFAULT_SEEDS,
    ENGINES,
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
    "ENGINES",
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
