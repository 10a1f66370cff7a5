"""Chaos harness: deterministic fault injection + invariant checking.

The S-Fence design is safe because its degraded paths (mapping-table
entry sharing, the overflow counter, FSS' restore after misprediction)
always preserve *strictly more* ordering than required.  This package
adversarially exercises exactly those paths:

* :mod:`repro.chaos.faults` -- seeded, deterministic fault injectors
  (memory-latency spikes and jitter, forced branch mispredictions,
  artificial scope-capacity pressure, store-drain throttling);
* :mod:`repro.chaos.invariants` -- an ordering-invariant checker that
  consumes the :class:`~repro.sim.trace.OrderEvent` stream of a
  perturbed run and independently re-derives the S-Fence guarantees;
* :mod:`repro.chaos.supervisor` -- a supervised runner with a
  cycle-budget escalation ladder and deadlock/livelock/budget failure
  classification, reusing :mod:`repro.sim.diagnostics` snapshots;
* :mod:`repro.chaos.runner` -- the scenario presets and the case
  runner whose cases ``python -m repro chaos`` sweeps as campaign jobs.
"""

from .faults import ChaosEngine, FaultPlan
from .invariants import InvariantViolation, OrderingChecker, OrderingViolationError
from .supervisor import Attempt, ChaosFailure, FailureKind, SupervisedOutcome, run_supervised

__all__ = [
    "Attempt",
    "ChaosEngine",
    "ChaosFailure",
    "FailureKind",
    "FaultPlan",
    "InvariantViolation",
    "OrderingChecker",
    "OrderingViolationError",
    "SupervisedOutcome",
    "run_supervised",
]
