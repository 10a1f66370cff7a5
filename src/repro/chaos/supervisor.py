"""Supervised runner: cycle-budget escalation + failure classification.

Chaos runs burn more cycles than clean runs (latency spikes, forced
squashes, drain throttling), so a fixed ``max_cycles`` would misreport
slow-but-healthy runs as failures.  :func:`run_supervised` wraps
``Simulator.run`` in an escalation ladder: start from a base cycle
budget and double it (up to a cap) whenever the run hits
:class:`~repro.sim.simulator.CycleLimitError`.  Each attempt rebuilds
the simulator from scratch via the caller's factory, so attempts are
independent deterministic replays, not resumptions.

Failure classification:

* **deadlock** -- the simulator proved no core can ever progress
  (:class:`DeadlockError`).  Deterministic; never retried.
* **livelock** -- two consecutive attempts exhausted different budgets
  and ended with the *same* progress (per core: ops dispatched, ROB and
  store-buffer depth), although the longer one ran past every pending
  wake-up the shorter one ended on: more cycles bought zero forward
  progress, so no budget will finish the run.  A core still waiting out
  a stall longer than the budget gap (a long compute, a slow memory
  access) is not livelocked, so the ladder escalates instead.
* **budget** -- the escalation ladder ran out while the run was still
  progressing; likely just slow, rerun with a bigger base.
* **guest-crash** -- the guest program itself raised (e.g. a stolen
  garbage value indexing a table after a fence-broken publish).
  Deterministic; for the synthesizer's mutation battery this is prime
  kill evidence, not a harness fault.

Every classified failure carries the last run's
:class:`~repro.sim.diagnostics.SimDiagnostic` plus the per-attempt
history, so ``python -m repro chaos`` can print a full post-mortem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..sim.diagnostics import SimDiagnostic
from ..sim.simulator import CycleLimitError, DeadlockError, SimResult


class FailureKind(enum.Enum):
    DEADLOCK = "deadlock"
    LIVELOCK = "livelock"
    BUDGET = "budget"
    GUEST = "guest-crash"


@dataclass(frozen=True)
class Attempt:
    """One rung of the escalation ladder."""

    budget: int
    outcome: str          # "ok" / "deadlock" / "cycle-limit"
    cycles: int           # cycles consumed (== budget unless "ok")
    instructions: int     # total ops dispatched across cores


class ChaosFailure(RuntimeError):
    """A supervised run that could not be completed."""

    def __init__(
        self,
        kind: FailureKind,
        message: str,
        diagnostic: SimDiagnostic | None = None,
        attempts: tuple[Attempt, ...] = (),
    ) -> None:
        ladder = " -> ".join(
            f"{a.budget}cy:{a.outcome}(insns={a.instructions})" for a in attempts
        )
        full = f"[{kind.value}] {message}"
        if ladder:
            full += f"\n  attempts: {ladder}"
        if diagnostic is not None:
            full += f"\n{diagnostic.render()}"
        super().__init__(full)
        self.kind = kind
        self.diagnostic = diagnostic
        self.attempts = attempts


@dataclass
class SupervisedOutcome:
    """Result of :func:`run_supervised` (success or classified failure)."""

    result: SimResult | None = None
    attempts: list[Attempt] = field(default_factory=list)
    failure: ChaosFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_supervised(
    build,
    base_budget: int = 200_000,
    escalations: int = 3,
    factor: int = 2,
    raise_on_failure: bool = True,
    on_attempt=None,
) -> SupervisedOutcome:
    """Run ``build()`` -> ``Simulator`` under the escalation ladder.

    ``build`` must return a *fresh, fully wired* simulator each call
    (fault hooks and monitors attached); it is invoked once per attempt
    so every rung replays the identical deterministic run under a larger
    budget.

    ``on_attempt(attempt)`` is called after every rung (success or
    not).  Campaign workers use it as a liveness heartbeat: a case
    climbing the budget ladder keeps signalling progress, so the
    engine's wall-clock watchdog only fires on a genuinely wedged
    worker, never on a legitimately slow escalation.
    """
    outcome = SupervisedOutcome()
    attempts = outcome.attempts

    def record(attempt: Attempt) -> None:
        attempts.append(attempt)
        if on_attempt is not None:
            on_attempt(attempt)

    budget = base_budget
    prev_progress: tuple | None = None
    prev_wake_up: int | None = None
    last_diag: SimDiagnostic | None = None

    for rung in range(escalations + 1):
        sim = build()
        try:
            result = sim.run(max_cycles=budget)
        except DeadlockError as exc:
            diag = exc.diagnostic
            insns = diag.total_instructions if diag is not None else -1
            record(Attempt(budget, "deadlock", diag.cycle if diag else -1, insns))
            outcome.failure = ChaosFailure(
                FailureKind.DEADLOCK,
                f"deadlock after {insns} instructions",
                diagnostic=diag,
                attempts=tuple(attempts),
            )
            break
        except CycleLimitError as exc:
            diag = exc.diagnostic
            last_diag = diag
            insns = diag.total_instructions if diag is not None else -1
            record(Attempt(budget, "cycle-limit", budget, insns))
            progress = diag.progress if diag is not None else None
            waiting = prev_wake_up is not None and prev_wake_up >= budget
            if progress is not None and progress == prev_progress and not waiting:
                outcome.failure = ChaosFailure(
                    FailureKind.LIVELOCK,
                    f"no forward progress between budgets "
                    f"{attempts[-2].budget} and {budget} cycles "
                    f"(stuck at {insns} instructions)",
                    diagnostic=diag,
                    attempts=tuple(attempts),
                )
                break
            prev_progress = progress
            prev_wake_up = diag.last_wake_up if diag is not None else None
            budget *= factor
        except Exception as exc:  # guest code raised mid-run
            record(Attempt(budget, "guest-crash", -1, -1))
            outcome.failure = ChaosFailure(
                FailureKind.GUEST,
                f"guest program raised {type(exc).__name__}: {exc}",
                attempts=tuple(attempts),
            )
            break
        else:
            record(Attempt(
                budget, "ok", result.cycles,
                sum(c.instructions for c in result.stats.cores),
            ))
            outcome.result = result
            break
    else:
        outcome.failure = ChaosFailure(
            FailureKind.BUDGET,
            f"still running after {escalations + 1} attempts "
            f"(final budget {attempts[-1].budget} cycles); the run kept "
            f"making progress, so this is likely slowness, not a hang",
            diagnostic=last_diag,
            attempts=tuple(attempts),
        )

    if outcome.failure is not None and raise_on_failure:
        raise outcome.failure
    return outcome
