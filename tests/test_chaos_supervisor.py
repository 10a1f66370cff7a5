"""Supervised runner: escalation ladder + failure classification."""

import pytest

from repro.chaos.supervisor import (
    ChaosFailure,
    FailureKind,
    run_supervised,
)
from repro.isa.instructions import Compute
from repro.isa.program import ops_program
from repro.sim.config import SimConfig
from repro.sim.diagnostics import SimDiagnostic, capture
from repro.sim.simulator import CycleLimitError, DeadlockError, Simulator


def make_sim(n_ops=4, op_cycles=50):
    return Simulator(SimConfig(n_cores=1),
                     ops_program([[Compute(op_cycles)] * n_ops]))


def _diag(instructions: int, reason: str = "cycle-limit") -> SimDiagnostic:
    sim = make_sim(n_ops=0)
    diag = capture(sim.cores, 10, reason)
    diag.cores[0].instructions = instructions
    diag.cores[0].finished = False
    return diag


# ------------------------------------------------------------------ success
def test_first_attempt_success():
    outcome = run_supervised(make_sim, base_budget=100_000)
    assert outcome.ok
    assert outcome.result.cycles >= 200
    assert [a.outcome for a in outcome.attempts] == ["ok"]
    assert outcome.attempts[0].instructions == 4


def test_escalation_until_success():
    """Budget 150 is too small for 4x50-cycle ops; doubling twice fits."""
    outcome = run_supervised(make_sim, base_budget=150, escalations=3)
    assert outcome.ok
    assert len(outcome.attempts) > 1
    assert outcome.attempts[-1].outcome == "ok"
    assert all(a.outcome == "cycle-limit" for a in outcome.attempts[:-1])
    # each rung doubled the previous budget
    budgets = [a.budget for a in outcome.attempts]
    assert budgets == [150 * 2 ** i for i in range(len(budgets))]
    # earlier rungs retired strictly fewer instructions (real progress)
    assert outcome.attempts[0].instructions < outcome.attempts[-1].instructions


# ----------------------------------------------------------- classification
def test_deadlock_is_terminal_no_retry():
    calls = []

    def build():
        calls.append(1)

        class Dead:
            def run(self, max_cycles):
                raise DeadlockError("wedged", diagnostic=_diag(7, "deadlock"))

        return Dead()

    outcome = run_supervised(build, base_budget=100, raise_on_failure=False)
    assert not outcome.ok
    assert outcome.failure.kind is FailureKind.DEADLOCK
    assert len(calls) == 1                      # deterministic: never retried
    assert outcome.failure.diagnostic is not None
    assert "deadlock" in str(outcome.failure)


def test_livelock_detected_on_equal_progress():
    def build():
        class Stuck:
            def run(self, max_cycles):
                raise CycleLimitError("over budget", diagnostic=_diag(42))

        return Stuck()

    outcome = run_supervised(build, base_budget=100, escalations=5,
                             raise_on_failure=False)
    assert outcome.failure.kind is FailureKind.LIVELOCK
    # early exit: two equal-progress rungs suffice, not the full ladder
    assert len(outcome.attempts) == 2
    assert "42 instructions" in str(outcome.failure)


def test_stall_longer_than_the_budget_gap_is_not_livelock():
    """A 300-cycle compute outlasts the 100 -> 200 rung gap with no new
    dispatch, but its completion is still pending at cycle 200: the
    ladder must escalate, not call it livelock."""
    outcome = run_supervised(lambda: make_sim(n_ops=2, op_cycles=300),
                             base_budget=100, raise_on_failure=False)
    assert outcome.ok, outcome.failure
    assert [a.instructions for a in outcome.attempts[:2]] == [1, 1]
    assert [a.outcome for a in outcome.attempts][-1] == "ok"


def test_retiring_without_dispatch_is_progress():
    """Equal dispatch counts, but the ROB drained between the rungs."""
    depths = iter([5, 3, 1, 0])

    def build():
        class Draining:
            def run(self, max_cycles):
                diag = _diag(42)
                diag.cores[0].rob_depth = next(depths)
                raise CycleLimitError("over budget", diagnostic=diag)

        return Draining()

    outcome = run_supervised(build, base_budget=100, escalations=3,
                             raise_on_failure=False)
    assert outcome.failure.kind is FailureKind.BUDGET
    assert len(outcome.attempts) == 4


def test_budget_exhaustion_when_still_progressing():
    insns = iter([10, 20, 30, 40, 50])

    def build():
        class Slow:
            def run(self, max_cycles):
                raise CycleLimitError("over budget", diagnostic=_diag(next(insns)))

        return Slow()

    outcome = run_supervised(build, base_budget=100, escalations=3,
                             raise_on_failure=False)
    assert outcome.failure.kind is FailureKind.BUDGET
    assert len(outcome.attempts) == 4           # base + 3 escalations
    assert [a.budget for a in outcome.attempts] == [100, 200, 400, 800]


def test_failure_raises_by_default():
    def build():
        class Dead:
            def run(self, max_cycles):
                raise DeadlockError("wedged", diagnostic=_diag(0, "deadlock"))

        return Dead()

    with pytest.raises(ChaosFailure) as exc_info:
        run_supervised(build, base_budget=100)
    assert exc_info.value.kind is FailureKind.DEADLOCK


def test_failure_message_carries_ladder_and_postmortem():
    def build():
        class Stuck:
            def run(self, max_cycles):
                raise CycleLimitError("over budget", diagnostic=_diag(5))

        return Stuck()

    outcome = run_supervised(build, base_budget=100, raise_on_failure=False)
    msg = str(outcome.failure)
    assert "attempts:" in msg
    assert "100cy:cycle-limit" in msg
    assert "core 0" in msg                      # rendered diagnostic

