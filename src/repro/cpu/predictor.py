"""Two-bit saturating-counter branch predictor.

With ``SimConfig.use_branch_predictor`` the core predicts each guest
``Branch`` from a per-core pattern table indexed by the branch's ``pc``
and derives mispredictions from the comparison with the architectural
outcome (``Branch.taken``), instead of trusting a guest-stamped
``mispredict`` flag.  Classic loop branches then behave classically:
mispredict on first encounter and at loop exit, predict correctly in
the steady state -- which is exactly the traffic the shadow fence scope
stack (FSS') exists to survive.
"""

from __future__ import annotations

# counter states: 0,1 -> predict not taken; 2,3 -> predict taken
_WEAK_TAKEN = 2


class TwoBitPredictor:
    """Pattern history table of 2-bit saturating counters."""

    __slots__ = ("entries", "_table", "predictions", "mispredictions", "force")

    def __init__(self, entries: int = 512) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.reset()

    def reset(self) -> None:
        """Forget every branch: a fresh table, zero counts, no hook."""
        self._table = [_WEAK_TAKEN] * self.entries  # weakly taken, like most PHTs
        self.predictions = 0
        self.mispredictions = 0
        # optional fault-injection hook (chaos harness): called as
        # ``force(pc, taken, predicted) -> bool``; True forces this
        # branch to be reported as mispredicted.  Forcing a mispredict
        # is always architecturally safe -- the core squashes and pays
        # the penalty -- which is exactly the FSS' restore path the
        # chaos harness wants to hammer.
        self.force = None

    def _index(self, pc: int) -> int:
        return pc & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[self._index(pc)] >= _WEAK_TAKEN

    def update(self, pc: int, taken: bool) -> bool:
        """Record the architectural outcome; returns True on mispredict."""
        idx = self._index(pc)
        predicted = self._table[idx] >= _WEAK_TAKEN
        if taken and self._table[idx] < 3:
            self._table[idx] += 1
        elif not taken and self._table[idx] > 0:
            self._table[idx] -= 1
        self.predictions += 1
        mispredicted = predicted != taken
        if not mispredicted and self.force is not None and self.force(pc, taken, predicted):
            mispredicted = True
        if mispredicted:
            self.mispredictions += 1
        return mispredicted

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
