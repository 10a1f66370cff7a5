"""Simulated stall-cost probes for the synthesis search.

Cost is measured, not modelled: a variant's cost is the total simulated
cycles of a :func:`repro.litmus.dsl.run_litmus` sweep over a fixed
timing-offset grid on the event-driven fast-path engine, and a
placement's *stall* is that total minus the fence-free baseline's.
This is exactly the quantity the paper trades on -- a fence's cost is
the drain it actually waits out, which depends on what else is in
flight, not on how many fences the source contains.

Per-(site, mode) *estimates* measure each site alone (one fence in an
otherwise fence-free program); the search orders candidates by the sum
of their sites' solo estimates.  The sum is used as an admissible
bound for pruning: a solo fence waits out the full undrained buffer
its site sees, while in a multi-fence placement an earlier fence has
already drained part of that traffic, so summed solo stalls bound the
combined placement's stall from above and scanning a cost-sorted
candidate list can stop at the first estimate past the best measured
stall.  (Where the workload violates that sub-additivity the search
still never returns an unsound or locally non-minimal placement --
the bound only shapes which corners of the lattice get measured; the
golden suite pins the outcome.)

Probes keep no memo of their own: every offset pair a probe sweeps is
memoised by :func:`~repro.litmus.dsl.run_litmus` itself (the warm slot
``litmus-runs``, keyed by the variant's content and the pair's schedule,
:func:`~repro.litmus.dsl.schedule_key`), so a probe of a variant any
earlier sweep in the process ran -- a probe repeated by the search, or
the verify matrix's run of the same program -- simulates nothing, and
a pair that is an earlier pair moved later (both delays at least 1,
no mid-thread ``delay``) reads that pair's run.  ``total_cycles`` stays
exact: a derived pair's cycles are its representative's plus the
shift.
"""

from __future__ import annotations

from ..litmus.dsl import LitmusTest, run_litmus
from ..sim.config import MemoryModel
from .sites import FenceSite, MODES, apply_placement

#: timing-offset grid cost probes sweep (16 offset pairs per probe; 14
#: simulations without a mid-thread delay, as (40, 40) and (150, 150)
#: are (1, 1) moved later)
PROBE_OFFSETS = [0, 1, 40, 150]
#: the quick-CI grid (4 simulations per probe)
SMOKE_PROBE_OFFSETS = [0, 40]


def placement_cycles(
    variant: LitmusTest, offsets: list[int], mem_backend: str = "mesi"
) -> int:
    """Total simulated cycles of one variant over the offset grid.

    The coherence backend is part of the run key: cost is a timing
    quantity, and the same placement stalls differently when every sync
    point pays SI/SD work instead of riding free on invalidations.
    """
    return run_litmus(variant, MemoryModel.RMO, list(offsets),
                      mem_backend=mem_backend).total_cycles


def site_estimates(
    stripped: LitmusTest,
    sites: list[FenceSite],
    offsets: list[int],
    baseline_cycles: int,
    modes: tuple[str, ...] = MODES,
    on_probe=None,
    mem_backend: str = "mesi",
) -> dict[tuple[int, str], int]:
    """Solo stall estimate for every (site index, non-none mode).

    Negative deltas (second-order scheduling noise) clamp to zero so
    the search's priority stays an admissible lower bound of ``0 <=
    stall``.
    """
    estimates: dict[tuple[int, str], int] = {}
    for i in range(len(sites)):
        for mode in modes:
            if mode == "none":
                estimates[(i, mode)] = 0
                continue
            assignment = tuple(
                mode if j == i else "none" for j in range(len(sites))
            )
            variant = apply_placement(stripped, sites, assignment)
            cycles = placement_cycles(variant, offsets, mem_backend)
            estimates[(i, mode)] = max(0, cycles - baseline_cycles)
            if on_probe is not None:
                on_probe()
    return estimates
