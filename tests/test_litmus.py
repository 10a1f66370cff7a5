"""Litmus tests: the memory model exhibits and forbids the right outcomes.

Every test is DSL text run through ``run_litmus``: the verify corpus's
entries by name, the rest inline.
"""

import pytest

from repro.litmus import corpus
from repro.litmus.dsl import outcomes_matching, pair_grid, parse_litmus, run_litmus
from repro.sim.config import MemoryModel

FAST = [0, 1, 5, 40, 150, 320]

CORPUS = {entry.name: entry.source for entry in corpus.CORPUS}

SB_SET = """
    name SB+set
    flag x y
    x = 1     | y = 1
    fence.set | fence.set
    r0 = y    | r1 = x
    exists r0 == 0 and r1 == 0
"""

# the corpus's MP+ss with its store-store fence scoped to the flagged set
MP_SET = """
    name MP+set
    flag x y
    x = 1        | rw = y
    fence.set.ss | delay
    y = 1        | r0 = y
                 | r1 = x
    exists r0 == 1 and r1 == 0
"""

LB = """
    name LB
    r0 = x | r1 = y
    y = 1  | x = 1
    exists r0 == 1 and r1 == 1
"""

# two reads of the same variable must not see new-then-old
CORR = """
    name CoRR
    x = 1 | r0 = x
          | r1 = x
    exists r0 == 1 and r1 == 0
"""

# the readers must agree on the order of the two independent stores
IRIW = """
    name IRIW
    x = 1 | y = 1 | r0 = x | r2 = y
          |       | fence  | fence
          |       | r1 = y | r3 = x
    exists r0 == 1 and r1 == 0 and r2 == 1 and r3 == 0
"""

TABLE_SOURCES = {
    "SB": CORPUS["SB"], "MP": CORPUS["MP"], "LB": LB, "CoRR": CORR, "IRIW": IRIW,
}
TABLE_MODELS = (MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO, MemoryModel.RMO)


def explore(source, model=MemoryModel.RMO, backend="mesi"):
    test = parse_litmus(source)
    return run_litmus(test, model, pair_grid(test, FAST), mem_backend=backend)


def outcome_table() -> dict[str, tuple[bool, ...]]:
    """The rows of :mod:`repro.litmus.corpus`'s outcome table.

    Each maps a test to whether its relaxed outcome is observable under
    SC, TSO, PSO and RMO (``no*`` is a documented "no").
    """
    rows = {}
    for line in corpus.__doc__.splitlines():
        cells = line.split()
        if len(cells) > 4 and all(c in ("yes", "no", "no*") for c in cells[-4:]):
            rows[cells[0]] = tuple(c == "yes" for c in cells[-4:])
    return rows


def test_sb_relaxed_outcome_observable_under_rmo():
    res = explore(CORPUS["SB"], MemoryModel.RMO)
    assert res.condition_observed, sorted(res.outcomes)


def test_sb_relaxed_outcome_observable_under_tso():
    res = explore(CORPUS["SB"], MemoryModel.TSO)
    assert res.condition_observed


def test_sb_forbidden_under_sc():
    res = explore(CORPUS["SB"], MemoryModel.SC)
    assert not res.condition_observed, sorted(res.outcomes)


def test_sb_forbidden_with_global_fence():
    res = explore(CORPUS["SB+fences"])
    assert not res.condition_observed


def test_sb_forbidden_with_set_scope_fence():
    """The scoped fence suffices: both racing variables are in its set."""
    res = explore(SB_SET)
    assert not res.condition_observed


def test_mp_reordering_observable_under_rmo():
    res = explore(CORPUS["MP"], MemoryModel.RMO)
    assert res.condition_observed, sorted(res.outcomes)


def test_mp_forbidden_under_tso():
    """TSO drains the store buffer in order: no store-store reordering."""
    res = explore(CORPUS["MP"], MemoryModel.TSO)
    assert not res.condition_observed


def test_mp_forbidden_with_storestore_fence():
    res = explore(CORPUS["MP+ss"])
    assert not res.condition_observed


def test_mp_forbidden_with_set_scope_fence():
    res = explore(MP_SET)
    assert not res.condition_observed


def test_mp_eventually_delivers():
    res = explore(CORPUS["MP+ss"])
    assert outcomes_matching("r0 == 1 and r1 == 1", res.register_names, res.outcomes)


def test_lb_outcome_never_observed():
    """Documented deviation: loads bind in program order, so the LB
    relaxed outcome cannot occur even under RMO."""
    res = explore(LB)
    assert not res.condition_observed


def test_corr_same_location_coherence():
    res = explore(CORR)
    assert not res.condition_observed  # never new-then-old


def test_iriw_readers_agree():
    """Multi-copy atomicity by construction: the forbidden IRIW outcome
    (readers disagreeing about the store order) never shows up."""
    res = explore(IRIW)
    assert len(res.outcomes) > 1  # the grid reaches more than one order
    assert not res.condition_observed


@pytest.mark.parametrize("backend", ["mesi", "sisd"])
@pytest.mark.parametrize("name", sorted(TABLE_SOURCES))
def test_outcome_table(name, backend):
    table = outcome_table()
    assert set(table) == set(TABLE_SOURCES)
    for model, observable in zip(TABLE_MODELS, table[name]):
        res = explore(TABLE_SOURCES[name], model, backend)
        assert res.condition_observed == observable, (
            f"{name} under {model.value} on {backend}: "
            f"outcomes {sorted(res.outcomes, key=str)}")
