"""Tests for the textual litmus format."""

import pytest

from repro.litmus.dsl import (
    LitmusParseError,
    compile_litmus,
    parse_litmus,
    run_litmus,
)
from repro.sim.config import MemoryModel

FAST = [0, 1, 40, 150, 320]

SB = """
name SB
flag x y
init x=0 y=0

x = 1        | y = 1
{fence}      | {fence}
r0 = y       | r1 = x

exists r0 == 0 and r1 == 0
"""

MP = """
name MP
init data=0 flag=0

data = 42    | r0 = flag
fence.ss     | r1 = data

exists r0 == 1 and r1 == 0
"""


# ------------------------------------------------------------------- parsing
def test_parse_basic_structure():
    t = parse_litmus(SB.format(fence="fence"))
    assert t.name == "SB"
    assert t.n_threads == 2
    assert t.flagged == {"x", "y"}
    assert t.init == {"x": 0, "y": 0}
    assert t.threads[0] == ["x = 1", "fence", "r0 = y"]
    assert t.condition == "r0 == 0 and r1 == 0"


def test_parse_comments_and_blanks_ignored():
    t = parse_litmus("""
        name c
        # a comment
        x = 1 | r0 = x   # trailing comment
    """)
    assert t.threads == [["x = 1"], ["r0 = x"]]


def test_parse_uneven_columns():
    t = parse_litmus("""
        x = 1 | y = 1
        r0 = y
    """)
    assert t.threads[0] == ["x = 1", "r0 = y"]
    assert t.threads[1] == ["y = 1"]


def test_parse_rejects_empty():
    with pytest.raises(LitmusParseError):
        parse_litmus("name only\n")


def test_bad_statement_rejected_at_run_time():
    # parsing accepts any cell; the sweep's compile step rejects it
    t = parse_litmus("x <- 1 | r0 = x")
    with pytest.raises(LitmusParseError):
        compile_litmus(t)
    with pytest.raises(LitmusParseError):
        run_litmus(t, MemoryModel.RMO, [0])


def test_bad_fence_suffix():
    t = parse_litmus("fence.bogus | r0 = x")
    with pytest.raises(LitmusParseError):
        compile_litmus(t)
    with pytest.raises(LitmusParseError):
        run_litmus(t, MemoryModel.RMO, [0])


# ------------------------------------------------------------------- running
def test_sb_without_fence_observes_condition():
    t = parse_litmus("""
        name SBnofence
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
    """)
    run = run_litmus(t, MemoryModel.RMO, FAST)
    assert run.condition_observed
    assert (0, 0) in run.outcomes


def test_sb_with_full_fence_forbidden():
    run = run_litmus(parse_litmus(SB.format(fence="fence")), MemoryModel.RMO, FAST)
    assert not run.condition_observed


def test_sb_with_set_fence_forbidden():
    run = run_litmus(parse_litmus(SB.format(fence="fence.set")), MemoryModel.RMO, FAST)
    assert not run.condition_observed


def test_mp_storestore_fence_forbids_stale_data():
    run = run_litmus(parse_litmus(MP), MemoryModel.RMO, FAST)
    assert not run.condition_observed


def test_init_values_respected():
    t = parse_litmus("""
        init x=7
        r0 = x | x = 9
        exists r0 == 7 or r0 == 9
    """)
    run = run_litmus(t, MemoryModel.RMO, [0, 50])
    assert run.condition_observed
    assert all(out[0] in (7, 9) for out in run.outcomes)


def test_register_names():
    run = run_litmus(parse_litmus(SB.format(fence="fence")), MemoryModel.RMO, [0])
    assert run.register_names == ["r0", "r1"]
