"""Tests for the textual litmus format."""

import pytest

from repro.litmus.dsl import (
    LitmusParseError,
    LitmusTest,
    compile_litmus,
    pair_grid,
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


def _explore(test: LitmusTest, offsets: list[int] = FAST):
    return run_litmus(test, MemoryModel.RMO, pair_grid(test, offsets))


def test_bad_statement_rejected_at_run_time():
    # parsing accepts any cell; the sweep's compile step rejects it
    t = parse_litmus("x <- 1 | r0 = x")
    with pytest.raises(LitmusParseError):
        compile_litmus(t)
    with pytest.raises(LitmusParseError):
        _explore(t, [0])


def test_bad_fence_suffix():
    t = parse_litmus("fence.bogus | r0 = x")
    with pytest.raises(LitmusParseError):
        compile_litmus(t)
    with pytest.raises(LitmusParseError):
        _explore(t, [0])


@pytest.mark.parametrize("thread", [
    ["delay", "x = 1", "r0 = y"],
    ["x = 1", "r0 = y", "delay"],
    ["x = 1", "delay", "delay", "r0 = y"],
], ids=["leading", "trailing", "doubled"])
def test_delay_outside_two_ops_rejected_at_compile_time(thread):
    """Each ``delay`` marks the gap before the op after it, so it must
    sit between two ops of its thread: a leading, trailing or doubled
    one has no gap of its own."""
    t = LitmusTest("bad-delay", [thread, ["y = 1", "r1 = x"]])
    with pytest.raises(LitmusParseError, match="not between two ops"):
        compile_litmus(t)
    with pytest.raises(LitmusParseError, match="not between two ops"):
        _explore(t, [0])


def test_pair_grid_fills_start_and_delay_gaps():
    """Pair ``(d0, d1)``, ``d0``-major, gives thread ``t`` the gap
    ``(d0, d1)[t % 2]`` before its first op and after each ``delay``;
    every other gap is 0."""
    t = parse_litmus("""
        x = 1 | rw = y | r2 = x
        y = 1 | delay  |
              | r0 = y |
              | r1 = x |
    """)
    assert pair_grid(t, [0, 7]) == [
        ((0, 0), (0, 0, 0), (0,)),
        ((0, 0), (7, 7, 0), (0,)),
        ((7, 0), (0, 0, 0), (7,)),
        ((7, 0), (7, 7, 0), (7,)),
    ]


# ------------------------------------------------------------------- running
def test_sb_without_fence_observes_condition():
    t = parse_litmus("""
        name SBnofence
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
    """)
    run = _explore(t)
    assert run.condition_observed
    assert (0, 0) in run.outcomes


def test_sb_with_full_fence_forbidden():
    run = _explore(parse_litmus(SB.format(fence="fence")))
    assert not run.condition_observed


def test_sb_with_set_fence_forbidden():
    run = _explore(parse_litmus(SB.format(fence="fence.set")))
    assert not run.condition_observed


def test_mp_storestore_fence_forbids_stale_data():
    run = _explore(parse_litmus(MP))
    assert not run.condition_observed


def test_init_values_respected():
    t = parse_litmus("""
        init x=7
        r0 = x | x = 9
        exists r0 == 7 or r0 == 9
    """)
    run = _explore(t, [0, 50])
    assert run.condition_observed
    assert all(out[0] in (7, 9) for out in run.outcomes)


def test_register_names():
    run = _explore(parse_litmus(SB.format(fence="fence")), [0])
    assert run.register_names == ["r0", "r1"]
