"""Tier-1 simulator soundness and outcome coverage on the corpus.

Soundness: no outcome the simulator observes may fall outside the
exhaustive allowed set of its (test, fence-mode) cell -- on any cell,
ever.  Coverage: the classic weak behaviours must actually be
*reachable* when allowed, so the forbidden-outcome tests in the corpus
are not passing vacuously -- and the forbidden outcome of a fenced cell
must be absent both from the allowed set (model) and from the observed
set (simulator), for the traditional fence and both S-Fence paths.
"""

from __future__ import annotations

import pytest

from repro.litmus.corpus import CORPUS
from repro.verify.runner import verify_case

ENTRY = {e.name: e for e in CORPUS}


def _case(name: str, mode: str, seeds: int = 1, smoke: bool = True) -> dict:
    # smoke=True uses the truncated offset grid -- enough for soundness
    # and allowed-set assertions; reachability assertions need the full
    # grid (smoke=False), whose long offsets let stores drain between
    # threads
    return verify_case({
        "name": name, "source": ENTRY[name].source, "mode": mode,
        "seeds": seeds, "smoke": smoke,
    })


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_simulator_sound_on_corpus(entry):
    """Every observed outcome lies inside the exhaustive allowed set."""
    for mode in ("orig", "none", "sfence-set"):
        result = _case(entry.name, mode)
        assert result["reference_match"], (
            f"{entry.name}[{mode}]: explorer disagrees with reference: "
            f"explorer-only {result['explorer_only']}, "
            f"reference-only {result['reference_only']}"
        )
        assert result["sound"], (
            f"{entry.name}[{mode}]: outcomes outside the "
            f"allowed set: {result['violations']} "
            f"(registers {result['registers']})"
        )


def test_sb_both_outcomes_reachable_without_fence():
    """Store buffering with no fence: the relaxed outcome (0, 0) and at
    least one SC outcome are both actually observed."""
    result = _case("SB", "none", smoke=False)
    observed = {tuple(o) for o in result["observed"]}
    assert [0, 0] in result["allowed"]
    assert (0, 0) in observed, "relaxed SB outcome never reached -- vacuous"
    assert observed & {(0, 1), (1, 0), (1, 1)}, "no SC outcome reached"


@pytest.mark.parametrize("mode", ["full", "sfence-class", "sfence-set"])
def test_sb_forbidden_outcome_unreachable_with_fence(mode):
    """Fenced store buffering: (0, 0) is outside the allowed set and the
    simulator never produces it -- for the traditional fence and both
    scoped S-Fence hardware paths."""
    result = _case("SB", mode)
    assert [0, 0] not in result["allowed"]
    assert [0, 0] not in result["observed"]
    assert result["sound"]
    # the cell is not vacuous either: something is still observed
    assert result["coverage"][0] >= 1


def test_mp_relaxation_reachable_and_fenced_away():
    """MP: flag-before-data observable bare, forbidden under sfence-set."""
    bare = _case("MP", "none", smoke=False)
    # registers sorted: (r0, r1, rw); relaxed outcome r0=1, r1=0
    assert bare["registers"] == ["r0", "r1", "rw"]
    assert any(o[0] == 1 and o[1] == 0 for o in bare["observed"]), (
        "MP relaxation never observed without fences"
    )
    fenced = _case("MP", "sfence-set")
    assert not any(o[0] == 1 and o[1] == 0 for o in fenced["allowed"])
    assert not any(o[0] == 1 and o[1] == 0 for o in fenced["observed"])


def test_scoped_fences_match_full_fence_allowed_sets():
    """A litmus program runs outside any method scope with every
    variable flagged, so both S-Fence modes must shrink the allowed set
    exactly as the traditional full fence does."""
    for name in ENTRY:
        full = _case(name, "full")
        for mode in ("sfence-class", "sfence-set"):
            scoped = _case(name, mode)
            assert scoped["allowed"] == full["allowed"], (
                f"{name}: {mode} allowed set diverges from full fence"
            )

