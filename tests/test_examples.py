"""Smoke tests: every shipped example runs to completion."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch):
    if path.stem == "work_stealing_tree":
        monkeypatch.setattr(sys, "argv", [str(path), "96"])  # smaller graph
    else:
        monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} produced no output"


#: whether each shipped litmus file's ``exists`` outcome is observed
#: under RMO, as its header comment states
LITMUS_EXPECTATIONS = {"mp": False, "sb": False, "sb_relaxed": True}


def test_example_litmus_files_parse_and_run():
    from repro.litmus.dsl import pair_grid, parse_litmus, run_litmus

    litmus_dir = Path(__file__).parent.parent / "examples" / "litmus"
    files = sorted(litmus_dir.glob("*.litmus"))
    assert {f.stem for f in files} == set(LITMUS_EXPECTATIONS)
    for f in files:
        test = parse_litmus(f.read_text())
        for backend in ("mesi", "sisd"):
            run = run_litmus(test, schedules=pair_grid(test, [0, 150]),
                             mem_backend=backend)
            assert run.condition_observed == LITMUS_EXPECTATIONS[f.stem], (
                f.stem, backend, sorted(run.outcomes))
