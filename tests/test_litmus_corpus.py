"""The litmus corpus: every entry's expectation holds under RMO."""

import pytest

from repro.campaign.jobs import litmus_jobs
from repro.litmus.corpus import CORPUS, CORPUS_OFFSETS
from repro.litmus.dsl import pair_grid, parse_litmus, run_litmus
from repro.sim.config import MemoryModel


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_expectation_under_rmo(entry):
    for backend in ("mesi", "sisd"):
        test = parse_litmus(entry.source)
        run = run_litmus(test, MemoryModel.RMO,
                         pair_grid(test, CORPUS_OFFSETS), mem_backend=backend)
        assert run.condition_observed == entry.observable_rmo, (
            f"{entry.name} on {backend}: expected observable="
            f"{entry.observable_rmo}, outcomes {sorted(run.outcomes, key=str)}"
        )


def test_every_relaxation_vanishes_under_sc():
    for entry in CORPUS:
        test = parse_litmus(entry.source)
        run = run_litmus(test, MemoryModel.SC, pair_grid(test, CORPUS_OFFSETS))
        assert not run.condition_observed, entry.name


def test_litmus_jobs_cover_the_corpus():
    """``campaign --litmus`` runs every entry once, on the corpus grid,
    against the entry's own expectation."""
    jobs = litmus_jobs()
    assert [job.params["name"] for job in jobs] == [e.name for e in CORPUS]
    for job, entry in zip(jobs, CORPUS):
        assert job.params["offsets"] == CORPUS_OFFSETS
        assert job.params["expect_observable"] == entry.observable_rmo
