"""A finished run is freed by refcounting alone.

The campaign workers raise the cyclic collector's threshold (see
``_quiesce_worker_gc``) on the promise that per-job garbage dies by
refcount; since cache sets are allocated lazily, collections run too
rarely to hide a leak.  Each test here runs with the cyclic GC disabled
and checks that every ``Simulator`` and ``SharedMemory`` the run built
is gone once the caller drops its result: a reference cycle through
either (an app instance captured by its own guest threads, a
self-recursive closure) would keep it alive and fail the test.
"""

import gc
import weakref

import pytest

from repro.apps.barnes import build_barnes
from repro.apps.cilk_fib import build_cilk_fib
from repro.apps.pst import build_pst
from repro.apps.ptc import build_ptc
from repro.apps.radiosity import build_radiosity
from repro.campaign import figure_jobs, job_affinity
from repro.campaign.jobs import clear_warm_state, execute_job, synth_jobs, verify_jobs
from repro.runtime.lang import Env
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator


@pytest.fixture
def built(monkeypatch):
    """Weak references to every Simulator (and its memory) built, with
    the cyclic GC off for the duration of the test."""
    refs = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((weakref.ref(self), weakref.ref(self.memory)))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def assert_all_freed(refs) -> None:
    assert refs, "the run built no Simulator"
    alive = [(sim(), mem()) for sim, mem in refs if sim() is not None or mem() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} runs outlived their result"


APPS = {
    "barnes": lambda env: build_barnes(env, n_bodies=32),
    "cilk-fib": lambda env: build_cilk_fib(env, n=6),
    "pst": lambda env: build_pst(env, n_vertices=32, extra_edges=16),
    "ptc": lambda env: build_ptc(env, n_vertices=16),
    "radiosity": lambda env: build_radiosity(env, n_patches=16),
}


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_run_dies_by_refcount(name, built):
    env = Env(SimConfig())
    instance = APPS[name](env)
    env.run(instance.program, max_cycles=2_000_000)
    instance.check()
    del env, instance
    assert_all_freed(built)


def test_verify_case_dies_by_refcount(built):
    job = verify_jobs(smoke=True)[0]
    payload = execute_job(job)
    assert payload["sound"]
    del payload
    assert_all_freed(built)


def test_synth_kernel_dies_by_refcount(built):
    job = synth_jobs(names=["ptc-handoff"], smoke=True)[0]
    payload = execute_job(job)
    del payload
    assert_all_freed(built)


def test_figure_point_memo_holds_no_run(built):
    """Cells sharing a key simulate once and the memo keeps only numbers."""
    jobs = [j for f in ("fig13", "fig15", "fig16", "figbackend")
            for j in figure_jobs(f, 0.1) if j.params["app"] == "ptc"]
    key = job_affinity(jobs[0])
    shared = [j for j in jobs if job_affinity(j) == key]
    assert len(shared) == 4
    clear_warm_state()
    try:
        payloads = [execute_job(j) for j in shared]
        assert len({p["cycles"] for p in payloads}) == 1
        del payloads
        assert len(built) == 1
        assert_all_freed(built)
    finally:
        clear_warm_state()
