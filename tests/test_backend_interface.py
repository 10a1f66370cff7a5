"""The coherence-backend interface: completeness, leaks, cache keys.

Three layers of enforcement around :data:`repro.mem.BACKEND_INTERFACE`:

* **Completeness** -- every registered backend implements the whole
  surface, and :func:`repro.mem.create_backend` dispatches
  ``SimConfig.mem_backend`` to the right class.
* **No leaks** -- a grep-driven scan of every ``*.hierarchy.<attr>``
  call site in ``src/`` (outside ``repro/mem`` itself) fails if any
  attribute outside the declared surface is touched, so MESI
  internals (directory, MSHRs) and SiSd internals (dirty sets) cannot
  creep back into the core model.
* **Cache identity** -- the campaign result cache must key on the
  backend: the same job parameters under ``mesi`` and ``sisd`` are
  different work and must never share a cache object.  A warm re-run
  of a backend-keyed sweep serves everything from cache and reproduces
  its results exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.campaign import ResultCache, litmus_jobs, run_campaign
from repro.campaign.cache import job_key
from repro.mem import (
    BACKEND_INTERFACE,
    MemoryHierarchy,
    SiSdHierarchy,
    create_backend,
)
from repro.sim.config import MEM_BACKENDS, SimConfig

SRC_ROOT = Path(repro.__file__).resolve().parent

#: any attribute access on a ``hierarchy``-named object: the simulator
#: exposes the backend as ``sim.hierarchy``, cores hold
#: ``self.hierarchy``, chaos installs ``sim.hierarchy.fault``
_CALL_SITE = re.compile(r"\.hierarchy\.(\w+)")


# -------------------------------------------------------------- completeness
@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_backends_implement_the_full_interface(backend):
    instance = create_backend(SimConfig(n_cores=2, mem_backend=backend))
    assert instance.name == backend
    for attr in BACKEND_INTERFACE:
        assert hasattr(instance, attr), (
            f"backend {backend!r} is missing interface member {attr!r}"
        )


def test_create_backend_dispatch():
    assert isinstance(create_backend(SimConfig(n_cores=2)), MemoryHierarchy)
    assert isinstance(
        create_backend(SimConfig(n_cores=2, mem_backend="sisd")), SiSdHierarchy
    )


def test_unknown_backend_rejected_at_config_time():
    with pytest.raises(ValueError, match="mem_backend"):
        SimConfig(mem_backend="directoryless-magic")


def test_mesi_fence_sync_is_free():
    """The MESI invariant the refactor rests on: sync points are no-ops."""
    from repro.sim.stats import CoreStats

    h = create_backend(SimConfig(n_cores=2))
    assert h.fence(0, "fence", 0b11, CoreStats()) is None


# ------------------------------------------------------------------ no leaks
def test_no_backend_internals_leak_outside_mem():
    mem_dir = SRC_ROOT / "mem"
    offenders: list[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if mem_dir in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for attr in _CALL_SITE.findall(line):
                if attr not in BACKEND_INTERFACE:
                    offenders.append(
                        f"{path.relative_to(SRC_ROOT)}:{lineno}: "
                        f".hierarchy.{attr}"
                    )
    assert not offenders, (
        "call sites outside repro/mem touch attributes beyond "
        f"BACKEND_INTERFACE {sorted(BACKEND_INTERFACE)}:\n"
        + "\n".join(offenders)
    )


def test_interface_is_actually_exercised():
    """The scan is live: the core model really does call the surface."""
    used: set[str] = set()
    mem_dir = SRC_ROOT / "mem"
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if mem_dir in path.parents:
            continue
        used.update(_CALL_SITE.findall(path.read_text()))
    for attr in ("access", "completion_cycle", "fence", "warm", "fault"):
        assert attr in used, f"interface member {attr!r} has no call site"


# ------------------------------------------------------------- cache identity
def test_cache_keys_differ_by_backend():
    for kind, params in (
        ("verify", {"test": "SB", "mode": "none", "seeds": 2,
                    "smoke": False}),
        ("litmus", {"name": "SB", "model": "rmo"}),
        ("chaos", {"algo": "wsq", "scenario": "clean", "seed": 0}),
    ):
        keys = {
            job_key(kind, {**params, "backend" if kind == "verify"
                           else "mem_backend": b}, "fp")
            for b in MEM_BACKENDS
        }
        assert len(keys) == len(MEM_BACKENDS), (
            f"{kind} jobs share one cache key across backends"
        )


@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_warm_rerun_is_cached_and_identical(backend, tmp_path):
    jobs = litmus_jobs(mem_backend=backend)[:2]
    cache = ResultCache(tmp_path / backend)
    cold = run_campaign(jobs, parallel=0, cache=cache)
    assert cold.ok and cold.executed == len(jobs)
    warm = run_campaign(jobs, parallel=0, cache=ResultCache(tmp_path / backend))
    assert warm.ok
    assert warm.executed == 0, "a warm re-run recomputed cached jobs"
    assert warm.cached == len(jobs)
    assert warm.results() == cold.results()


def test_backends_do_not_share_cache_objects(tmp_path):
    """The same litmus job under each backend is distinct cached work."""
    cache = ResultCache(tmp_path)
    seen_keys = set()
    for backend in MEM_BACKENDS:
        job = litmus_jobs(mem_backend=backend)[0]
        seen_keys.add(cache.key_for(job))
    assert len(seen_keys) == len(MEM_BACKENDS)
