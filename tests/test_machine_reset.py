"""A reset machine is a freshly built one.

:func:`repro.litmus.dsl.run_litmus` runs every schedule of a sweep on
one :class:`~repro.sim.simulator.Simulator`, reset between runs.  These
tests dirty a machine with everything a run can leave behind -- CAS,
predicted branches, in-window speculation, SiSd sync points, chaos
hooks, monitors, a retire log, and a run cut off mid-flight with loads
outstanding and stores buffered -- then hold the reset machine to a
freshly built one slot by slot: simulator, cores, scope trackers (FSB,
FSS, FSS', mapping table), ROBs, store buffers, predictors, caches,
directory, SiSd state and shared memory.  The walk also compares which
objects alias which, so a reset that rebinds a container the core's hot
bundle aliases fails too.  A reset machine must then run like a fresh
one, and a run's result must not change under the next reset.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import random
import types
from collections import defaultdict, deque

import pytest

from repro.chaos.faults import ChaosEngine, FaultPlan
from repro.chaos.invariants import OrderingChecker
from repro.isa.instructions import (
    WAIT_LOADS,
    WAIT_STORES,
    Branch,
    Cas,
    Compute,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Store,
)
from repro.isa.program import ops_program
from repro.litmus.corpus import CORPUS
from repro.litmus.dsl import pair_grid, parse_litmus, run_litmus
from repro.sim.config import MEM_BACKENDS, SimConfig
from repro.sim.simulator import CycleLimitError, Simulator

from tests.test_litmus_sweep import OFFSETS

SB = next(e for e in CORPUS if e.name == "SB")

PLAN = FaultPlan(seed=3, mem_jitter=5, mem_spike_prob=0.05,
                 mem_spike_cycles=200, branch_flip_prob=0.3,
                 scope_overflow_prob=0.2, drain_stall_prob=0.2)


def machine_state(root) -> object:
    """Every slot reachable from ``root``, as plain comparable data.

    Objects are numbered in the order the walk first meets them, and a
    second meeting is recorded as a reference to that number, so two
    walks agree only if their aliasing agrees too.  Functions, guest
    generators and configs compare by kind; they are inputs, not state.
    """
    seen: dict[int, int] = {}
    keep = []

    def walk(obj):
        if obj is None or isinstance(obj, (bool, int, float, str, enum.Enum,
                                           SimConfig)):
            return obj
        if id(obj) in seen:
            return ("ref", seen[id(obj)])
        seen[id(obj)] = len(seen)
        keep.append(obj)
        if isinstance(obj, types.MethodType):
            return ("method", obj.__func__.__qualname__, walk(obj.__self__))
        if isinstance(obj, (types.FunctionType, types.GeneratorType,
                            types.BuiltinFunctionType, functools.partial, type)):
            return ("callable", type(obj).__name__)
        if isinstance(obj, defaultdict):
            return ("defaultdict", obj.default_factory,
                    [(walk(k), walk(v)) for k, v in obj.items()])
        if isinstance(obj, dict):
            return ("dict", [(walk(k), walk(v)) for k, v in obj.items()])
        if isinstance(obj, deque):
            return ("deque", obj.maxlen, [walk(x) for x in obj])
        if isinstance(obj, (list, tuple)):
            return (type(obj).__name__, [walk(x) for x in obj])
        if isinstance(obj, (set, frozenset)):
            return ("set", sorted(obj))
        names = [n for cls in type(obj).__mro__
                 for n in getattr(cls, "__slots__", ())]
        names += sorted(getattr(obj, "__dict__", {}))
        return (type(obj).__name__,
                [(n, walk(getattr(obj, n))) for n in names if hasattr(obj, n)])

    return walk(root)


def _busy_program(seed: int, n_threads: int = 4, length: int = 60):
    """Random per-thread op streams over a few shared lines: plain,
    flagged and CAS accesses, every fence flavour, nested class
    scopes, predicted branches and compute chains."""
    rng = random.Random(seed)
    addrs = [64 * i for i in range(6)] + [4096 * i + 8 for i in range(1, 4)]
    threads = []
    for _ in range(n_threads):
        ops, open_scopes = [], []
        for _ in range(length):
            roll = rng.random()
            addr = rng.choice(addrs)
            if roll < 0.25:
                ops.append(Store(addr, rng.randint(1, 9), flagged=rng.random() < 0.5))
            elif roll < 0.45:
                ops.append(Load(addr, flagged=rng.random() < 0.5))
            elif roll < 0.52:
                ops.append(Cas(addr, 0, rng.randint(1, 9)))
            elif roll < 0.62:
                kind = rng.choice(list(FenceKind))
                waits = rng.choice([WAIT_LOADS, WAIT_STORES,
                                    WAIT_LOADS | WAIT_STORES])
                ops.append(Fence(kind, waits))
            elif roll < 0.72:
                cid = rng.randint(1, 6)
                open_scopes.append(cid)
                ops.append(FsStart(cid))
            elif roll < 0.80 and open_scopes:
                ops.append(FsEnd(open_scopes.pop()))
            elif roll < 0.92:
                ops.append(Branch(taken=rng.random() < 0.6, pc=rng.randint(0, 7)))
            else:
                ops.append(Compute(rng.randint(1, 30)))
        ops.extend(FsEnd(cid) for cid in reversed(open_scopes))
        threads.append(ops)
    return ops_program(threads, name=f"busy{seed}")


def _config(backend: str, **overrides) -> SimConfig:
    # a 4-entry FSS/mapping table so scopes overflow and entries recycle
    base = dict(n_cores=4, mem_backend=backend, retire_log_len=8,
                use_branch_predictor=True, in_window_speculation=True,
                fss_entries=2, mapping_entries=3, mem_latency=120)
    return SimConfig(**{**base, **overrides})


def _hook(sim: Simulator) -> ChaosEngine:
    """Chaos on every hook point, a monitor on every core."""
    engine = ChaosEngine(PLAN).install(sim)
    checker = OrderingChecker(sim.config)
    for core in sim.cores:
        core.monitor = checker
        core.predictor.force = lambda pc, taken, predicted: pc == 3
    return engine


def _dirty(sim: Simulator, max_cycles: int | None = None) -> None:
    """Run a hooked busy program, to completion or cut off."""
    sim.reset(_busy_program(1))
    _hook(sim)
    try:
        sim.run(max_cycles=max_cycles)
    except CycleLimitError:
        assert max_cycles is not None


def _touched(sim: Simulator) -> None:
    """The dirty run reached what the reset has to undo."""
    stats = sim.core_stats
    assert sum(c.cas_ops for c in stats) and sum(c.branch_mispredicts for c in stats)
    assert sum(c.fences for c in stats)
    assert any(core._next_fence_id for core in sim.cores), "no speculative fence"
    assert any(core.retire_log for core in sim.cores)
    assert any(core.tracker.overflow_events for core in sim.cores)
    assert any(core.predictor.predictions for core in sim.cores)
    if sim.config.mem_backend == "sisd":
        assert sim.hierarchy.backend_stats()["sync_points"]


@pytest.mark.parametrize("cut", [None, 150], ids=["finished", "cut-off"])
@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_reset_machine_equals_fresh_machine(backend, cut):
    """Slot by slot, after a run to completion and after one the cycle
    limit cut off with loads outstanding and stores still buffered."""
    config = _config(backend)
    program = _busy_program(2)
    sim = Simulator(config, program)
    _dirty(sim, max_cycles=cut)
    _touched(sim)
    if cut is not None:
        assert any(core._outstanding_misses or core._sb_q or core._events
                   for core in sim.cores), "the cut left nothing in flight"
    fresh = Simulator(config, program)
    assert machine_state(sim) != machine_state(fresh)
    sim.memory.reset()
    sim.reset(program)
    assert machine_state(sim) == machine_state(fresh)


@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_reset_keeps_the_hot_bundle_aliased(backend):
    """The containers ``Core._hot`` bundles are the ones the core, its
    tracker and the memory use, before and after a reset."""
    sim = Simulator(_config(backend), _busy_program(1))
    _dirty(sim, max_cycles=150)
    sim.memory.reset()
    sim.reset(_busy_program(1))
    for core in sim.cores:
        hot = core._hot
        fsb = core.tracker.fsb
        assert hot[0] is core.stats is sim.core_stats[core.core_id]
        assert hot[1] is core.rob._entries and hot[2] is core.sb._entries
        assert hot[3] is core._events
        assert hot[6] is fsb.pending_loads and hot[7] is fsb.pending_stores
        assert hot[8] is fsb.sb_pending_stores
        assert hot[9] is sim.memory.pending_map(core.core_id)


@pytest.mark.parametrize("dense", [False, True], ids=["event", "dense"])
@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_reset_machine_runs_like_fresh_machine(backend, dense):
    """Same cycles, counters, final memory, retire logs, backend
    counters and chaos draws, hooked or not."""
    config = _config(backend, dense_loop=dense)

    def observe(sim, hooked):
        engine = _hook(sim) if hooked else None
        result = sim.run()
        return (result.cycles,
                [dataclasses.asdict(c) for c in result.stats.cores],
                result.memory.snapshot(),
                [list(core.retire_log) for core in sim.cores],
                sim.hierarchy.backend_stats(),
                engine.summary() if engine else None)

    sim = Simulator(config, _busy_program(1))
    _dirty(sim, max_cycles=150)
    for seed, hooked in ((4, False), (5, True), (4, True)):
        sim.memory.reset()
        sim.reset(_busy_program(seed))
        assert observe(sim, hooked) == observe(
            Simulator(config, _busy_program(seed)), hooked), (seed, hooked)


def test_earlier_stats_survive_the_next_reset():
    """Each run counts into its own stats; only the memory is shared."""
    sim = Simulator(_config("mesi"), _busy_program(1))
    first = sim.run()
    counters = [dataclasses.asdict(c) for c in first.stats.cores]
    cycles = first.stats.total_cycles
    sim.memory.reset()
    sim.reset(_busy_program(2))
    second = sim.run()
    assert [dataclasses.asdict(c) for c in first.stats.cores] == counters
    assert first.stats.total_cycles == cycles
    assert not set(map(id, first.stats.cores)) & set(map(id, second.stats.cores))
    assert first.memory is second.memory


@pytest.fixture
def builds(monkeypatch) -> list:
    """Every ``Simulator`` built."""
    built = []
    init = Simulator.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Simulator, "__init__", counted)
    return built


@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_one_machine_per_sweep(backend, builds, monkeypatch):
    """A sweep that simulates builds one machine and runs every pair it
    simulates on it; a sweep the run memo serves builds none."""
    runs = []
    run = Simulator.run

    def counted(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counted)
    sb = parse_litmus(SB.source)
    run_litmus(sb, schedules=pair_grid(sb, OFFSETS), mem_backend=backend)
    assert len(builds) == 1
    # one run per schedule: (40, 40) is (1, 1) moved 39 cycles later
    assert len(runs) == len(OFFSETS) ** 2 - 1
    assert all(sim is builds[0] for sim in runs)
    del builds[:], runs[:]
    run_litmus(sb, schedules=pair_grid(sb, OFFSETS), mem_backend=backend)
    assert not builds and not runs
    run_litmus(sb, schedules=pair_grid(sb, OFFSETS + [7]), mem_backend=backend)
    assert len(builds) == 1
    # seven new pairs, of which (7, 7) is (1, 1) moved six cycles later
    assert len(runs) == 6


def _components(root) -> list:
    """Every object reachable from ``root`` whose class has a ``reset``,
    ``root`` aside."""
    seen, found, stack = {id(root)}, [], [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple, set, deque)):
            children = list(obj)
        elif isinstance(obj, dict):
            children = list(obj.values())
        else:
            names = [n for cls in type(obj).__mro__
                     for n in getattr(cls, "__slots__", ())]
            names += list(getattr(obj, "__dict__", {}))
            children = [getattr(obj, n) for n in names if hasattr(obj, n)]
        for child in children:
            if id(child) in seen or isinstance(child, (
                    types.MethodType, types.FunctionType, type, SimConfig)):
                continue
            seen.add(id(child))
            stack.append(child)
            if callable(getattr(type(child), "reset", None)):
                found.append(child)
    return found


@pytest.mark.parametrize("backend", MEM_BACKENDS)
def test_fresh_machine_resets_each_component_once(backend, monkeypatch):
    """Building a machine brings each component to its just-built state
    once: a leaf by the ``reset`` its constructor ends with, an owner of
    other components by its own fields alone, never by a ``reset`` that
    would clear what its parts' constructors just cleared."""
    config = _config(backend, n_cores=2)
    program = _busy_program(1, n_threads=2)
    classes = {type(c) for c in _components(Simulator(config, program))}
    assert {"Core", "ScopeTracker", "FenceScopeBits", "ScopeStack",
            "MappingTable", "ReorderBuffer", "StoreBuffer", "TwoBitPredictor",
            "Cache", "SharedMemory"} <= {cls.__name__ for cls in classes}
    counts: dict[int, int] = defaultdict(int)

    def counting(method):
        def wrapper(self, *args, **kwargs):
            counts[id(self)] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for cls in classes:
        for name in ("reset", "_reset_own"):
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    sim = Simulator(config, program)
    components = _components(sim)
    assert {type(c) for c in components} == classes
    assert {type(c).__name__: counts[id(c)] for c in components
            if counts[id(c)] != 1} == {}
