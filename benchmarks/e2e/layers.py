"""Per-layer wall-time attribution for the traced pass, measured from outside.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the
public methods and functions of each simulator layer with timing
wrappers before any ``Simulator`` is built (``Core.__init__`` binds
``hierarchy.access`` and ``load_timed`` into its hot-path bundle, so a
later patch would miss them).  Each wrapper counts calls and inclusive
nanoseconds; a layer stack turns inclusive time into *self* time.  A
call into the layer already on top of the stack (``access_batch`` ->
``load_timed``, ``completion_cycle`` -> ``access``) runs unwrapped, so
re-entry counts once.  Time under no named layer lands on the root
frame and is reported as ``other``.

Blind spot: work the core does inline on structures bound into its hot
bundle (FSB sets, the pending-store map, ``SharedMemory.read``) counts
as ``cpu.core``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from types import FunctionType

ROOT = "other"

#: layer -> [(module, class or None for module functions, method names,
#: or None for every public method / function the owner defines)]
LAYERS = {
    "sim.simulator": [("repro.sim.simulator", "Simulator", ["__init__", "run"])],
    "cpu.core": [("repro.cpu.core", "Core", [
        "tick", "tick_compiled", "next_event_cycle", "account_idle",
        "bind", "attach_units"])],
    "cpu.store_buffer": [("repro.cpu.store_buffer", "StoreBuffer", None)],
    "core.scope_tracker": [("repro.core.scope_tracker", "ScopeTracker", None)],
    "mem.hierarchy": [("repro.mem.hierarchy", "MemoryHierarchy", "backend")],
    "mem.sisd": [("repro.mem.sisd", "SiSdHierarchy", "backend")],
    "sim.trace": [("repro.sim.trace", "OrderEventLog", None),
                  ("repro.sim.trace", "TraceCollector", ["record"])],
    "chaos.invariants": [("repro.chaos.invariants", "OrderingChecker", None),
                         ("repro.chaos.invariants", "DelayPairChecker", None)],
    "apps.delay_set": [("repro.apps.delay_set", None, None)],
    "verify.explorer": [("repro.verify.explorer", None, None)],
    "core.semantics": [("repro.core.semantics", None, None)],
}

#: the guest generators of apps/ and algorithms/, timed per resume
GUEST_LAYER = "runtime.lang"

LAYER_NAMES = tuple(LAYERS) + (GUEST_LAYER,)


class LayerTrace:
    """Call counts, self time and named counters of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = [[ROOT, 0]]  # [layer, child ns]
        self._t0 = 0
        self.wall_ns = 0

    def wrap(self, fn, layer: str, after=None):
        """``fn`` timed as ``layer``; ``after(args, result)`` runs once
        per outermost call of the layer."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                stack[-1][1] += dt
                self_ns[layer] += dt - frame[1]
                calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, fn, name: str, size=None):
        """``fn`` counted as ``name`` (inclusive time in ``name_ns``)
        without opening a layer frame; ``size(args)`` replaces the
        per-call increment of one."""
        counts = self.counts

        def counted(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name + "_ns"] += perf_counter_ns() - t0
                counts[name] += 1 if size is None else size(args)

        return counted

    def start(self) -> None:
        self._t0 = perf_counter_ns()

    def stop(self) -> None:
        self.wall_ns = perf_counter_ns() - self._t0
        if len(self._stack) != 1:
            raise RuntimeError(f"layer frames leaked: {self._stack[1:]}")
        self.self_ns[ROOT] = self.wall_ns - self._stack[0][1]

    def report(self) -> dict:
        return {
            "wall_s": self.wall_ns / 1e9,
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
        }


# -------------------------------------------------------------- installation
def _public(owner) -> list[str]:
    """Public methods/properties of a class, or functions a module defines."""
    if isinstance(owner, type):
        return sorted(
            n for n in dir(owner) if not n.startswith("_")
            and isinstance(inspect.getattr_static(owner, n), (property, FunctionType))
        )
    return sorted(
        n for n, v in vars(owner).items() if not n.startswith("_")
        and inspect.isfunction(v) and v.__module__ == owner.__name__
    )


def _rebind(orig, wrapped) -> None:
    """Point every already-imported ``repro`` module binding at ``wrapped``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def _hooks(counts: Counter) -> dict:
    """Counters recorded at layer boundaries, keyed by (class, method)."""

    def tick(args, progressed):
        counts["cpu.core.ticks"] += 1
        if progressed:
            counts["cpu.core.progress_ticks"] += 1

    def idle(args, _result):
        if args[1] > 0:
            counts["cpu.core.idle_cycles"] += args[1]

    def ready(args, result):
        counts["core.scope_tracker.fence_checks"] += 1
        if result:
            counts["core.scope_tracker.fence_ready"] += 1

    def batch(args, _result):
        counts["mem.hierarchy.batches"] += 1
        counts["mem.hierarchy.batch_ops"] += len(args[2])

    def event(args, _result):
        counts["chaos.invariants.events"] += 1

    def sim_result(args, result):
        stats = result.stats
        counts["sim.stats.cycles"] += result.cycles
        counts["sim.stats.instructions"] += stats.instructions
        counts["sim.stats.fence_stall_cycles"] += stats.fence_stall_cycles
        counts["sim.stats.l1_hits"] += sum(c.l1_hits for c in stats.cores)
        counts["sim.stats.l1_misses"] += sum(c.l1_misses for c in stats.cores)

    hooks = {
        ("Core", "tick"): tick,
        ("Core", "tick_compiled"): tick,
        ("Core", "account_idle"): idle,
        ("MemoryHierarchy", "access_batch"): batch,
        ("Simulator", "run"): sim_result,
    }
    for name in ("fence_ready", "fence_ready_at_head", "fence_ready_resolved"):
        hooks[("ScopeTracker", name)] = ready
    from repro.chaos.invariants import OrderingChecker

    for name in _public(OrderingChecker):
        if name.startswith("on_"):
            hooks[("OrderingChecker", name)] = event
    return hooks


def install_cache_counters(trace: LayerTrace) -> None:
    """Result-cache reads and writes, counted where the caller makes them."""
    from repro.campaign.cache import ResultCache

    ResultCache.get = trace.count(ResultCache.get, "campaign.cache.gets")
    ResultCache.put = trace.count(ResultCache.put, "campaign.cache.puts")
    ResultCache.put_many = trace.count(ResultCache.put_many, "campaign.cache.puts",
                                       size=lambda args: len(args[1]))


def install(trace: LayerTrace) -> None:
    """Wrap every layer of :data:`LAYERS`, the guest generators, the
    monitor fan-out and the work counters around ``trace``."""
    from repro.chaos import runner
    from repro.isa.program import Program
    from repro.mem.backend import BACKEND_INTERFACE
    from repro.sim.simulator import Simulator
    from repro.sim.trace import MonitorFanout
    from repro.synth import cost

    hooks = _hooks(trace.counts)
    for layer, targets in LAYERS.items():
        for module_name, class_name, names in targets:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            if names is None:
                names = _public(owner)
            elif names == "backend":
                names = [n for n in BACKEND_INTERFACE
                         if callable(getattr(owner, n, None))]
            for name in names:
                raw = inspect.getattr_static(owner, name)
                if isinstance(raw, property):
                    setattr(owner, name, property(trace.wrap(raw.fget, layer)))
                    continue
                wrapped = trace.wrap(raw, layer, hooks.get((class_name, name)))
                setattr(owner, name, wrapped)
                if class_name is None:
                    _rebind(raw, wrapped)

    # construction time and run count, outside the layer frame
    Simulator.__init__ = trace.count(Simulator.__init__, "sim.simulator.init")
    Simulator.run = trace.count(Simulator.run, "sim.simulator.runs")

    # guest resumes: a send proxy around every spawned generator
    spawn = Program.spawn

    class _GuestGen:
        __slots__ = ("send",)

        def __init__(self, gen) -> None:
            self.send = trace.wrap(gen.send, GUEST_LAYER)

    Program.spawn = lambda self: [_GuestGen(g) for g in spawn(self)]

    # the fan-out resolves its hooks dynamically: time each resolved hook
    fan_getattr = MonitorFanout.__getattr__
    MonitorFanout.__getattr__ = lambda self, name: trace.wrap(
        fan_getattr(self, name), "sim.trace")

    # layers whose time belongs to their callers: counted work only
    for name in ("run_chaos_case", "run_plan_case"):
        orig = getattr(runner, name)
        setattr(runner, name, trace.count(orig, "chaos.runner.cases"))
        _rebind(orig, getattr(runner, name))
    orig = cost.placement_cycles
    cost.placement_cycles = trace.count(orig, "synth.cost.probes")
    _rebind(orig, cost.placement_cycles)
    install_cache_counters(trace)
