"""Compile-once litmus sweeps against a build-everything-per-run reference.

:func:`run_litmus` compiles a test once (config, variable addresses,
ops, register order) and runs every schedule on one simulator, reset
between runs.  These tests hold that path to a reference that builds
everything afresh for every schedule -- config, ``Env``, variables
through ``Env.var``, a simulator, and thread bodies that match each
statement and pause each gap as they run -- schedule by schedule:
outcome, cycles, every per-core counter and the final memory, on both
backends.  A reset that leaks timing state can leave the outcomes
unchanged, but not the counters.  They also check that two
instantiations of one compiled test share nothing a run can change: no
memory word and no register leaks from one schedule to the next.
"""

import dataclasses

import pytest

from repro.isa.instructions import (
    WAIT_BOTH,
    WAIT_LOADS,
    WAIT_STORES,
    Compute,
    Fence,
    FenceKind,
    Load,
    Store,
)
from repro.isa.program import Program
from repro.litmus.corpus import CORPUS
from repro.campaign.jobs import clear_warm_state, warm_slot
from repro.litmus.dsl import (
    build_program,
    compile_litmus,
    pair_grid,
    parse_litmus,
    run_content_key,
    run_litmus,
    schedule_key,
    stmt_kind,
)
from repro.runtime.lang import Env
from repro.sim.config import MEM_BACKENDS, MemoryModel, SimConfig
from repro.sim.simulator import Simulator
from repro.verify.modes import FENCE_MODES, apply_fence_mode

OFFSETS = [0, 1, 40]
MAX_CYCLES = 2_000_000

_FENCE_KINDS = {"set": FenceKind.SET, "class": FenceKind.CLASS}
_FENCE_WAITS = {"ss": WAIT_STORES, "ll": WAIT_LOADS}


def _reference_fence(stmt: str) -> Fence:
    kind, waits = FenceKind.GLOBAL, WAIT_BOTH
    for suffix in stmt.split(".")[1:]:
        kind = _FENCE_KINDS.get(suffix, kind)
        waits = _FENCE_WAITS.get(suffix, waits)
    return Fence(kind, waits)


def _reference_program(test, env: Env, schedule):
    """``test`` instantiated in ``env`` with no compiled products.

    Every variable is allocated through ``Env.var`` in statement order
    before the run; the thread bodies classify each statement and build
    its op only when they reach it, after pausing the op's gap.
    """
    variables = {}
    for stmts in test.threads:
        for stmt in stmts:
            kind = stmt_kind(stmt)
            if kind in ("store", "load"):
                lhs, _, rhs = (part.strip() for part in stmt.partition("="))
                name = lhs if kind == "store" else rhs
                if name not in variables:
                    variables[name] = env.var(
                        name, init=test.init.get(name, 0),
                        flagged=name in test.flagged)
    registers = {}

    def thread(stmts, gaps):
        def body(tid):
            ops = (stmt for stmt in stmts if stmt_kind(stmt) != "delay")
            for gap, stmt in zip(gaps, ops):
                if gap:
                    yield Compute(gap)
                kind = stmt_kind(stmt)
                lhs, _, rhs = (part.strip() for part in stmt.partition("="))
                if kind == "store":
                    yield variables[lhs].store(int(rhs))
                elif kind == "load":
                    registers[lhs] = yield variables[rhs].load()
                else:
                    yield _reference_fence(stmt)

        return body

    fns = [thread(stmts, gaps) for stmts, gaps in zip(test.threads, schedule)]
    return Program(fns, name=test.name), registers


def _run_record(result) -> tuple:
    """What one run left: cycles, every per-core counter and the final
    memory, read before anything can reset it."""
    return (result.cycles,
            [dataclasses.asdict(c) for c in result.stats.cores],
            result.memory.snapshot())


def _reference_runs(test, backend: str) -> list:
    """Per schedule of ``OFFSETS``, in sweep order: ``(outcome, run
    record)`` with everything rebuilt for the run, and the register
    names."""
    runs, names = [], []
    for schedule in pair_grid(test, OFFSETS):
        env = Env(SimConfig(
            n_cores=max(2, test.n_threads), memory_model=MemoryModel.RMO,
            mem_backend=backend))
        program, registers = _reference_program(test, env, schedule)
        record = _run_record(env.run(program, max_cycles=MAX_CYCLES))
        names = sorted(registers)
        runs.append((tuple(registers[r] for r in names), record))
    return runs, names


def _reference_sweep(test, backend: str) -> tuple[set, list, int]:
    """Outcomes, register names and summed cycles, everything rebuilt
    for every schedule."""
    runs, names = _reference_runs(test, backend)
    return ({outcome for outcome, _ in runs}, names,
            sum(record[0] for _, record in runs))


@pytest.fixture
def run_records(monkeypatch) -> list:
    """The run record of every ``Simulator.run``, taken as it returns."""
    records = []
    run = Simulator.run

    def recorded(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        records.append(_run_record(result))
        return result

    monkeypatch.setattr(Simulator, "run", recorded)
    return records


def _check_sweep(entry, backend: str, run_records: list) -> None:
    """Every fence-mode variant the verify matrix runs, schedule by
    schedule: each schedule the sweep simulates (the first of its key)
    leaves the same outcome, cycles, per-core counters and final memory
    as rebuilding everything for the run; every schedule's memo entry,
    shift added back, is that schedule's own outcome and cycles; and the
    outcome set and total cycles over the sweep are the reference's."""
    for mode in FENCE_MODES:
        test = apply_fence_mode(parse_litmus(entry.source), mode)
        want, names = _reference_runs(test, backend)
        clear_warm_state()
        del run_records[:]
        schedules = pair_grid(test, OFFSETS)
        run = run_litmus(test, MemoryModel.RMO, schedules, mem_backend=backend)
        assert run.register_names == names
        compiled = compile_litmus(test, mem_backend=backend)
        memo = warm_slot("litmus-runs")[run_content_key(test, compiled.config)]
        keys = [schedule_key(schedule) for schedule in schedules]
        first: dict[tuple, int] = {}
        for n, (key, _) in enumerate(keys):
            first.setdefault(key, n)
        assert len(run_records) == len(first), f"{entry.name}[{mode}] runs"
        for n, record in zip(first.values(), run_records):
            assert record == want[n][1], (
                f"{entry.name}[{mode}] schedule {schedules[n]}")
        for schedule, (key, shift), (outcome, expected) in zip(
                schedules, keys, want):
            cycles, memo_outcome = memo[key]
            assert (cycles + shift, memo_outcome) == (expected[0], outcome), (
                f"{entry.name}[{mode}] schedule {schedule} outcome")
        assert run.outcomes == {outcome for outcome, _ in want}, (
            f"{entry.name}[{mode}] outcomes")
        assert run.total_cycles == sum(r[0] for _, r in want), (
            f"{entry.name}[{mode}] cycles")


@pytest.mark.parametrize("backend", MEM_BACKENDS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_sweep_matches_fresh_per_pair_reference(entry, backend, run_records):
    """Schedule by schedule (:func:`_check_sweep`)."""
    _check_sweep(entry, backend, run_records)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_compiled_layout_matches_env_allocation(entry):
    """Addresses, flag bits, init words and register order are what a
    per-run ``Env`` allocation gives, so every cache set is unchanged."""
    for mode in FENCE_MODES:
        test = apply_fence_mode(parse_litmus(entry.source), mode)
        compiled = compile_litmus(test)
        env = Env(compiled.config)
        unpaused = pair_grid(test, [0])[0]
        _, registers = _reference_program(test, env, unpaused)
        compiled_vars = {
            op.name: (op.addr, op.flagged)
            for steps in compiled.threads for op, _ in steps
            if isinstance(op, (Load, Store))
        }
        env_vars = {
            name: (base, name in test.flagged)
            for name, (base, _) in env.space.regions().items()
        }
        assert compiled_vars == env_vars, f"{entry.name}[{mode}]"
        fresh = build_program(compiled, unpaused)[0]
        assert fresh.memory.snapshot() == env.memory.snapshot()
        loads = {s.partition("=")[0].strip()
                 for stmts in test.threads for s in stmts
                 if stmt_kind(s) == "load"}
        assert compiled.registers == tuple(sorted(loads))


def _observe(env, program, registers):
    res = env.run(program, max_cycles=MAX_CYCLES)
    return (dict(registers), res.cycles,
            [dataclasses.asdict(c) for c in res.stats.cores])


@pytest.mark.parametrize("backend", MEM_BACKENDS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_instantiations_share_no_state(entry, backend):
    """Two instances of one compiled test are independent runs: the
    second starts from the init values with no register set, whether it
    was built before or after the first one ran, and both produce the
    same registers, cycles and per-core counters."""
    test = parse_litmus(entry.source)
    compiled = compile_litmus(test, mem_backend=backend)
    pairs = [(d0, d1) for d0 in OFFSETS for d1 in OFFSETS]
    grid = dict(zip(pairs, pair_grid(test, OFFSETS)))
    for schedule in (grid[0, 0], grid[1, 40], grid[40, 0]):
        first = build_program(compiled, schedule)
        second = build_program(compiled, schedule)
        pristine = second[0].memory.snapshot()
        ran_first = _observe(*first)
        assert second[2] == {}, f"registers leaked at schedule {schedule}"
        assert second[0].memory.snapshot() == pristine, (
            f"memory leaked at schedule {schedule}")
        assert _observe(*second) == ran_first
        assert _observe(*build_program(compiled, schedule)) == ran_first
