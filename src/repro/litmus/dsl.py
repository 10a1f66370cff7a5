"""A tiny textual litmus-test format.

Litmus tests read much better as columns than as Python closures::

    test = parse_litmus('''
        name SB
        flag x y                  # set-scope-flag these variables
        init x=0 y=0

        x = 1        | y = 1
        fence        | fence
        r0 = y       | r1 = x

        exists r0 == 0 and r1 == 0
    ''')
    result = run_litmus(test)     # explores timing offsets
    assert not result.condition_observed

A sweep compiles the test once per process (:func:`compile_litmus`:
config, variable addresses, pre-built ops, register order) and runs
every offset pair on one machine, reset between pairs
(:func:`run_litmus`); :func:`build_program` instantiates a pair in a
fresh ``Env`` instead.

Statement forms (one row per pipeline step, threads separated by ``|``):

* ``var = N``            -- store the literal N
* ``reg = var``          -- load into a register (any ``r*`` name)
* ``fence``              -- traditional full fence
* ``fence.set``          -- S-FENCE[set,...] (over the ``flag``ged vars)
* ``fence.ss`` / ``fence.ll`` -- store-store / load-load ordering only
  (suffixes compose: ``fence.set.ss``)
* ``delay``              -- the per-thread exploration delay slot
* (empty cell)           -- no-op for this thread in this row

Directives: ``name``, ``init var=N ...``, ``flag var ...``, and a final
``exists <python expression over registers>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..isa.instructions import (
    WAIT_BOTH,
    WAIT_LOADS,
    WAIT_STORES,
    Compute,
    Fence,
    FenceKind,
    Load,
    Op,
    Store,
)
from ..isa.program import Program
from ..mem.memory import SharedMemory
from ..runtime.address_space import AddressSpace
from ..runtime.lang import Env
from ..sim.config import MemoryModel, SimConfig
from ..sim.simulator import Simulator
from .tests import DEFAULT_OFFSETS, LitmusResult

_STORE_RE = re.compile(r"^(\w+)\s*=\s*(-?\d+)$")
_LOAD_RE = re.compile(r"^(r\w*)\s*=\s*(\w+)$")
_FENCE_RE = re.compile(r"^fence((?:\.\w+)*)$")
#: the cycle limit of every offset pair's run
_MAX_CYCLES = 2_000_000


@dataclass
class LitmusTest:
    """A parsed litmus test."""

    name: str
    threads: list[list[str]]          # statements per thread
    init: dict[str, int] = field(default_factory=dict)
    flagged: set[str] = field(default_factory=set)
    condition: str | None = None      # python expression over registers

    @property
    def n_threads(self) -> int:
        return len(self.threads)


class LitmusParseError(ValueError):
    pass


def parse_litmus(text: str) -> LitmusTest:
    """Parse the textual format into a :class:`LitmusTest`."""
    name = "litmus"
    init: dict[str, int] = {}
    flagged: set[str] = set()
    condition: str | None = None
    rows: list[list[str]] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name "):
            name = line[5:].strip()
        elif line.startswith("init "):
            for assign in line[5:].split():
                var, _, value = assign.partition("=")
                if not value:
                    raise LitmusParseError(f"bad init clause {assign!r}")
                init[var.strip()] = int(value)
        elif line.startswith("flag "):
            flagged.update(line[5:].split())
        elif line.startswith("exists "):
            condition = line[7:].strip()
        else:
            rows.append([cell.strip() for cell in line.split("|")])

    if not rows:
        raise LitmusParseError("no thread statements found")
    n_threads = max(len(r) for r in rows)
    threads: list[list[str]] = [[] for _ in range(n_threads)]
    for row in rows:
        for t in range(n_threads):
            cell = row[t] if t < len(row) else ""
            if cell:
                threads[t].append(cell)
    return LitmusTest(name, threads, init, flagged, condition)


def stmt_kind(stmt: str) -> str:
    """Classify one DSL statement: ``store``/``load``/``fence``/``delay``.

    Raises :class:`LitmusParseError` on anything unrecognised, so the
    fence-mode rewriter in :mod:`repro.verify.modes` fails loudly
    instead of silently dropping a malformed statement.
    """
    if stmt == "delay":
        return "delay"
    if _STORE_RE.match(stmt):
        return "store"
    if _LOAD_RE.match(stmt):
        return "load"
    if _FENCE_RE.match(stmt):
        return "fence"
    raise LitmusParseError(f"cannot classify statement {stmt!r}")


def litmus_variables(test: LitmusTest) -> set[str]:
    """Every shared variable the test stores to or loads from."""
    out: set[str] = set()
    for stmts in test.threads:
        for stmt in stmts:
            m = _STORE_RE.match(stmt)
            if m:
                out.add(m.group(1))
                continue
            m = _LOAD_RE.match(stmt)
            if m:
                out.add(m.group(2))
    return out


def _parse_fence(suffixes: str) -> Fence:
    kind = FenceKind.GLOBAL
    waits = WAIT_BOTH
    for suffix in filter(None, suffixes.split(".")):
        if suffix == "set":
            kind = FenceKind.SET
        elif suffix == "class":
            kind = FenceKind.CLASS
        elif suffix == "ss":
            waits = WAIT_STORES
        elif suffix == "ll":
            waits = WAIT_LOADS
        else:
            raise LitmusParseError(f"unknown fence suffix {suffix!r}")
    return Fence(kind, waits)


@dataclass(frozen=True)
class CompiledLitmus:
    """A litmus test compiled for one sweep: everything but the delays.

    ``threads`` holds one ``(op, register)`` step per statement:
    ``(None, None)`` for ``delay``, ``(op, None)`` for a store or fence,
    and ``(load, register)`` for a load.  The ops are built once and
    shared by every run of the sweep (the simulator never mutates an op
    or keys on its identity).  ``init_writes`` are the ``(address,
    value)`` words each fresh memory starts with, and ``registers`` the
    sorted load registers, the order outcome tuples report them in.
    ``no_mid_delay`` holds when no thread has a ``delay`` statement, so
    a thread's only pause is the one it starts with.
    """

    name: str
    config: SimConfig
    threads: tuple[tuple[tuple[Op | None, str | None], ...], ...]
    init_writes: tuple[tuple[int, int], ...]
    registers: tuple[str, ...]
    no_mid_delay: bool


def litmus_config(
    test: LitmusTest,
    model: MemoryModel = MemoryModel.RMO,
    n_cores: int | None = None,
    mem_backend: str = "mesi",
) -> SimConfig:
    """The machine one litmus test runs on: Table III, at least two cores."""
    return SimConfig(
        n_cores=n_cores or max(2, test.n_threads), memory_model=model,
        mem_backend=mem_backend)


def compile_litmus(
    test: LitmusTest,
    model: MemoryModel = MemoryModel.RMO,
    n_cores: int | None = None,
    mem_backend: str = "mesi",
) -> CompiledLitmus:
    """Match every statement, allocate the variables and build the ops.

    Variables get addresses in first-use order, exactly as
    :meth:`repro.runtime.lang.Env.var` would hand them out, so every
    address and cache set is what a per-run allocation gives.  A
    statement that is no store, load, fence or ``delay`` raises
    :class:`LitmusParseError` here, before any simulation, on every
    call.  The result is memoised per process in the campaign warm slot
    ``litmus-compiled``, keyed on everything compiling reads.
    """
    from ..campaign.jobs import warm_slot

    memo = warm_slot("litmus-compiled")
    key = (test.name, tuple(tuple(stmts) for stmts in test.threads),
           tuple(sorted(test.init.items())), tuple(sorted(test.flagged)),
           model, n_cores, mem_backend)
    compiled = memo.get(key)
    if compiled is None:
        compiled = memo[key] = _compile(test, model, n_cores, mem_backend)
    return compiled


def _compile(
    test: LitmusTest,
    model: MemoryModel,
    n_cores: int | None,
    mem_backend: str,
) -> CompiledLitmus:
    config = litmus_config(test, model, n_cores, mem_backend)
    space = AddressSpace(config.mem_size_words, config.words_per_line)
    addrs: dict[str, int] = {}
    init_writes: list[tuple[int, int]] = []

    def addr_of(name: str) -> int:
        addr = addrs.get(name)
        if addr is None:
            addr = addrs[name] = space.alloc(name, 1)
            if test.init.get(name, 0):
                init_writes.append((addr, test.init[name]))
        return addr

    threads = []
    registers: set[str] = set()
    for stmts in test.threads:
        steps: list[tuple[Op | None, str | None]] = []
        for stmt in stmts:
            store = _STORE_RE.match(stmt)
            load = _LOAD_RE.match(stmt)
            # ``r0 = 1`` matches both forms and allocates both names,
            # which places every later variable: keep this order
            stored = addr_of(store.group(1)) if store else None
            loaded = addr_of(load.group(2)) if load else None
            if stmt == "delay":
                steps.append((None, None))
            elif store:
                var = store.group(1)
                steps.append((Store(stored, int(store.group(2)),
                                    flagged=var in test.flagged, name=var), None))
            elif load:
                var, reg = load.group(2), load.group(1)
                steps.append((Load(loaded, flagged=var in test.flagged, name=var), reg))
                registers.add(reg)
            else:
                fence = _FENCE_RE.match(stmt)
                if fence is None:
                    raise LitmusParseError(f"cannot parse statement {stmt!r}")
                steps.append((_parse_fence(fence.group(1)), None))
        threads.append(tuple(steps))
    no_mid_delay = all(op is not None for steps in threads for op, _ in steps)
    return CompiledLitmus(test.name, config, tuple(threads),
                          tuple(init_writes), tuple(sorted(registers)),
                          no_mid_delay)


def _write_init(compiled: CompiledLitmus, memory: SharedMemory) -> None:
    write = memory.write_global
    for addr, value in compiled.init_writes:
        write(addr, value)


def _pair_program(
    compiled: CompiledLitmus, delays: list[int]
) -> tuple[Program, dict[str, int]]:
    """The program one offset pair runs and the register dict it fills."""
    registers: dict[str, int] = {}

    def make_thread(steps, delay: int):
        pause = Compute(delay) if delay else None

        def body(tid: int):
            if pause is not None:
                yield pause
            for op, reg in steps:
                if op is None:
                    if pause is not None:
                        yield pause
                elif reg is None:
                    yield op
                else:
                    registers[reg] = yield op

        return body

    fns = [
        make_thread(steps, delays[t % len(delays)])
        for t, steps in enumerate(compiled.threads)
    ]
    return Program(fns, name=compiled.name), registers


def build_program(
    compiled: CompiledLitmus, delays: list[int]
) -> tuple[Env, Program, dict[str, int]]:
    """Instantiate a compiled test with per-thread delay values.

    Returns a fresh :class:`~repro.runtime.lang.Env` holding the init
    values, the program to run in it (``env.run(program)``) and the
    register dict its loads fill.  Nothing is shared between two
    instantiations but the compiled, immutable ops.
    """
    env = Env(compiled.config)
    _write_init(compiled, env.memory)
    program, registers = _pair_program(compiled, delays)
    return env, program, registers


def abstract_threads(test: LitmusTest) -> list[list[tuple]]:
    """Translate a parsed test into the reference model's abstract ops.

    The output feeds
    :func:`repro.core.semantics.reference_allowed_outcomes`:
    ``("store", var, value, flagged)`` / ``("load", var, reg, flagged)``
    / ``("fence", waits, scope)``.  ``delay`` statements are timing-only
    and vanish; a class fence in a litmus program (which has no method
    scopes) takes the conservative global interpretation, exactly as
    the FENCE rule does for an empty ``FSeq``.
    """
    threads: list[list[tuple]] = []
    for stmts in test.threads:
        ops: list[tuple] = []
        for stmt in stmts:
            if stmt == "delay":
                continue
            m = _STORE_RE.match(stmt)
            if m:
                var = m.group(1)
                ops.append(("store", var, int(m.group(2)), var in test.flagged))
                continue
            m = _LOAD_RE.match(stmt)
            if m:
                var = m.group(2)
                ops.append(("load", var, m.group(1), var in test.flagged))
                continue
            m = _FENCE_RE.match(stmt)
            if m:
                fence = _parse_fence(m.group(1))
                scope = "set" if fence.kind is FenceKind.SET else "global"
                ops.append(("fence", fence.waits, scope))
                continue
            raise LitmusParseError(f"cannot abstract statement {stmt!r}")
        threads.append(ops)
    return threads


def outcomes_matching(
    condition: str | None,
    register_names: list[str],
    outcomes,
) -> list[tuple]:
    """The outcome tuples (among ``outcomes``) satisfying ``condition``.

    This is the *single* code path that decides which concrete register
    tuples an ``exists`` clause names: :func:`run_litmus` derives
    ``condition_observed`` from it, :meth:`LitmusRun.matching_outcomes`
    delegates to it, the verify runner uses it to name the tuples a
    simulator sweep reached, and the fence synthesizer uses it to name
    the bad outcome a rejected candidate placement still admits.
    Callers used to re-derive the evaluation inline; keeping one
    implementation means every mismatch/counterexample message agrees
    on both the tuples and their (sorted) register order.
    """
    if not condition:
        return []
    code = _exists_code(condition)
    no_builtins = {"__builtins__": {}}
    return [
        outcome for outcome in sorted(outcomes, key=str)
        if eval(  # noqa: S307 - test-author expression
            code, no_builtins, dict(zip(register_names, outcome)))
    ]


@lru_cache(maxsize=256)
def _exists_code(condition: str):
    """An ``exists`` clause compiled once per process, not once per call."""
    return compile(condition, "<exists>", "eval")


@dataclass
class LitmusRun:
    """Outcome of exploring one litmus test."""

    test: LitmusTest
    outcomes: set[tuple]
    condition_observed: bool
    #: register names in the order outcome tuples report them: sorted,
    #: matching the reference/explorer allowed sets
    register_names: list[str]
    total_cycles: int = 0  # summed over all explored offset pairs

    def matching_outcomes(self) -> list[tuple]:
        """The observed outcomes satisfying the ``exists`` condition.

        These are the offending tuples when a forbidden condition was
        observed -- error reporting names them instead of just the test.
        """
        return outcomes_matching(
            self.test.condition, self.register_names, self.outcomes
        )


def run_content_key(test: LitmusTest, config: SimConfig) -> tuple:
    """What one offset pair's run of ``test`` under ``config`` depends on.

    The config, the thread statements, the init values and the flagged
    set; not the test's name, which no run reads, nor its ``exists``
    clause, which only judges the outcomes afterwards.  Variants that
    rewrite to the same program (SB with its fences stripped is SB)
    share a key, and so their runs.
    """
    return (
        config,
        tuple(tuple(stmts) for stmts in test.threads),
        tuple(sorted(test.init.items())),
        tuple(sorted(test.flagged)),
    )


def schedule_key(
    compiled: CompiledLitmus, d0: int, d1: int
) -> tuple[tuple[int, int], int]:
    """The ``litmus-runs`` key of offset pair ``(d0, d1)`` and its shift.

    When both delays are at least 1 and no thread has a mid-thread
    ``delay``, every thread starts with ``Compute(d)`` and the machine
    stays cold and untouched until the shorter pause ends.  Nothing a
    litmus run reads depends on the absolute cycle, so the run is the
    run of ``(d0 - m, d1 - m)`` moved ``m = min(d0, d1) - 1`` cycles
    later: the same outcome, ``m`` more cycles.  That representative is
    the key, and ``m`` the shift.  Any other pair is its own key, with
    shift 0: a zero delay means no pause at all, and a mid-thread
    ``delay`` pauses again by its absolute length.
    """
    if compiled.no_mid_delay and d0 >= 1 and d1 >= 1:
        m = min(d0, d1) - 1
        return (d0 - m, d1 - m), m
    return (d0, d1), 0


def run_litmus(
    test: LitmusTest,
    model: MemoryModel = MemoryModel.RMO,
    offsets: list[int] | None = None,
    n_cores: int | None = None,
    mem_backend: str = "mesi",
) -> LitmusRun:
    """Explore timing offsets; evaluate the ``exists`` condition.

    The test compiles once (:func:`compile_litmus`).  The offset pairs
    it simulates share one :class:`~repro.sim.simulator.Simulator`,
    built for the first and reset (memory, backend, cores) before each
    later one; each run's cycles and registers are read before the
    next reset.  A run is a pure function of :func:`run_content_key`
    and its schedule, so each pair's ``(cycles, outcome)`` is memoised
    per process in the campaign warm slot ``litmus-runs``, under
    :func:`schedule_key` and with its shift taken off the cycles: a
    pair that any earlier sweep in this process simulated, or whose
    time-shifted representative it simulated, is not simulated again,
    and ``outcomes`` and ``total_cycles`` come out exactly as if it
    were.  A derived run whose cycles would reach the cycle limit is
    simulated, so that it raises the limit's error.
    """
    from ..campaign.jobs import warm_slot

    offsets = offsets or DEFAULT_OFFSETS
    compiled = compile_litmus(test, model, n_cores, mem_backend)
    names = compiled.registers
    runs = warm_slot("litmus-runs").setdefault(
        run_content_key(test, compiled.config), {})
    outcomes: set[tuple] = set()
    total_cycles = 0
    sim = None
    for d0 in offsets:
        for d1 in offsets:
            key, shift = schedule_key(compiled, d0, d1)
            run = runs.get(key)
            if run is None or run[0] + shift >= _MAX_CYCLES:
                program, registers = _pair_program(compiled, [d0, d1])
                if sim is None:
                    sim = Simulator(compiled.config, program)
                else:
                    sim.memory.reset()
                    sim.reset(program)
                _write_init(compiled, sim.memory)
                cycles = sim.run(max_cycles=_MAX_CYCLES).cycles
                run = runs[key] = (
                    cycles - shift, tuple(registers.get(r) for r in names))
            total_cycles += run[0] + shift
            outcomes.add(run[1])
    observed = bool(outcomes_matching(test.condition, names, outcomes))
    return LitmusRun(test, outcomes, observed, list(names), total_cycles)
