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

from ..isa.instructions import Compute, Fence, FenceKind, WAIT_BOTH, WAIT_LOADS, WAIT_STORES
from ..isa.program import Program
from ..runtime.lang import Env
from ..sim.config import MemoryModel, SimConfig
from .tests import DEFAULT_OFFSETS, LitmusResult

_STORE_RE = re.compile(r"^(\w+)\s*=\s*(-?\d+)$")
_LOAD_RE = re.compile(r"^(r\w*)\s*=\s*(\w+)$")
_FENCE_RE = re.compile(r"^fence((?:\.\w+)*)$")


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


def _parse_fence(suffixes: str, flagged: bool) -> Fence:
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


def build_program(test: LitmusTest, env: Env, delays: list[int]) -> tuple[Program, dict]:
    """Instantiate the test in ``env`` with per-thread delay values."""
    variables = {}

    def var_of(name: str):
        if name not in variables:
            variables[name] = env.var(
                name, init=test.init.get(name, 0), flagged=name in test.flagged
            )
        return variables[name]

    # match every statement once, materialising all variables up front
    # so inits apply before any run; the thread bodies then dispatch on
    # the pre-parsed tuples instead of re-matching in every simulation
    parsed: list[list[tuple]] = []
    for row in test.threads:
        steps = []
        for stmt in row:
            store = _STORE_RE.match(stmt)
            load = _LOAD_RE.match(stmt)
            # ``r0 = 1`` matches both forms and materialises both names,
            # which places every later variable: keep this order
            stored = var_of(store.group(1)) if store else None
            loaded = var_of(load.group(2)) if load else None
            if stmt == "delay":
                steps.append(("delay",))
            elif store:
                steps.append(("store", stored, int(store.group(2))))
            elif load:
                steps.append(("load", loaded, load.group(1)))
            else:
                fence = _FENCE_RE.match(stmt)
                steps.append(("fence", fence.group(1)) if fence else ("bad", stmt))
        parsed.append(steps)

    registers: dict[str, int] = {}

    def make_thread(steps: list[tuple], delay: int):
        def body(tid: int):
            if delay:
                yield Compute(delay)
            for step in steps:
                kind = step[0]
                if kind == "delay":
                    if delay:
                        yield Compute(delay)
                elif kind == "store":
                    yield step[1].store(step[2])
                elif kind == "load":
                    registers[step[2]] = yield step[1].load()
                elif kind == "fence":
                    yield _parse_fence(step[1], True)
                else:
                    raise LitmusParseError(f"cannot parse statement {step[1]!r}")

        return body

    fns = [
        make_thread(steps, delays[t % len(delays)])
        for t, steps in enumerate(parsed)
    ]
    return Program(fns, name=test.name), registers


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
                fence = _parse_fence(m.group(1), True)
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
    matched = []
    for outcome in sorted(outcomes, key=str):
        env = dict(zip(register_names, outcome))
        if eval(  # noqa: S307 - test-author expression
            condition, {"__builtins__": {}}, env
        ):
            matched.append(outcome)
    return matched


@dataclass
class LitmusRun:
    """Outcome of exploring one litmus test."""

    test: LitmusTest
    outcomes: set[tuple]
    condition_observed: bool
    total_cycles: int = 0  # summed over all explored offset pairs

    @property
    def register_names(self) -> list[str]:
        """Register names in the order outcome tuples are reported.

        Sorted, matching both :func:`run_litmus` (which records
        ``tuple(registers[r] for r in sorted(registers))``) and the
        reference/explorer allowed sets -- it used to return program
        order, which mislabelled the columns of any test whose loads
        are not already alphabetical (MP's ``rw`` poll, for one).
        """
        names: set[str] = set()
        for stmts in self.test.threads:
            for stmt in stmts:
                m = _LOAD_RE.match(stmt)
                if m:
                    names.add(m.group(1))
        return sorted(names)

    def matching_outcomes(self) -> list[tuple]:
        """The observed outcomes satisfying the ``exists`` condition.

        These are the offending tuples when a forbidden condition was
        observed -- error reporting names them instead of just the test.
        """
        return outcomes_matching(
            self.test.condition, self.register_names, self.outcomes
        )


def run_litmus(
    test: LitmusTest,
    model: MemoryModel = MemoryModel.RMO,
    offsets: list[int] | None = None,
    n_cores: int | None = None,
    dense_loop: bool = False,
    mem_backend: str = "mesi",
) -> LitmusRun:
    """Explore timing offsets; evaluate the ``exists`` condition."""
    offsets = offsets or DEFAULT_OFFSETS
    cores = n_cores or max(2, test.n_threads)
    outcomes: set[tuple] = set()
    total_cycles = 0
    reg_names: list[str] | None = None
    for d0 in offsets:
        for d1 in offsets:
            env = Env(SimConfig(
                n_cores=cores, memory_model=model, dense_loop=dense_loop,
                mem_backend=mem_backend))
            program, registers = build_program(test, env, [d0, d1])
            res = env.run(program, max_cycles=2_000_000)
            total_cycles += res.cycles
            if reg_names is None:
                reg_names = sorted(registers)
            outcomes.add(tuple(registers.get(r) for r in reg_names))
    observed = bool(
        outcomes_matching(test.condition, reg_names or [], outcomes)
    )
    return LitmusRun(test, outcomes, observed, total_cycles)
