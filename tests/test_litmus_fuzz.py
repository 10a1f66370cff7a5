"""Differential litmus fuzzing: simulator vs the reference memory model.

Seeded random small programs are generated in the textual litmus DSL,
explored on the simulator across timing offsets, and every observed
register outcome is checked against the allowed set of the reference
model in :mod:`repro.core.semantics`.  The reference is deliberately
weaker than the simulator, so ``observed ⊆ allowed`` must hold for
*every* program; any excess outcome is a fence-semantics bug.

The sweep is a deterministic pytest matrix over **fence modes x seeds
x coherence backends**, so a failure names its exact cell (e.g.
``test_simulator_outcomes_within_reference[scoped-3-sisd]``) and that
one cell reruns in isolation:

* ``plain``  -- traditional fences only (``fence``/``.ss``/``.ll``);
* ``scoped`` -- S-Fence set fences only, over ``flag``-ged variables;
* ``mixed``  -- both families interleaved in one program.

Generation constraints keep the reference sound and the enumeration
exact:

* a thread never loads a variable it stored earlier (store->load
  forwarding interacts with fences in ways a plain interleaving model
  cannot express -- see the reference-model comment block), and
* at most four memory operations per thread, so the allowed set is
  enumerated exhaustively rather than sampled.

Every program runs under each coherence backend (MESI and SiSd):
backends are timing models, so a backend that leaked stale values into
register outcomes would surface here as an outcome outside the
reference allowed set.

The base seed is pinned (``LITMUS_FUZZ_SEED``, default 0) so CI runs
are reproducible; bump the env var locally to explore fresh programs.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.semantics import reference_allowed_outcomes
from repro.litmus.dsl import abstract_threads, pair_grid, parse_litmus, run_litmus
from repro.sim.config import MEM_BACKENDS, MemoryModel

SEED_BASE = int(os.environ.get("LITMUS_FUZZ_SEED", "0"))
N_PROGRAMS_PER_MODE = 6

#: delay offsets explored per program: enough spread to move stores
#: across drain boundaries without exploding runtime
OFFSETS = [0, 3, 47, 160]

_VARS = ("x", "y", "z")
_PLAIN_FENCES = ("fence", "fence.ss", "fence.ll")
_SET_FENCES = ("fence.set", "fence.set.ss", "fence.set.ll")
_MAX_MEM_OPS = 4

#: fence-mode axis of the fuzz matrix: which fence family a program draws
FUZZ_MODES = {
    "plain": _PLAIN_FENCES,
    "scoped": _SET_FENCES,
    "mixed": _PLAIN_FENCES + _SET_FENCES,
}


def generate_program(seed: int, mode: str = "mixed") -> str:
    """One random two-thread litmus program in the textual DSL."""
    fences = FUZZ_MODES[mode]
    rng = random.Random(f"litmus-fuzz:{mode}:{seed}")
    use_set = mode != "plain"  # scoped/mixed programs flag variables
    flagged = sorted(rng.sample(_VARS, rng.randint(1, 2))) if use_set else []

    next_value = 1
    next_reg = 0
    threads: list[list[str]] = []
    for tid in range(2):
        stmts: list[str] = []
        stored: set[str] = set()
        mem_ops = 0
        for _ in range(rng.randint(3, 5)):
            roll = rng.random()
            if roll < 0.40 and mem_ops < _MAX_MEM_OPS:
                var = rng.choice(_VARS)
                stmts.append(f"{var} = {next_value}")
                next_value += 1
                stored.add(var)
                mem_ops += 1
            elif roll < 0.80 and mem_ops < _MAX_MEM_OPS:
                loadable = [v for v in _VARS if v not in stored]
                if not loadable:
                    continue
                stmts.append(f"r{next_reg} = {rng.choice(loadable)}")
                next_reg += 1
                mem_ops += 1
            elif roll < 0.95:
                stmts.append(rng.choice(fences))
            else:
                stmts.append("delay")
        threads.append(_placed_delays(stmts))

    lines = [f"name fuzz-{seed}"]
    if flagged:
        lines.append("flag " + " ".join(flagged))
    for tid, stmts in enumerate(threads):
        for stmt in stmts:
            cells = ["", ""]
            cells[tid] = stmt
            lines.append(" | ".join(cells))
    return "\n".join(lines)


def _placed_delays(stmts: list[str]) -> list[str]:
    """``stmts`` with every ``delay`` draw where the DSL accepts it.

    A ``delay`` must sit between two ops of its thread, and stripping
    the fences (synthesis, the ``none`` fence mode) must not leave one
    leading, trailing or doubled, so only memory ops count as its
    neighbours.  A draw that sits between two memory ops with no other
    ``delay`` stays; any other moves to the first later place that
    does, and is dropped when there is none.  The draws are made first,
    so every other statement is unchanged.
    """
    def is_mem(stmt: str) -> bool:
        return stmt != "delay" and not stmt.startswith("fence")

    out, after_mem, pending = [], False, False
    for i, stmt in enumerate(stmts):
        if stmt == "delay":
            pending = True
        else:
            out.append(stmt)
            after_mem = after_mem or is_mem(stmt)
        if pending and after_mem and any(map(is_mem, stmts[i + 1:])):
            out.append("delay")
            after_mem = pending = False
    return out


def _has_work(source: str) -> bool:
    test = parse_litmus(source)
    ops = [op for ops in abstract_threads(test) for op in ops]
    return (any(op[0] == "load" for op in ops)
            and any(op[0] == "store" for op in ops))


def _fuzz_seeds(mode: str) -> list[int]:
    """N seeds for one mode, skipping workless generations."""
    seeds, candidate = [], SEED_BASE
    while len(seeds) < N_PROGRAMS_PER_MODE:
        if _has_work(generate_program(candidate, mode)):
            seeds.append(candidate)
        candidate += 1
    return seeds


_MATRIX = [(mode, seed, backend)
           for mode in FUZZ_MODES
           for seed in _fuzz_seeds(mode)
           for backend in MEM_BACKENDS]


@pytest.mark.parametrize("mode,seed,backend", _MATRIX,
                         ids=[f"{m}-{s}-{b}" for m, s, b in _MATRIX])
def test_simulator_outcomes_within_reference(mode, seed, backend):
    source = generate_program(seed, mode)
    test = parse_litmus(source)
    allowed = reference_allowed_outcomes(abstract_threads(test), dict(test.init))
    run = run_litmus(test, MemoryModel.RMO, pair_grid(test, OFFSETS),
                     mem_backend=backend)
    extra = run.outcomes - allowed
    assert not extra, (
        f"simulator observed outcomes outside the reference allowed set\n"
        f"fence mode {mode}, seed {seed}, backend {backend}; program:\n{source}\n"
        f"registers: {run.register_names}\n"
        f"extra outcomes: {sorted(extra)}\n"
        f"allowed: {sorted(allowed)}"
    )


def test_generation_is_deterministic():
    assert generate_program(5, "mixed") == generate_program(5, "mixed")
    assert generate_program(5, "mixed") != generate_program(6, "mixed")
    assert generate_program(5, "plain") != generate_program(5, "scoped")


def test_modes_generate_their_fence_families():
    """Each matrix row exercises the fence family it names."""
    plain = [generate_program(s, "plain") for s in _fuzz_seeds("plain")]
    scoped = [generate_program(s, "scoped") for s in _fuzz_seeds("scoped")]
    mixed = [generate_program(s, "mixed") for s in _fuzz_seeds("mixed")]
    assert not any("fence.set" in s or "flag " in s for s in plain)
    assert any("fence\n" in s or "fence " in s or "fence.ss" in s
               or "fence.ll" in s for s in plain)
    assert all("flag " in s for s in scoped)
    assert any("fence.set" in s for s in scoped)
    assert any("fence.set" in s for s in mixed)


# ---------------------------------------------------------- reference pinning
def _allowed(source: str) -> set[tuple]:
    test = parse_litmus(source)
    return reference_allowed_outcomes(abstract_threads(test), dict(test.init))


def test_reference_allows_sb_relaxation():
    allowed = _allowed("""
        name SB
        x = 1  | y = 1
        r0 = y | r1 = x
    """)
    assert (0, 0) in allowed and (1, 1) in allowed


def test_reference_forbids_fenced_sb():
    allowed = _allowed("""
        name SB+fences
        x = 1  | y = 1
        fence  | fence
        r0 = y | r1 = x
    """)
    assert (0, 0) not in allowed
    assert allowed == {(0, 1), (1, 0), (1, 1)}


def test_reference_ll_fence_does_not_order_stores():
    allowed = _allowed("""
        name SB+ll
        x = 1    | y = 1
        fence.ll | fence.ll
        r0 = y   | r1 = x
    """)
    assert (0, 0) in allowed  # load-load fences leave SB observable


def test_reference_set_fence_scopes_only_flagged_vars():
    # x is flagged: the set fence orders the x-store; y is not, so
    # thread 1's store may still float past its fence
    fenced = _allowed("""
        name SB+set
        flag x y
        x = 1     | y = 1
        fence.set | fence.set
        r0 = y    | r1 = x
    """)
    assert (0, 0) not in fenced
    partial = _allowed("""
        name SB+set-partial
        flag x
        x = 1     | y = 1
        fence.set | fence.set
        r0 = y    | r1 = x
    """)
    assert (0, 0) in partial  # y out of scope: relaxation still allowed


def test_reference_preserves_coherence():
    allowed = _allowed("""
        name CoWR
        x = 1  | r0 = x
        x = 2  | r1 = x
    """)
    assert (2, 1) not in allowed  # never new-then-old at one location
