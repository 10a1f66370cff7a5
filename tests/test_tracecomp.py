"""Unit tests for the trace compiler and the block-boundary markers.

Block *admission* is exercised end-to-end by the differential suites
(tests/test_fastpath_equivalence.py runs every workload under all three
engines); this file covers the compiler itself -- segmentation, the
cut-point taxonomy, signature memoisation -- and the runtime layer's
``block()`` / ``load_block`` / ``store_block`` markers, including the
hint contract (results discarded, identical behaviour on every engine).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cpu.rob import K_COMPUTE, K_LOAD, K_STORE
from repro.isa.instructions import Compute, Fence, FenceKind, Load, Store
from repro.isa.program import Program
from repro.runtime.lang import Env, block, reset_cids
from repro.sim.config import SimConfig
from repro.sim.tracecomp import (
    MIN_BLOCK,
    BlockHint,
    CompiledBlock,
    block_signature,
    compile_ops,
)

ENGINES = {
    "dense": dict(dense_loop=True),
    "event": dict(dense_loop=False, trace_compile=False),
    "compiled": dict(dense_loop=False, trace_compile=True),
}


# ------------------------------------------------------------------- compiler
def test_compile_ops_segments_at_cut_points():
    ops = [Store(0, 1), Load(8), Fence(FenceKind.GLOBAL),
           Compute(3), Store(16, 2)]
    units = compile_ops(ops)
    assert [type(u) for u in units] == [CompiledBlock, Fence, CompiledBlock]
    assert units[0].n == 2 and units[2].n == 2


def test_compile_ops_short_runs_stay_interpreted():
    # a lone blockable op between cut points is cheaper interpreted
    assert MIN_BLOCK == 2
    ops = [Load(0), Fence(FenceKind.GLOBAL), Store(8, 1)]
    units = compile_ops(ops)
    assert units == ops  # no blocks formed, original ops preserved


def test_flagged_and_serialize_ops_are_cut_points():
    ops = [Load(0), Load(8, flagged=True), Store(16, 1),
           Load(24, serialize=True), Store(32, 2), Store(40, 3)]
    units = compile_ops(ops)
    # flagged load and serialize load split the stream; only the final
    # two stores form a run long enough to compile
    assert [type(u) for u in units] == [Load, Load, Store, Load,
                                        CompiledBlock]
    assert units[-1].n == 2


def test_block_signature_compute_latency_in_addr_slot():
    sig = block_signature([Load(64), Store(8, 5), Compute(7), Compute(0)])
    assert sig == ((K_LOAD, 64, 0), (K_STORE, 8, 5),
                   (K_COMPUTE, 7, 0), (K_COMPUTE, 1, 0))


def test_blocks_memoised_by_signature():
    a = compile_ops([Load(128), Store(136, 1)])[0]
    b = compile_ops([Load(128, name="other"), Store(136, 1)])[0]
    assert a is b  # names don't enter the signature; the block is shared


def test_blockhint_rejects_non_ops():
    with pytest.raises(TypeError):
        BlockHint([Load(0), "not an op"])


# --------------------------------------------------- block-boundary markers
def _run_marked_guest(engine: str):
    """A dynamic guest using every marker form, under one engine."""
    reset_cids()
    env = Env(SimConfig(n_cores=2, **ENGINES[engine]))
    data = env.line_array("data", 8)
    flags = env.array("flags", 4, flagged=True)
    done = env.var("done")

    def writer(tid):
        # scatter via the array marker, then a hand-rolled block with a
        # cut point (the flagged store) inside it
        yield data.store_block((i, i + 1) for i in range(8))
        yield block([Store(data.addr_of(0) + 1, 9), flags.store(0, 1),
                     Compute(4), Store(data.addr_of(1) + 1, 9)])
        yield Fence(FenceKind.GLOBAL)
        yield done.store(1)

    def reader(tid):
        while (yield done.load()) != 1:
            yield Compute(2)
        # gather: values are discarded by contract
        got = yield data.load_block(range(8))
        assert got is None
        total = 0
        for i in range(8):
            total += yield data.load(i)
        yield block([])  # empty hint is a no-op
        yield done.store(total)

    res = env.run(Program([writer, reader], name="marked"),
                  max_cycles=200_000)
    return {
        "cycles": res.cycles,
        "stats": [dataclasses.asdict(c) for c in res.stats.cores],
        "memory_sha": hashlib.sha256(repr(
            sorted(env.memory.snapshot().items())).encode()).hexdigest(),
        "done": done.peek(),
    }


def test_marked_guest_equivalent_on_all_engines():
    dense = _run_marked_guest("dense")
    assert dense["done"] == sum(range(1, 9))
    for engine in ("event", "compiled"):
        assert _run_marked_guest(engine) == dense, engine


def test_record_program_expands_block_hints():
    # the delay-set replay (synth's skeleton recorder) must see through
    # hints: same accesses, fences and memory effects as the plain form
    from repro.apps.delay_set import record_program

    reset_cids()
    env = Env(SimConfig(n_cores=2))
    data = env.line_array("data", 4)
    flag = env.var("flag", flagged=True)

    def hinted(tid):
        yield data.store_block((i, i + 10) for i in range(4))
        yield Fence(FenceKind.GLOBAL, name="pub")
        yield flag.store(1)

    def plain(tid):
        for i in range(4):
            yield data.store(i, i + 10)
        yield Fence(FenceKind.GLOBAL, name="pub")
        yield flag.store(1)

    hinted_sk = record_program(Program([hinted], name="h"), env.memory)
    plain_sk = record_program(Program([plain], name="p"), env.memory)
    assert hinted_sk.threads == plain_sk.threads
    assert hinted_sk.fences == plain_sk.fences
    assert data.peek(2) == 12  # hint effects reached functional memory


def test_store_block_values_visible():
    reset_cids()
    env = Env(SimConfig(n_cores=1))
    arr = env.array("a", 4)

    def body(tid):
        yield arr.store_block(enumerate((3, 1, 4, 1)))
        yield Fence(FenceKind.GLOBAL)

    env.run(Program([body]), max_cycles=50_000)
    assert [arr.peek(i) for i in range(4)] == [3, 1, 4, 1]
