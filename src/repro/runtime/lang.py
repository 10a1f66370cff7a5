"""The "language + compiler" layer for guest programs.

The paper's compiler support is deliberately small (Sections IV-A1 and
V-A1): wrap every public method of a scoped class in ``fs_start cid`` /
``fs_end cid``, and flag the loads/stores of the variables named by a
set-scope fence.  This module performs exactly those transformations on
guest instruction streams:

* :class:`Env` owns the functional memory + address space and hands out
  :class:`SharedVar` / :class:`SharedArray` handles whose ``load`` /
  ``store`` / ``cas`` methods build the corresponding ISA ops (with the
  set-scope ``flagged`` bit when requested).
* :func:`scoped_method` wraps a generator method so that ``fs_start``
  is emitted at entry and ``fs_end`` at *every* exit -- normal return,
  early return, or exception -- mirroring "for each public function, we
  insert fs_start at the entry ... and insert fs_end for each exit".
* :class:`ScopedStructure` is the base class concurrent data structures
  derive from; it assigns each class a unique *cid* and resolves the
  fence kind from the structure's configured scope
  (GLOBAL / CLASS / SET), so one implementation serves the traditional
  baseline, class scope, and set scope (Figure 14 compares the latter
  two).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Generator

from ..isa.instructions import (
    Cas,
    Fence,
    FenceKind,
    FsEnd,
    FsStart,
    Load,
    Op,
    Store,
    WAIT_BOTH,
)
from ..mem.memory import SharedMemory
from ..sim.config import SimConfig
from ..sim.simulator import Simulator, SimResult
from ..isa.program import Program
from .address_space import AddressSpace

_cid_counter = itertools.count(1)
_cid_registry: dict[type, int] = {}


def cid_of(cls: type) -> int:
    """The unique class id assigned to a scoped class (lazily)."""
    cid = _cid_registry.get(cls)
    if cid is None:
        cid = next(_cid_counter)
        _cid_registry[cls] = cid
    return cid


def reset_cids() -> None:
    """Forget every lazily assigned class id.

    cid *values* never influence simulation behaviour (they are opaque
    mapping-table keys), but they do appear in monitor event streams and
    depend on which classes were touched first in a process.  The
    campaign engine resets them before each job so a job's full event
    stream -- not just its stats -- is identical no matter which worker
    ran it or what ran before.  Never call this while scoped structures
    built earlier are still in use.
    """
    global _cid_counter
    _cid_counter = itertools.count(1)
    _cid_registry.clear()


def scoped_method(fn):
    """Wrap a generator method in ``fs_start``/``fs_end`` delimiters."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        cid = cid_of(type(self))
        yield FsStart(cid)
        try:
            result = yield from fn(self, *args, **kwargs)
        except GeneratorExit:
            # the guest was abandoned mid-run (aborted/failed simulation
            # being torn down): yielding FsEnd during close() is illegal
            raise
        except BaseException:
            yield FsEnd(cid)
            raise
        yield FsEnd(cid)
        return result

    wrapper.__scoped__ = True
    return wrapper


class SharedVar:
    """A single shared word with symbolic name."""

    __slots__ = ("addr", "name", "flagged", "_memory", "_load_op")

    def __init__(self, addr: int, name: str, flagged: bool, memory: SharedMemory) -> None:
        self.addr = addr
        self.name = name
        self.flagged = flagged
        self._memory = memory
        # ops are immutable once built (the simulator keys everything on
        # addr/name and per-dispatch RobEntries, never op identity), so
        # hot guest loops reuse one Load object instead of allocating
        # per access
        self._load_op = Load(addr, flagged=flagged, name=name)

    # guest ops --------------------------------------------------------------
    def load(self) -> Load:
        return self._load_op

    def store(self, value: int) -> Store:
        return Store(self.addr, value, flagged=self.flagged, name=self.name)

    def cas(self, expected: int, new: int) -> Cas:
        return Cas(self.addr, expected, new, flagged=self.flagged, name=self.name)

    # host (out-of-band) access ----------------------------------------------
    def peek(self) -> int:
        """Globally visible value, bypassing the simulation (checkers)."""
        return self._memory.read_global(self.addr)

    def poke(self, value: int) -> None:
        """Initialise the globally visible value before a run."""
        self._memory.write_global(self.addr, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SharedVar {self.name}@{self.addr}>"


class SharedArray:
    """A shared array of words.

    ``stride > 1`` pads each element to its own ``stride``-word slot
    (e.g. one cache line per element).  This is the scale-model layout
    the graph/n-body applications use: one line per record reproduces
    the miss behaviour of paper-sized data sets at simulable sizes.
    """

    __slots__ = ("base", "length", "name", "flagged", "stride", "_memory",
                 "_op_names", "_load_ops")

    def __init__(
        self,
        base: int,
        length: int,
        name: str,
        flagged: bool,
        memory: SharedMemory,
        stride: int = 1,
    ) -> None:
        self.base = base
        self.length = length
        self.name = name
        self.flagged = flagged
        self.stride = stride
        self._memory = memory
        # op memos: hot guest loops hit the same indices over and over,
        # so the "name[index]" strings ops carry (load-bearing for the
        # delay-set analyzer's allocation grouping) and the plain Load
        # objects themselves (immutable once built; the simulator never
        # keys on op identity) are built once per index, not per access
        self._op_names: dict[int, str] = {}
        self._load_ops: dict[int, Load] = {}

    def _check(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range (len {self.length})")
        return self.base + index * self.stride

    def addr_of(self, index: int) -> int:
        return self._check(index)

    # guest ops --------------------------------------------------------------
    def _op_name(self, index: int) -> str:
        name = self._op_names.get(index)
        if name is None:
            name = f"{self.name}[{index}]"
            self._op_names[index] = name
        return name

    def load(self, index: int, serialize: bool = False) -> Load:
        if serialize:
            return Load(
                self._check(index),
                flagged=self.flagged,
                serialize=True,
                name=self._op_name(index),
            )
        op = self._load_ops.get(index)
        if op is None:
            op = Load(
                self._check(index),
                flagged=self.flagged,
                name=self._op_name(index),
            )
            self._load_ops[index] = op
        return op

    def store(self, index: int, value: int) -> Store:
        return Store(self._check(index), value, flagged=self.flagged, name=self._op_name(index))

    def cas(self, index: int, expected: int, new: int) -> Cas:
        return Cas(self._check(index), expected, new, flagged=self.flagged, name=self._op_name(index))

    # host access ---------------------------------------------------------------
    def peek(self, index: int) -> int:
        return self._memory.read_global(self._check(index))

    def poke(self, index: int, value: int) -> None:
        self._memory.write_global(self._check(index), value)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SharedArray {self.name}[{self.length}]@{self.base}>"


class Env:
    """One guest environment: functional memory + allocator + config."""

    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config if config is not None else SimConfig()
        self.memory = SharedMemory(self.config.mem_size_words, self.config.n_cores)
        self.space = AddressSpace(self.config.mem_size_words, self.config.words_per_line)
        # cache warm-up requests applied when a simulator is built:
        # (core, base, length, into_l1)
        self._warm_requests: list[tuple[int, int, int, bool]] = []

    def var(self, name: str, init: int = 0, flagged: bool = False) -> SharedVar:
        addr = self.space.alloc(name, 1)
        v = SharedVar(addr, name, flagged, self.memory)
        if init:
            v.poke(init)
        return v

    def array(
        self,
        name: str,
        length: int,
        init: int = 0,
        flagged: bool = False,
        line_aligned: bool = True,
        stride: int = 1,
    ) -> SharedArray:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        base = self.space.alloc(name, length * stride, line_aligned=line_aligned)
        arr = SharedArray(base, length, name, flagged, self.memory, stride=stride)
        if init:
            for i in range(length):
                arr.poke(i, init)
        return arr

    def line_array(self, name: str, length: int, init: int = 0, flagged: bool = False) -> SharedArray:
        """An array with one cache line per element (scale-model layout)."""
        return self.array(name, length, init, flagged, stride=self.config.words_per_line)

    def private_array(self, name: str, tid: int, length: int) -> SharedArray:
        """Per-thread scratch memory (private by construction/usage)."""
        return self.array(f"{name}.t{tid}", length)

    def request_warm(self, target, core: int, into_l1: bool = False) -> None:
        """Pre-load an array or variable into the caches before the run.

        Models the measurement-phase warm-up of a cycle-accurate
        simulator; used by harnesses whose steady-state cache residency
        matters (e.g. the L2-resident private working sets of the
        Section VI-A workloads).  ``target`` is a :class:`SharedArray`
        or :class:`SharedVar`.
        """
        if isinstance(target, SharedArray):
            self._warm_requests.append(
                (core, target.base, target.length * target.stride, into_l1)
            )
        elif isinstance(target, SharedVar):
            self._warm_requests.append((core, target.addr, 1, into_l1))
        else:
            raise TypeError(f"cannot warm {target!r}")

    def simulator(self, program: Program) -> Simulator:
        sim = Simulator(self.config, program, memory=self.memory)
        for core, base, length, into_l1 in self._warm_requests:
            sim.hierarchy.warm(core, base, length, into_l1=into_l1)
        return sim

    def run(self, program: Program, max_cycles: int | None = None) -> SimResult:
        return self.simulator(program).run(max_cycles=max_cycles)


class ScopedStructure:
    """Base for concurrent data structures whose fences can be scoped.

    ``scope`` selects how the structure's fences behave:

    * ``FenceKind.GLOBAL`` -- plain traditional fences (baseline),
    * ``FenceKind.CLASS``  -- class-scope S-Fences (methods are wrapped
      in ``fs_start``/``fs_end`` by :func:`scoped_method`),
    * ``FenceKind.SET``    -- set-scope S-Fences; the structure's shared
      variables are created flagged so the hardware can match them.
    """

    def __init__(self, env: Env, name: str, scope: FenceKind = FenceKind.CLASS) -> None:
        self.env = env
        self.name = name
        self.scope = scope
        self.cid = cid_of(type(self))

    # -- construction helpers -------------------------------------------------
    @property
    def flag_vars(self) -> bool:
        return self.scope is FenceKind.SET

    def svar(self, suffix: str, init: int = 0) -> SharedVar:
        return self.env.var(f"{self.name}.{suffix}", init, flagged=self.flag_vars)

    def sarray(self, suffix: str, length: int, init: int = 0, stride: int = 1) -> SharedArray:
        return self.env.array(
            f"{self.name}.{suffix}", length, init, flagged=self.flag_vars, stride=stride
        )

    # -- fence construction -----------------------------------------------------
    def fence(self, waits: int = WAIT_BOTH, speculable: bool = True) -> Fence:
        """An S-Fence with this structure's configured scope."""
        return Fence(kind=self.scope, waits=waits, speculable=speculable)

    # -- auxiliary bookkeeping ----------------------------------------------------
    def init_opstats(self) -> None:
        """Create the structure's operation-statistics counter.

        Deliberately *never* set-scope-flagged: the counter is a hint,
        not part of the algorithm's ordering requirements.  Class scope
        still orders it (it is accessed inside the class's methods) --
        the reason set scope is slightly faster in Figure 14.
        """
        self._opstat = self.env.var(f"{self.name}.opstat")
        self._opcount = 0

    def note_op(self):
        """One bookkeeping store per public operation (guest op)."""
        self._opcount += 1
        return self._opstat.store(self._opcount)
