"""Guest thread / program abstractions.

A *guest thread* is a generator created from a thread function::

    def body(env, tid):
        v = yield some_var.load()
        yield some_var.store(v + 1)

``Program`` bundles one thread function per core together with the
shared environment they run against.  The simulator instantiates the
generators and pulls ops from them at dispatch time.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass

from .instructions import Op


ThreadFn = Callable[..., Generator[Op, object, object]]


@dataclass
class Program:
    """A multithreaded guest program: one generator factory per thread.

    ``thread_fns[i]`` is called as ``thread_fns[i](i)`` to create the
    generator for thread *i*; use ``functools.partial``/closures to bind
    an environment.
    """

    thread_fns: list[Callable[[int], Generator[Op, object, object]]]
    name: str = "program"

    @property
    def n_threads(self) -> int:
        return len(self.thread_fns)

    def spawn(self) -> list[Generator[Op, object, object]]:
        """Instantiate one fresh generator per thread."""
        return [fn(tid) for tid, fn in enumerate(self.thread_fns)]


def ops_program(per_thread_ops: Iterable[Iterable[Op]], name: str = "ops") -> Program:
    """Build a ``Program`` from static per-thread op lists.

    Handy for litmus tests and unit tests where the instruction stream
    does not depend on loaded values.
    """
    materialized = [list(ops) for ops in per_thread_ops]

    def make_fn(ops: list[Op]):
        def fn(tid: int):
            for op in ops:
                yield op
        return fn

    return Program([make_fn(ops) for ops in materialized], name=name)
