"""Litmus tests validating the relaxed functional memory model."""

from .dsl import (
    CompiledLitmus,
    LitmusParseError,
    LitmusRun,
    LitmusTest,
    build_program,
    compile_litmus,
    parse_litmus,
    run_litmus,
)
from .tests import (
    DEFAULT_OFFSETS,
    LitmusResult,
    coherence_rr,
    explore,
    iriw,
    load_buffering,
    message_passing,
    store_buffering,
)

__all__ = [
    "CompiledLitmus",
    "DEFAULT_OFFSETS",
    "LitmusParseError",
    "LitmusResult",
    "LitmusRun",
    "LitmusTest",
    "build_program",
    "coherence_rr",
    "compile_litmus",
    "explore",
    "iriw",
    "load_buffering",
    "message_passing",
    "parse_litmus",
    "run_litmus",
    "store_buffering",
]
