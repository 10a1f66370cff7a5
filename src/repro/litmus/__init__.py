"""Litmus tests validating the relaxed functional memory model."""

from .dsl import (
    DEFAULT_OFFSETS,
    CompiledLitmus,
    LitmusParseError,
    LitmusRun,
    LitmusTest,
    build_program,
    compile_litmus,
    pair_grid,
    parse_litmus,
    run_litmus,
)

__all__ = [
    "CompiledLitmus",
    "DEFAULT_OFFSETS",
    "LitmusParseError",
    "LitmusRun",
    "LitmusTest",
    "build_program",
    "compile_litmus",
    "pair_grid",
    "parse_litmus",
    "run_litmus",
]
