"""The end-to-end benchmark's tracer can still find every layer target.

``benchmarks/e2e/layers.py`` wraps the simulator methods its ``LAYERS``
table names, resolving each with ``inspect.getattr_static``.  A renamed
or deleted method would otherwise surface only when a traced benchmark
pass runs; this guard resolves every target at tier-1 time.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [
    (layer, module, owner, names)
    for layer, targets in _load_layers().items()
    for module, owner, names in targets
]


@pytest.mark.parametrize(
    "layer,module,owner,names", TARGETS,
    ids=[f"{t[0]}:{t[2] or t[1]}" for t in TARGETS],
)
def test_layer_targets_resolve(layer, module, owner, names):
    resolved = importlib.import_module(module)
    if owner is not None:
        resolved = getattr(resolved, owner)
    if not isinstance(names, list):
        return  # "every public method" / "the backend interface"
    for name in names:
        inspect.getattr_static(resolved, name)  # AttributeError if renamed
