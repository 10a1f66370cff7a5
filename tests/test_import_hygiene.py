"""The runtime needs no third-party package.

Every command starts a fresh interpreter, so whatever ``repro`` imports
is paid on every figure regeneration, verify run and synthesis.  numpy
and networkx once cost about half of that start-up; these tests keep
them out.  Each check runs in a fresh subprocess, because the test
process itself may have imported either library (the delay-set oracle
test does).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BANNED = ("numpy", "networkx")

#: imports the entry points, enumerates figure, verify and app-synth
#: jobs, runs one figure cell and one delay-set analysis, then reports
#: which banned modules got loaded
_USE_PROBE = """
import json, sys
import repro, repro.campaign, repro.synth.programs
from repro.apps.delay_set import delay_pairs
from repro.campaign import app_synth_jobs, figure_jobs, verify_jobs
from repro.campaign.jobs import execute_job

figs = figure_jobs("fig13", 0.1)
assert figs and verify_jobs(smoke=True) and app_synth_jobs(smoke=True)
assert execute_job(figs[0])["cycles"] > 0
sb = [[("x", "w"), ("y", "r")], [("y", "w"), ("x", "r")]]
assert delay_pairs(sb) == {((0, 0), (0, 1)), ((1, 0), (1, 1))}
print(json.dumps(sorted(m for m in %r if m in sys.modules)))
""" % (BANNED,)

#: imports every module of the package with the banned ones made
#: unimportable, so an import anywhere under src/ fails loudly
_IMPORT_ALL_PROBE = """
import importlib, importlib.abc, pkgutil, sys

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in %r:
            raise ImportError(f"{name} must not be imported by repro")
        return None

sys.meta_path.insert(0, Block())
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    if not name.endswith("__main__"):
        importlib.import_module(name)
print(len(names))
""" % (BANNED,)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_runtime_loads_neither_numpy_nor_networkx():
    assert json.loads(_run(_USE_PROBE)) == []


def test_every_module_imports_without_them():
    assert int(_run(_IMPORT_ALL_PROBE)) > 50
