"""The names the benchmark harness needs from ``repro`` keep resolving.

``bench/run.py`` constructs ``trace.Tracer()`` in every child process,
traced or not; the constructor imports the module and resolves the
owner of every ``module:Class.attr`` path in ``bench/trace.py``'s
``TABLE``, and ``patch()``, which every traced repetition calls, looks
each attribute up in its owner's own namespace.  ``bench/workloads.py``
imports the simulator's public classes and calls their methods.  A
rename or a deletion in ``src/`` that breaks any of this makes benchmark
runs exit non-zero, and ``bench/test_bench.py`` is not part of the
tier-1 run, so this module checks the same contract here: it loads the
three files by path (``trace`` shares a name with a standard-library
module), patches a ``Tracer`` in and out, and runs the driver of each
workload ``BENCHMARK.json`` declares once at its ``quick`` size.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
with open(ROOT / "BENCHMARK.json") as fh:
    DECLARED = [w["name"] for w in json.load(fh)["workloads"]]


def _load(name: str):
    """Import ``bench/<name>.py`` by path without leaving a
    ``__pycache__`` in ``bench/``."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass resolves its annotations there
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_tracer_patches_every_table_name():
    trace = _load("trace")
    tracer = trace.Tracer()  # imports each module, resolves each owner
    try:
        tracer.patch()  # KeyError for an attribute its owner lost
    finally:
        tracer.unpatch()
    assert tracer.patched() == []


@pytest.mark.parametrize("name", DECLARED)
def test_driver_runs_at_quick_size(workloads, name):
    phases = _load("run").Phases()
    spec = workloads.WORKLOADS[name]
    outcome = workloads.DRIVERS[name](11, spec["quick"], phases)
    assert isinstance(outcome, workloads.Outcome)
