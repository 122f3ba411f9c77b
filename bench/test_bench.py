"""Checks of the benchmark itself.  Not in the tier-1 ``testpaths``; run
explicitly from the repository root::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load(name: str):
    """Import a benchmark file by path (``trace`` shares a name with a
    standard-library module, so a plain import could find that one)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    before = (ROOT / "BENCHMARK.json").read_bytes()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (ROOT / "BENCHMARK.json").read_bytes() == before
    with open(out) as fh:
        return {"stdout": proc.stdout, "result": json.load(fh), "elapsed": elapsed}


def test_quick_run_is_fast_and_stamped(quick):
    assert quick["elapsed"] < 30.0
    assert quick["result"]["quick"] is True
    assert quick["result"]["manifest"]["quick"] is True
    assert quick["result"]["correct"] is True
    for wl in quick["result"]["workloads"].values():
        assert wl["sim_digest_match"] is None  # never held against golden


def test_repetition_count_depends_on_seconds_alone(spec):
    run = _load("run")
    assert run.repetitions(0) == 1  # --quick and --trace 1
    assert run.repetitions(spec["run_seconds"]) == 2
    assert run.repetitions(3 * run.REP_BUDGET_S) == 3


def test_names_are_well_formed_and_unique(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_spec_lists_exactly_the_metrics_the_run_reports(spec, quick):
    for wl in spec["workloads"]:
        result = quick["result"]["workloads"][wl["name"]]
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}


def test_every_metric_is_printed_by_name_with_its_unit(spec, quick):
    printed = set()  # lines read "workload  metric  value  unit[  spread]"
    for line in quick["stdout"].splitlines():
        parts = line.split("  ")
        if len(parts) >= 4:
            printed.add((parts[0], parts[1], parts[3]))
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert (wl["name"], metric["name"], metric["unit"]) in printed, (
                wl["name"], metric["name"]
            )


def test_trace_covers_the_run_and_self_times_fit_inside_it(quick):
    for name, wl in quick["result"]["workloads"].items():
        assert wl["per_layer"]["trace.coverage"]["value"] >= 0.8, name
        assert wl["trace"]["self_s_sum"] <= wl["trace"]["traced_total_s"], name
        assert wl["per_layer"]["trace.overhead_ratio"]["value"] > 0, name


def test_unpatching_restores_every_wrapped_callable():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        trace = _load("trace")
        tracer = trace.Tracer()
        tracer.patch()
        patched = tracer.patched()
        assert len(patched) > len(trace.LAYERS)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner, attr)
        tracer.unpatch()
        assert tracer.patched() == []
        for owner, attr, original in patched:
            assert vars(owner)[attr] is original, (owner, attr)
    finally:
        sys.path.remove(str(ROOT / "src"))
