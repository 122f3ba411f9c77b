#!/usr/bin/env python3
"""The repository's benchmark: four paper experiments, end to end and
per layer.  See bench/README.md for what is measured and why.

Two ways to run it, both from the repository root:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the form BENCHMARK.json's ``command`` names.  Prints
    every metric by name with its unit and, as the last line, one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer ones
    (``--trace 1``).

``python3 bench/run.py [--seed N] [--seconds S] [--quick] [--strict] [--out F]``
    All four workloads, end to end and per layer, written with the run
    manifest to a result file that ``bench/compare.py`` reads.

How many repetitions a run takes depends on ``--seconds`` alone, never
on how fast they went (``repetitions``), so two commits measured with
the same command are measured with the same estimator.

Every repetition of a workload runs in a fresh child process
(``PYTHONHASHSEED=0``, default GC, one thread), so ``peak_rss_mb`` and
``setup_s`` are per repetition and no state survives between them.
Simulated results are deterministic model outputs; host time and memory
are what the metrics measure, and the two are kept apart: the model
outputs go into ``sim_digest``, never into a metric with a bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import trace  # bench/trace.py: this script's directory leads sys.path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PHASES = (
    "phase.substrate_s",
    "phase.overlay_build_s", "phase.join_s", "phase.ping_round_s",
    "phase.search_s", "phase.download_s", "phase.summary_s",
    "phase.tracker_populate_s", "phase.swarm_run_s", "phase.billing_s",
    "phase.service_build_s", "phase.drive_retrieve_s", "phase.drive_store_s",
    "phase.drive_mixed_s", "phase.drive_faulted_s",
)

#: exact counts read from the simulator's public stats -> unit
COUNTS = {
    "sim.engine.events": "count",
    "sim.messages.sent": "count",
    "sim.messages.delivered": "count",
    "sim.messages.dropped": "count",
    "underlay.traffic.observed": "count",
    "overlay.gnutella.flood.sends": "count",
    "overlay.gnutella.dropped_duplicate": "count",
    "overlay.gnutella.dropped_ttl": "count",
    "overlay.gnutella.flood.duplicate_ratio": "ratio",
    "underlay.latency.memo_hit_ratio": "ratio",
    "overlay.bittorrent.tracker.announces": "count",
    "sim.flows.reallocs": "count",
    "sim.requests.retried": "count",
    "sim.requests.failed": "count",
    "sim.requests.retry_ratio": "ratio",
    "faults.injector.dropped": "count",
    "faults.injector.crashes": "count",
    "service.load.offered": "count",
    "service.load.timed_out": "count",
}

#: seconds of ``--seconds`` that buy one untraced repetition.  Sizes in
#: workloads.py keep a repetition of every workload, with its share of the
#: set-up-only children, under this on the recorded machine (the longest,
#: gnutella_oracle_600, takes ~16 s), so a run ends within ``--seconds``.
REP_BUDGET_S = 18.0

#: children a measured (not --quick) run times set-up over, at least:
#: set-up is ~1 s of imports and now and then one child takes 1.5x as
#: long, which a median of three keeps out and a pair would not
MIN_SETUP_SAMPLES = 3


#: every repetition's environment: fixed hash seed, one compute thread
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------------ child
class Phases:
    """Always-on phase spans of the driver's own call sequence.  Time
    spent generating the substrate inside a span is taken out of it, so
    ``phase.substrate_s`` is disjoint from every other phase."""

    def __init__(self) -> None:
        self.spans: dict[str, float] = {}
        self.substrate_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        substrate_before = self.substrate_s
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[name] = (
                self.spans.get(name, 0.0) + perf_counter() - t0
                - (self.substrate_s - substrate_before)
            )


def canonical(value: Any) -> Any:
    """JSON-safe, platform-stable form of a result row: exact integers,
    floats rounded to 9 significant digits, non-finite floats as text."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        f = float(value)
        return float(f"{f:.9g}") if math.isfinite(f) else repr(f)
    raise TypeError(f"cannot canonicalise {type(value).__name__} in a result row")


def sim_digest(canonical_rows: list) -> str:
    blob = json.dumps(canonical_rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(event: str, **payload: Any) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def child_main(args: argparse.Namespace) -> int:
    """One repetition of one workload, in this process."""
    sys.path.insert(0, str(SRC))
    import workloads  # imports the simulator
    from repro.underlay.network import Underlay

    tracer = trace.Tracer()
    if args.trace:
        tracer.patch()

    phases = Phases()
    generate = Underlay.generate  # the traced one when tracing

    def timed_generate(config=None):
        t0 = perf_counter()
        try:
            return generate(config)
        finally:
            phases.substrate_s += perf_counter() - t0
            _emit("setup_done")

    Underlay.generate = timed_generate  # this process exits after the run

    spec = workloads.WORKLOADS[args.workload]
    size = spec["quick" if args.quick else "full"]
    t0 = perf_counter()
    outcome = workloads.DRIVERS[args.workload](args.seed, size, phases)
    total_s = perf_counter() - t0

    import networkx
    import numpy
    import scipy

    rows = canonical(outcome.rows)
    _emit(
        "result",
        wall_s=total_s - phases.substrate_s,
        total_s=total_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        work_units=outcome.work_units,
        attempted=outcome.attempted,
        sim_failed=outcome.sim_failed,
        sim_digest=sim_digest(rows),
        rows=rows,
        counts=canonical(outcome.counts),
        violations=outcome.violations,
        backends=outcome.backends,
        size=size,
        work_unit=spec["work_unit"],
        phases={"phase.substrate_s": phases.substrate_s, **phases.spans},
        trace=tracer.report() if args.trace else None,
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "networkx": networkx.__version__,
        },
    )
    return 0


# ----------------------------------------------------------------- parent
def run_child(
    workload: str, seed: int, *, traced: bool, quick: bool, setup_only: bool = False
) -> dict[str, Any]:
    """Spawn one repetition; returns its result with the parent-measured
    ``setup_s`` (spawn to the end of ``Underlay.generate``: interpreter
    start, imports and substrate).  ``setup_only`` stops the child there."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if quick:
        cmd.append("--quick")
    env = {**os.environ, **CHILD_ENV}
    result: dict[str, Any] = {}
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            message = json.loads(line)
            if message["event"] == "setup_done":
                result.setdefault("setup_s", perf_counter() - t0)
                if setup_only:
                    proc.terminate()
                    break
            elif message["event"] == "result":
                result.update(message)
    finally:
        proc.stdout.close()
        code = proc.wait()
    if "setup_s" not in result:
        raise BenchError(f"{workload}: child exited {code} before set-up ended")
    if not setup_only and (code != 0 or "wall_s" not in result):
        raise BenchError(f"{workload}: child exited {code} without a result")
    return result


def repetitions(seconds: float) -> int:
    """Untraced repetitions a run of ``seconds`` takes: a fixed number,
    at least one, whatever the repetitions turn out to cost."""
    return max(1, int(seconds // REP_BUDGET_S))


def _summary(values: list[float], unit: str, better: str = "lower") -> dict[str, Any]:
    """The median of the repetitions, with min, max and every value.  Of
    an even number it is the better of the middle pair, not their mean —
    of the default two repetitions, the better one: other tenants of the
    host only ever slow a repetition down, now and then by 40%, and a
    mean of two carries half of that into the result."""
    middle = statistics.median_low if better == "lower" else statistics.median_high
    return {
        "value": middle(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def load_golden() -> dict[str, dict[str, str]]:
    with open(BENCH_DIR / "golden.json") as fh:
        return json.load(fh)["digests"]


def run_workload(
    name: str,
    seed: int,
    *,
    quick: bool,
    want_e2e: bool,
    want_layers: bool,
    seconds: float,
) -> dict[str, Any]:
    """Measure one workload.

    Runs ``repetitions(seconds)`` untraced repetitions; end-to-end
    metrics are medians over them.  Per-layer metrics take phase spans
    and exact counts from the first of them and self times from one
    extra traced repetition.
    """
    started = perf_counter()
    untraced = [
        run_child(name, seed, traced=False, quick=quick)
        for _ in range(repetitions(seconds))
    ]
    traced = run_child(name, seed, traced=True, quick=quick) if want_layers else None
    everyone = untraced + ([traced] if traced else [])
    first = untraced[0]

    violations = list(dict.fromkeys(v for r in everyone for v in r["violations"]))
    for r in everyone[1:]:
        if r["sim_digest"] != first["sim_digest"] or r["counts"] != first["counts"]:
            violations.append(
                "repetitions of one seed disagree on simulated results "
                "(non-determinism, or tracing changed behaviour)"
            )
            break
    for metric, unit in COUNTS.items():
        v = first["counts"].get(metric, 0)
        if v < 0 or (unit == "count" and not float(v).is_integer()):
            violations.append(f"count metric {metric} = {v!r} is not a non-negative integer")

    golden = None if quick else load_golden().get(str(seed), {}).get(name)
    out: dict[str, Any] = {
        "size": first["size"],
        "repetitions": len(untraced),
        "work_unit": first["work_unit"],
        "work_units": first["work_units"],
        "attempted": first["attempted"],
        "sim_failed": first["sim_failed"],
        "sim_digest": first["sim_digest"],
        "sim_digest_match": None if golden is None else golden == first["sim_digest"],
        "rows": first["rows"],
        "counts": {m: first["counts"].get(m, 0) for m in COUNTS},
        "backends": first["backends"],
        "versions": first["versions"],
        "violations": violations,
    }

    if want_e2e:
        setups = [r["setup_s"] for r in untraced]  # a traced child also patches
        while not quick and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(
                run_child(name, seed, traced=False, quick=quick, setup_only=True)["setup_s"]
            )
        out["end_to_end"] = {
            "wall_s": _summary([r["wall_s"] for r in untraced], "s"),
            "work_per_s": _summary(
                [r["work_units"] / r["wall_s"] for r in untraced], "1/s", "higher"
            ),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in untraced], "MiB"),
            "setup_s": _summary(setups, "s"),
        }

    if traced is not None:
        layers: dict[str, dict[str, Any]] = {}
        for phase in PHASES:
            layers[phase] = {"value": first["phases"].get(phase, 0.0), "unit": "s"}
        covered = 0.0
        for layer in trace.LAYERS:
            cell = traced["trace"]["layers"][layer]
            covered += cell["self_s"]
            layers[f"{layer}.self_s"] = {"value": cell["self_s"], "unit": "s"}
            layers[f"{layer}.calls"] = {"value": cell["calls"], "unit": "count"}
        for metric, unit in COUNTS.items():
            layers[metric] = {"value": out["counts"][metric], "unit": unit}
        layers["workload.work_units"] = {"value": first["work_units"], "unit": "count"}
        layers["workload.failed_share"] = {
            "value": first["sim_failed"] / first["attempted"], "unit": "ratio",
        }
        layers["trace.overhead_ratio"] = {
            "value": traced["wall_s"] / first["wall_s"], "unit": "ratio",
        }
        layers["trace.coverage"] = {
            "value": covered / traced["total_s"], "unit": "ratio",
        }
        out["per_layer"] = layers
        out["trace"] = {
            "traced_wall_s": traced["wall_s"],
            "traced_total_s": traced["total_s"],
            "untraced_wall_s": first["wall_s"],
            "self_s_sum": covered,
            "edges": traced["trace"]["edges"],
        }
    out["elapsed_s"] = perf_counter() - started  # what --seconds has to cover
    return out


def manifest(seed: int, quick: bool) -> dict[str, Any]:
    """Where and how this run was made."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "seed": seed,
        "quick": quick,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "child_env": CHILD_ENV,
    }


def print_metrics(workload: str, metrics: dict[str, dict[str, Any]]) -> None:
    for name, cell in metrics.items():
        value = cell["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        spread = (
            f"  (min {cell['min']:.6g}, max {cell['max']:.6g}, n={len(cell['values'])})"
            if "values" in cell else ""
        )
        print(f"{workload}  {name}  {shown}  {cell['unit']}{spread}")


def is_correct(result: dict[str, Any], strict: bool) -> bool:
    if result["violations"]:
        return False
    return not (strict and result["sim_digest_match"] is False)


def report(workload: str, result: dict[str, Any], strict: bool) -> None:
    for section in ("end_to_end", "per_layer"):
        if section in result:
            print_metrics(workload, result[section])
    match = result["sim_digest_match"]
    print(
        f"{workload}  sim_digest  {result['sim_digest']}  sim_digest_match  "
        + ("skipped (no golden digest for this seed and size)" if match is None else str(match).lower())
    )
    print(
        f"{workload}  work_units {result['work_units']} {result['work_unit']}, "
        f"attempted {result['attempted']}, modelled failures {result['sim_failed']}, "
        f"repetitions {result['repetitions']}, elapsed {result['elapsed_s']:.1f} s"
    )
    for v in result["violations"]:
        print(f"{workload}  OUTPUT CHECK FAILED: {v}")
    if strict and match is False:
        print(f"{workload}  STRICT: sim_digest differs from bench/golden.json")


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help=f"buys one untraced repetition per {REP_BUDGET_S:g} s, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 end-to-end metrics, 1 per-layer")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one repetition; a smoke test, not a measurement")
    ap.add_argument("--strict", action="store_true",
                    help="a sim_digest that differs from bench/golden.json fails the run")
    ap.add_argument("--out", type=Path, help="without --workload: result file")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench/run.py: no simulator source at {SRC}/repro", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    info = manifest(args.seed, args.quick)
    print("manifest  " + json.dumps(info, sort_keys=True))
    # a smoke test, or a --trace 1 run (which reports no end-to-end metric),
    # takes the one untraced repetition the traced one is held against
    seconds = 0.0 if args.quick or (args.workload and args.trace) else args.seconds

    if args.workload:  # the BENCHMARK.json command
        result = run_workload(
            args.workload, args.seed, quick=args.quick,
            want_e2e=not args.trace, want_layers=bool(args.trace), seconds=seconds,
        )
        report(args.workload, result, args.strict)
        correct = is_correct(result, args.strict)
        section = result["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            # ops the model lets fail (timeouts under injected faults) are
            # model outputs, reported as workload.failed_share; this counts
            # output checks the run broke
            "failed": len(result["violations"]),
            "metrics": {
                k: {"value": v["value"], "unit": v["unit"]} for k, v in section.items()
            },
        }))
        return 0 if correct else 1

    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, quick=args.quick, want_e2e=True, want_layers=True,
            seconds=seconds,
        )
        report(name, results[name], args.strict)
    correct = all(is_correct(r, args.strict) for r in results.values())
    out_path = args.out or BENCH_DIR / "out" / (
        f"result-seed{args.seed}{'-quick' if args.quick else ''}.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(
            {"manifest": info, "quick": args.quick, "correct": correct,
             "workloads": results},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"result written to {out_path}; correct: {str(correct).lower()}")
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(3)
