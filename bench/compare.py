#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py``.

``python3 bench/compare.py A.json B.json`` prints one row per
(end-to-end metric, workload): both medians with their min and max, the
ratio B/A (base A), and a verdict against the bound BENCHMARK.json fixes
for the metric:

``same``        B's median is within the bound of A's
``better``      B's median is better than A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  either side's own spread (distance between the quartiles
                of its runs, over their median) is wider than the bound,
                so the medians cannot settle it — unless every run of
                one side beats every run of the other

Simulated results are exact: ``sim_digest`` and every count must be
equal.  Operations the model lets fail are printed per workload as
failed/attempted on both sides, so a change that moves a digest shows
whether it also made more operations fail.  Exit code 1 when any row is
``worse`` or any exact value differs, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """Verdict for result cell ``b`` against base cell ``a`` (one metric
    of one workload; a cell holds the median and every run's value)."""
    overlap = not (b["max"] < a["min"] or a["max"] < b["min"])
    if overlap and (spread(a["values"]) > bound or spread(b["values"]) > bound):
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _cell(c: dict[str, Any]) -> str:
    return f"{c['value']:.5g} [{c['min']:.5g}, {c['max']:.5g}]"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether B holds against A."""
    lines = []
    ok = True
    for side, res in (("A", a), ("B", b)):
        m = res["manifest"]
        lines.append(
            f"{side}: git {m['git_sha'][:12]}  seed {m['seed']}  {m['nproc']} cpus  "
            f"{m['cpu_model']}" + ("  QUICK (not a measurement)" if res["quick"] else "")
        )
    if a["manifest"]["seed"] != b["manifest"]["seed"] or a["quick"] != b["quick"]:
        lines.append("different seeds or sizes: simulated results are not compared")
        exact = False
    else:
        exact = True
    header = (
        f"{'workload':<22}{'metric':<13}{'A median [min, max]':<34}"
        f"{'B median [min, max]':<34}{'B/A (base A)':<14}{'bound':<7}verdict"
    )
    lines += [header, "-" * len(header)]
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name:<22}missing from one side")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ca, cb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            v = verdict(ca, cb, metric["better"], metric["bound"])
            ok = ok and v != "worse"
            lines.append(
                f"{name:<22}{metric['name']:<13}{_cell(ca):<34}{_cell(cb):<34}"
                f"{cb['value'] / ca['value']:<14.4f}{metric['bound']:<7.2f}{v}"
            )
        fa, fb = (f"{w['sim_failed']}/{w['attempted']}" for w in (wa, wb))
        lines.append(
            f"{name:<22}{'failed_share':<13}{fa:<34}{fb:<34}"
            "modelled operations failed/attempted"
        )
        if exact:
            same_digest = wa["sim_digest"] == wb["sim_digest"]
            moved = sorted(
                k for k in set(wa["counts"]) | set(wb["counts"])
                if wa["counts"].get(k) != wb["counts"].get(k)
            )
            ok = ok and same_digest and not moved
            lines.append(
                f"{name:<22}sim_digest {'identical' if same_digest else 'DIFFERS'}; "
                + ("exact counts identical" if not moved else "exact counts DIFFER: " + ", ".join(
                    f"{k} {wa['counts'].get(k)} -> {wb['counts'].get(k)}" for k in moved
                ))
            )
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sides = []
    for path in argv:
        with open(path) as fh:
            sides.append(json.load(fh))
    lines, ok = compare(sides[0], sides[1], spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
