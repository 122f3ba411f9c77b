"""Command-line experiment runner.

Usage::

    python -m repro list
    python -m repro run FIG2 FIG4a
    python -m repro run all
    python -m repro run FIG5 --arg n_hosts=200 --arg seed=7
    python -m repro run FIG5 --trace

Each experiment prints the same rows its benchmark asserts on; ``--arg``
forwards keyword overrides (ints/floats parsed automatically).
``--trace`` runs the experiment inside an :func:`repro.obs.observe`
scope and prints, after the table, JSON with the trace digest, the
event count and the per-``"component.kind"`` event tally.
``--workers N`` fans multi-arm sweeps (seed robustness, the RESILIENCE
grid, testlab, the fig4/fig6 arms) out over N worker processes via
:mod:`repro.runner`; results are bit-identical to the serial run.
Worker processes ship no trace home, so ``--trace`` refuses to run with
more than one worker (``--workers`` or ``REPRO_RUNNER_WORKERS``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from repro.experiments import (
    print_table,
    run_observed,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4_dimension_sweep,
    run_fig4_embedding,
    run_fig4_examples,
    run_fig5,
    run_fig6,
    run_framework_composite,
    run_isp_bill,
    run_locality_savings,
    run_locality_swarm,
    run_resilience_faults,
    run_service_slo,
    run_table1,
    run_table2,
    run_testlab,
)
from repro.runner import configure_default_workers, resolve_workers

EXPERIMENTS: dict[str, tuple[Callable[..., Any], str]] = {
    "FIG1": (run_fig1, "Internet hierarchy structure"),
    "FIG2": (run_fig2, "transit vs peering cost relations"),
    "FIG2b": (run_locality_savings, "ISP bill vs locality of traffic"),
    "FIG3": (run_fig3, "collection taxonomy, measured"),
    "FIG4a": (run_fig4_examples, "ICS worked examples (exact)"),
    "FIG4b": (run_fig4_embedding, "ICS vs Vivaldi vs GNP embedding"),
    "FIG4c": (run_fig4_dimension_sweep, "ICS error vs PCA dimension"),
    "FIG5": (run_fig5, "Gnutella + oracle message table (slow)"),
    "FIG6": (run_fig6, "uniform vs biased neighbor selection"),
    "TESTLAB": (run_testlab, "45-node 5-AS controlled experiments"),
    "TAB1": (run_table1, "representative systems of Table 1"),
    "TAB2": (run_table2, "impact matrix vs paper Table 2"),
    "FRAMEWORK": (run_framework_composite,
                  "composite QoS profiles vs single-information selection"),
    "ISPBILL": (run_isp_bill, "per-ISP transit bills under an overlay workload"),
    "RESILIENCE": (run_resilience_faults,
                   "lookup success & stretch under injected faults (slow; "
                   "--arg smoke=true for the CI-sized run)"),
    "LOCALITY": (run_locality_swarm,
                 "locality-bias sweep over a 2000-peer swarm on the "
                 "flow-level data plane (slow; --arg smoke=true for the "
                 "CI-sized run)"),
    "SERVICE": (run_service_slo,
                "service-level SLO percentiles under open/closed-loop load "
                "(slow; --arg smoke=true for the CI-sized run)"),
}


def _parse_value(raw: str) -> Any:
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--arg expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key] = _parse_value(raw)
    return out


def main(argv: list[str] | None = None) -> int:
    """Parse CLI arguments and run the requested experiments."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run experiments by id (or 'all')")
    runp.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    runp.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="keyword override forwarded to each experiment",
    )
    runp.add_argument(
        "--trace",
        action="store_true",
        help="trace the run; print its digest and per-kind event counts",
    )
    runp.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan multi-arm sweeps out over N worker processes "
        "(repro.runner; results are identical to serial, REPRO_RUNNER_SERIAL=1 "
        "forces the serial path)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for exp_id, (_fn, desc) in EXPERIMENTS.items():
            print(f"{exp_id:8s} {desc}")
        return 0

    by_upper = {k.upper(): k for k in EXPERIMENTS}
    if args.ids == ["all"]:
        ids = list(EXPERIMENTS)
    else:
        unknown = [i for i in args.ids if i.upper() not in by_upper]
        if unknown:
            raise SystemExit(
                f"unknown experiment ids {unknown}; try 'python -m repro list'"
            )
        ids = [by_upper[i.upper()] for i in args.ids]
    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.trace and resolve_workers(args.workers) > 1:
        raise SystemExit(
            "--trace needs a serial run: worker processes ship no trace, "
            "so drop --workers N / REPRO_RUNNER_WORKERS (or set it to 1)"
        )
    if args.workers is not None:
        configure_default_workers(args.workers)
    overrides = _parse_overrides(args.arg)
    for exp_id in ids:
        fn, _desc = EXPERIMENTS[exp_id]
        try:
            if args.trace:
                result = run_observed(fn, **overrides)
            else:
                result = fn(**overrides) if overrides else fn()
        except TypeError as exc:
            raise SystemExit(f"{exp_id}: bad --arg for {fn.__name__}: {exc}")
        print_table(result)
        if result.trace is not None:
            print(f"\n--- {exp_id} trace ---")
            print(json.dumps(result.trace, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
