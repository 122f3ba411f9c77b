"""Shared experiment plumbing: result containers, table printing, and the
opt-in trace path.

Every experiment module exposes a ``run_*`` function returning an
:class:`ExperimentResult`; benchmarks call it, print the rows (the same
rows the paper's figure/table reports), and assert the qualitative shape.

Observability: :func:`run_observed` (CLI flag ``--trace``) runs any
experiment inside an :func:`repro.obs.observe` scope — every simulation,
bus, request manager and fault injector the experiment constructs emits
trace events — and attaches the trace digest, event count and
per-``"component.kind"`` tally to ``result.trace``.  Golden-trace
regression tests compare the digest across runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TextIO

from repro import obs


@dataclass
class ExperimentResult:
    """Named rows plus free-form notes."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: populated by :func:`run_observed`: the trace summary
    trace: dict[str, Any] | None = field(default=None, repr=False)

    def add_row(self, **kwargs: Any) -> None:
        self.rows.append(dict(kwargs))

    def column(self, key: str) -> list[Any]:
        return [r[key] for r in self.rows]

    def row_by(self, key: str, value: Any) -> dict[str, Any]:
        for r in self.rows:
            if r.get(key) == value:
                return r
        raise KeyError(f"no row with {key}={value!r}")


def repeat_over_seeds(
    run: "Callable[[int], ExperimentResult]",
    seeds: Sequence[int],
    *,
    key_column: str,
    value_columns: Sequence[str],
    workers: int | None = None,
) -> ExperimentResult:
    """Robustness harness: run an experiment per seed and report mean/std
    of the chosen numeric columns per key (arm) value.

    ``run(seed)`` must return results with identical keys across seeds.
    Seeds fan out through :func:`repro.runner.run_arms` (serial unless
    ``workers``, the CLI/benchmark ``--workers`` option, or
    ``REPRO_RUNNER_WORKERS`` says otherwise); per-seed results are
    reduced in seed order, so the aggregate is identical at any worker
    count.
    """
    from collections import defaultdict

    from repro.experiments.stats import mean_std
    from repro.runner import run_arms

    if not seeds:
        raise ValueError("need at least one seed")
    per_seed = run_arms(run, list(seeds), workers=workers)
    samples: dict[Any, dict[str, list[float]]] = defaultdict(
        lambda: {c: [] for c in value_columns}
    )
    for res in per_seed:
        for row in res.rows:
            key = row[key_column]
            for col in value_columns:
                samples[key][col].append(float(row[col]))
    first = per_seed[0]
    out = ExperimentResult(
        first.experiment_id + "-seeds",
        f"{first.title} (mean ± std over {len(seeds)} seeds)",
    )
    for key, cols in samples.items():
        row: dict[str, Any] = {key_column: key}
        for col, vals in cols.items():
            row[f"{col}_mean"], row[f"{col}_std"] = mean_std(vals)
        out.add_row(**row)
    return out


def run_observed(
    run: Callable[..., ExperimentResult], *args: Any, **kwargs: Any
) -> ExperimentResult:
    """Run an experiment with tracing on and attach the trace summary.

    The CLI's ``--trace`` path: any ``run_*`` function works unchanged,
    because the components it constructs pick up the scope's tracer.
    """
    with obs.observe() as tracer:
        result = run(*args, **kwargs)
    result.trace = {
        "digest": tracer.digest(),
        "emitted": tracer.emitted,
        "counts": tracer.counts,
    }
    return result


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0 or 0.001 <= abs(value) < 1e6:
            return f"{value:,.3f}".rstrip("0").rstrip(".")
        return f"{value:.3e}"
    return str(value)


def print_table(result: ExperimentResult, *, file: TextIO | None = None) -> None:
    """Render the result as an aligned text table (the bench output)."""
    file = file or sys.stdout
    print(f"\n=== {result.experiment_id}: {result.title} ===", file=file)
    if not result.rows:
        print("(no rows)", file=file)
        return
    columns: list[str] = []
    for r in result.rows:
        for k in r:
            if k not in columns:
                columns.append(k)
    table = [[_fmt(r.get(c, "")) for c in columns] for r in result.rows]
    widths = [
        max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(header, file=file)
    print("-" * len(header), file=file)
    for row in table:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)), file=file)
    for note in result.notes:
        print(f"note: {note}", file=file)
