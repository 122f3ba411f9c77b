"""The reach budget: how many ``src/`` functions no reported run calls.

The census runs everything that produces a reported number, with a
``sys.setprofile`` hook recording every Python function entered:

- the 17 CLI ids at their golden-row size (``tests/test_golden_rows.py``);
- the figure, table and ablation reproductions in ``benchmarks/``;
- the example scripts in ``examples/``;
- the four ``bench/`` workload drivers at ``quick`` size.

Every ``def`` under ``src/repro`` that none of them enters is
*never-called*.  This script counts those per package (a top-level
module such as ``repro.cli`` is its own package) and fails when a count
differs from ``BUDGET``, printing that package's never-called
qualnames.  A change that leaves a function with no caller, or gives
one a caller, fails here until ``BUDGET`` is updated, so the count is
reviewed rather than described (the ``tests/test_option_budget.py``
pattern).

The census takes a few minutes, so it is not part of the tier-1 suite::

    PYTHONPATH=src python tests/reach.py          # check against BUDGET
    PYTHONPATH=src python tests/reach.py --list   # every never-called name
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: package -> never-called functions
BUDGET = {
    "cli": 3,
    "collection": 3,
    "coords": 8,
    "core": 15,
    "experiments": 1,
    "faults": 5,
    "metrics": 3,
    "obs": 7,
    "overlay": 39,
    "rng": 0,
    "runner": 4,
    "service": 3,
    "sim": 32,
    "underlay": 11,
    "viz": 0,
    "workloads": 0,
}


# -- what there is ------------------------------------------------------------

def _body_lines(tree: ast.Module, text: str) -> set[int]:
    """Line numbers holding code: not blank, not only a comment, not
    part of a docstring."""
    lines = {
        n for n, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    }
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list) and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.difference_update(
                range(body[0].lineno, body[0].end_lineno + 1)
            )
    return lines


def src_functions() -> dict[tuple[str, int], tuple[str, str, set[int]]]:
    """``(file, first line)`` -> ``(package, qualname, body lines)`` for
    every ``def`` under ``src/repro``, nested ones included.  The first
    line is the code object's: the first decorator's line if there is
    one.  Body lines are those of :func:`_body_lines` in its span."""
    out: dict[tuple[str, int], tuple[str, str, set[int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[0]
        module = ".".join(("repro",) + parts)
        text = path.read_text()
        tree = ast.parse(text)
        code_lines = _body_lines(tree, text)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    out[(str(path), first)] = (
                        package,
                        f"{module}:{prefix}{child.name}",
                        code_lines.intersection(
                            range(child.lineno + 1, child.end_lineno + 1)
                        ),
                    )
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


# -- what the reported runs call ----------------------------------------------

def _cli_ids() -> None:
    from tests.test_golden_rows import EXPERIMENTS, rows_digest

    for exp_id in sorted(EXPERIMENTS):
        rows_digest(exp_id)


def _benchmarks() -> None:
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")]
    )
    if code != 0:
        raise SystemExit(f"benchmarks/ failed under the census (exit {code})")


def _examples() -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


def _bench_drivers() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    import workloads

    for name, spec in workloads.WORKLOADS.items():
        workloads.DRIVERS[name](11, spec["quick"], run.Phases())


PARTS = (_cli_ids, _benchmarks, _examples, _bench_drivers)


def called_code() -> set[tuple[str, int]]:
    """``(file, first line)`` of every function the reported runs enter."""
    # keyed by identity: code objects compare equal across files (the
    # file name is not part of code equality), so a set would merge two
    # identical functions that start on the same line of two modules
    seen: dict[int, CodeType] = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    sys.path.insert(0, str(ROOT))
    os.chdir(ROOT)
    for part in PARTS:
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            part()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in seen.values()
    }


# -- the budget ----------------------------------------------------------------

def census() -> dict[str, dict]:
    """Per package: its function count and body lines, and the
    never-called functions with their body lines."""
    functions = src_functions()
    called = called_code()
    table: dict[str, dict] = {}
    for key, (package, qualname, body) in functions.items():
        row = table.setdefault(
            package,
            {"functions": 0, "lines": set(), "dead": [], "dead_lines": set()},
        )
        row["functions"] += 1
        row["lines"].update((key[0], n) for n in body)
        if key not in called:
            row["dead"].append(qualname)
            row["dead_lines"].update((key[0], n) for n in body)
    return dict(sorted(table.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true",
        help="print every never-called qualname, not only moved packages'",
    )
    args = parser.parse_args(argv)
    table = census()
    sizes = {
        package: (
            len(row["dead"]), row["functions"],
            len(row["dead_lines"]), len(row["lines"]),
        )
        for package, row in table.items()
    }
    sizes["total"] = tuple(map(sum, zip(*sizes.values())))
    print(f"{'package':<12} {'never-called':>12} {'functions':>9} "
          f"{'dead lines':>10} {'lines':>6}")
    for package, (dead, functions, dead_lines, lines) in sizes.items():
        print(f"{package:<12} {dead:>12} {functions:>9} "
              f"{dead_lines:>10} {lines:>6}")

    counts = {package: len(row["dead"]) for package, row in table.items()}
    moved = sorted(
        p for p in set(counts) | set(BUDGET) if counts.get(p) != BUDGET.get(p)
    )
    for package, row in table.items():
        if args.list or package in moved:
            print(f"\n{package}: {len(row['dead'])} never-called "
                  f"(budget {BUDGET.get(package)})")
            for name in sorted(row["dead"]):
                print(f"  {name}")
    if moved:
        print(f"\nreach budget moved for: {', '.join(moved)}; "
              f"counts are {counts}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
