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

Every entered function is also tagged with the *reporters* that
entered it: a CLI id (``cli:FIG5``), a ``benchmarks/`` file, an example
script or a ``bench/`` workload (``bench:kad_service_256``).
``--footprint`` prints, per module, its code lines, its never-called
``def``s and the reporters that enter any of its functions — what a
module costs, and which reported numbers would notice it gone.

The census takes a few minutes, so it is not part of the tier-1 suite::

    PYTHONPATH=src python tests/reach.py              # check against BUDGET
    PYTHONPATH=src python tests/reach.py --list       # every never-called name
    PYTHONPATH=src python tests/reach.py --footprint  # reporters per module
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
    "faults": 4,
    "metrics": 0,
    "obs": 7,
    "overlay": 16,
    "rng": 0,
    "runner": 4,
    "service": 1,
    "sim": 32,
    "underlay": 4,
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


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro",) + parts)


def module_lines() -> dict[str, int]:
    """Module name -> its code lines (:func:`_body_lines`)."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        out[_module_name(path)] = len(_body_lines(ast.parse(text), text))
    return out


def src_functions() -> dict[tuple[str, int], tuple[str, str, set[int]]]:
    """``(file, first line)`` -> ``(package, qualname, body lines)`` for
    every ``def`` under ``src/repro``, nested ones included.  The first
    line is the code object's: the first decorator's line if there is
    one.  Body lines are those of :func:`_body_lines` in its span."""
    out: dict[tuple[str, int], tuple[str, str, set[int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).parts[0].removesuffix(".py")
        module = _module_name(path)
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

class _Calls:
    """Code objects entered, per reporter.  Keyed by identity: code
    objects compare equal across files (the file name is not part of code
    equality), so a set would merge two identical functions that start on
    the same line of two modules."""

    #: what runs while a part imports or collects its reporters, before
    #: the first one starts: called, but by no reporter in particular
    IMPORT = "import"

    def __init__(self) -> None:
        self.by_reporter: dict[str, dict[int, CodeType]] = {}
        self.enter(self.IMPORT)

    def enter(self, reporter: str) -> None:
        self.seen = self.by_reporter.setdefault(reporter, {})

    def hook(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            self.seen[id(code)] = code


def _cli_ids(calls: _Calls) -> None:
    from tests.test_golden_rows import EXPERIMENTS, rows_digest

    for exp_id in sorted(EXPERIMENTS):
        calls.enter(f"cli:{exp_id}")
        rows_digest(exp_id)


class _PerFile:
    """pytest plugin: what a test enters (module fixtures included, set
    up inside its module's first test) belongs to its file."""

    def __init__(self, calls: _Calls) -> None:
        self.calls = calls

    def pytest_runtest_setup(self, item) -> None:
        self.calls.enter(f"benchmarks/{Path(str(item.fspath)).name}")


def _benchmarks(calls: _Calls) -> None:
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")],
        plugins=[_PerFile(calls)],
    )
    if code != 0:
        raise SystemExit(f"benchmarks/ failed under the census (exit {code})")


def _examples(calls: _Calls) -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        calls.enter(f"examples/{example.name}")
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


def _bench_drivers(calls: _Calls) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    import workloads

    for name, spec in workloads.WORKLOADS.items():
        calls.enter(f"bench:{name}")
        workloads.DRIVERS[name](11, spec["quick"], run.Phases())


PARTS = (_cli_ids, _benchmarks, _examples, _bench_drivers)


def called_code() -> dict[tuple[str, int], set[str]]:
    """``(file, first line)`` of every function the reported runs
    enter -> the reporters that enter it."""
    calls = _Calls()
    sys.path.insert(0, str(ROOT))
    os.chdir(ROOT)
    for part in PARTS:
        calls.enter(calls.IMPORT)
        threading.setprofile(calls.hook)
        sys.setprofile(calls.hook)
        try:
            part(calls)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    out: dict[tuple[str, int], set[str]] = {}
    for reporter, seen in calls.by_reporter.items():
        for code in seen.values():
            key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
            out.setdefault(key, set()).add(reporter)
    return out


# -- the budget ----------------------------------------------------------------

def census() -> tuple[dict[str, dict], dict[str, dict]]:
    """Per package: its function count and body lines, and the
    never-called functions with their body lines.  Per module: its
    function count, never-called count and the reporters entering it."""
    functions = src_functions()
    called = called_code()
    table: dict[str, dict] = {}
    modules: dict[str, dict] = {}
    for key, (package, qualname, body) in functions.items():
        row = table.setdefault(
            package,
            {"functions": 0, "lines": set(), "dead": [], "dead_lines": set()},
        )
        module = modules.setdefault(
            qualname.partition(":")[0],
            {"functions": 0, "dead": 0, "reporters": set()},
        )
        row["functions"] += 1
        module["functions"] += 1
        row["lines"].update((key[0], n) for n in body)
        if key in called:
            module["reporters"].update(called[key] - {_Calls.IMPORT})
        else:
            row["dead"].append(qualname)
            row["dead_lines"].update((key[0], n) for n in body)
            module["dead"] += 1
    return dict(sorted(table.items())), modules


_KINDS = (("cli", "cli:"), ("benchmarks", "benchmarks/"),
          ("examples", "examples/"), ("bench", "bench:"))


def print_footprint(modules: dict[str, dict]) -> None:
    """One row per ``src/`` module: code lines, ``def``s, never-called
    ``def``s and its reporters by kind, named when there are at most
    four (a module only one ablation enters shows which)."""
    print(f"\n{'module':<42} {'lines':>5} {'defs':>4} {'dead':>4}  reporters")
    for name, lines in module_lines().items():
        row = modules.get(name, {"functions": 0, "dead": 0, "reporters": set()})
        reporters = sorted(row["reporters"])
        by_kind = ", ".join(
            f"{sum(r.startswith(prefix) for r in reporters)} {kind}"
            for kind, prefix in _KINDS
        )
        named = f": {' '.join(reporters)}" if 0 < len(reporters) <= 4 else ""
        print(f"{name:<42} {lines:>5} {row['functions']:>4} "
              f"{row['dead']:>4}  {len(reporters)} ({by_kind}){named}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true",
        help="print every never-called qualname, not only moved packages'",
    )
    parser.add_argument(
        "--footprint", action="store_true",
        help="print each module's lines and the reporters that enter it",
    )
    args = parser.parse_args(argv)
    table, modules = census()
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
    if args.footprint:
        print_footprint(modules)
    if moved:
        print(f"\nreach budget moved for: {', '.join(moved)}; "
              f"counts are {counts}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
