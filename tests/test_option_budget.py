"""The option budget: every value a user can set, counted per package.

Three kinds of settable value, counted for each ``repro.<package>``
(a top-level module such as ``repro.cli`` is its own package):

- ``config`` — the init fields of every public ``*Config`` / ``*Policy``
  dataclass;
- ``kwargs`` — the parameters with a default (or keyword-only) of every
  other public class's own ``__init__``;
- ``env`` — the ``REPRO_*`` environment-variable names its source spells.

A change that adds or removes an option fails here until ``BUDGET`` is
updated, so the count is reviewed rather than described.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import repro

BUDGET = {
    "cli": {"config": 0, "kwargs": 0, "env": 0},
    "collection": {"config": 3, "kwargs": 24, "env": 0},
    "coords": {"config": 8, "kwargs": 6, "env": 0},
    "core": {"config": 0, "kwargs": 4, "env": 0},
    "errors": {"config": 0, "kwargs": 0, "env": 0},
    "experiments": {"config": 0, "kwargs": 0, "env": 0},
    "faults": {"config": 0, "kwargs": 4, "env": 0},
    "metrics": {"config": 0, "kwargs": 0, "env": 0},
    "obs": {"config": 0, "kwargs": 0, "env": 0},
    "overlay": {"config": 30, "kwargs": 42, "env": 0},
    "rng": {"config": 0, "kwargs": 0, "env": 0},
    "runner": {"config": 0, "kwargs": 0, "env": 2},
    "service": {"config": 9, "kwargs": 19, "env": 0},
    "sim": {"config": 4, "kwargs": 10, "env": 0},
    "underlay": {"config": 24, "kwargs": 9, "env": 0},
    "viz": {"config": 0, "kwargs": 0, "env": 0},
    "workloads": {"config": 4, "kwargs": 2, "env": 0},
}

_ENV_NAME = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")


def _is_option(param: inspect.Parameter) -> bool:
    if param.name == "self" or param.kind in (
        param.VAR_POSITIONAL, param.VAR_KEYWORD
    ):
        return False
    return param.kind is param.KEYWORD_ONLY or param.default is not param.empty


def option_counts() -> dict[str, dict[str, int]]:
    counts: dict[str, Counter] = {}
    env: dict[str, set[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        package = info.name.split(".")[1]
        tally = counts.setdefault(package, Counter(config=0, kwargs=0))
        env.setdefault(package, set()).update(
            _ENV_NAME.findall(Path(module.__file__).read_text())
        )
        for name, cls in vars(module).items():
            if (
                name.startswith("_")
                or not inspect.isclass(cls)
                or cls.__module__ != info.name
            ):
                continue
            if dataclasses.is_dataclass(cls):
                if name.endswith(("Config", "Policy")):
                    tally["config"] += sum(
                        f.init for f in dataclasses.fields(cls)
                    )
            elif "__init__" in vars(cls):
                params = inspect.signature(cls.__init__).parameters.values()
                tally["kwargs"] += sum(map(_is_option, params))
    return {
        package: {**tally, "env": len(env[package])}
        for package, tally in sorted(counts.items())
    }


def test_option_budget():
    counts = option_counts()
    total = {
        kind: sum(c[kind] for c in counts.values())
        for kind in ("config", "kwargs", "env")
    }
    assert counts == BUDGET, f"option counts moved (totals {total}): {counts}"
