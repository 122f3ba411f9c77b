"""Start-up guard: importing the package loads neither scipy nor asyncio.

Only GNP landmark embedding (``repro.coords.gnp``) and the §6 hop/delay
Spearman (``repro.metrics.challenges.hop_delay_correlation``) use scipy,
and each imports it inside the function that calls it.  A module-level
``from scipy import …`` anywhere on the import graph puts ``scipy.optimize``
or ``scipy.stats`` — about 0.6 s and 60 MiB — into every process.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_repro_modules() -> list[str]:
    """Every ``repro`` module ``bench/workloads.py`` imports at its top."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    mods = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            mods.add(node.module)
        elif isinstance(node, ast.Import):
            mods.update(a.name for a in node.names if a.name.startswith("repro"))
    return sorted(mods)


def _loaded_by_bench_and_cli(package: str) -> list[str]:
    """The ``package`` modules the bench + CLI import set loads, counted
    in a fresh interpreter so no earlier test's imports leak in."""
    modules = _bench_repro_modules() + ["repro.cli"]
    assert "repro.service.load" in modules  # the parse found the imports
    code = (
        "import importlib, json, sys\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module(m)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m.partition('.')[0] == {package!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_no_scipy_module_is_loaded_by_bench_or_cli_imports():
    """Before scipy moved into its call sites this loaded 490 ``scipy``
    modules (scipy 1.17.1)."""
    loaded = _loaded_by_bench_and_cli("scipy")
    assert loaded == [], f"{len(loaded)} scipy modules loaded: {loaded[:5]}"


def test_no_asyncio_module_is_loaded_by_bench_or_cli_imports():
    """Nothing in ``src/`` runs an event loop.  While the service layer
    had a socket front end this loaded 29 ``asyncio`` modules."""
    loaded = _loaded_by_bench_and_cli("asyncio")
    assert loaded == [], f"{len(loaded)} asyncio modules loaded: {loaded[:5]}"
