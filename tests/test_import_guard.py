"""Start-up guard: importing the package does not load scipy.

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


def test_no_scipy_module_is_loaded_by_bench_or_cli_imports():
    """Counted in a fresh interpreter, so no earlier test's imports leak
    in.  Before scipy moved into its call sites this loaded 490 ``scipy``
    modules (scipy 1.17.1)."""
    modules = _bench_repro_modules() + ["repro.cli"]
    assert "repro.service.load" in modules  # the parse found the imports
    code = (
        "import importlib, json, sys\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module(m)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert loaded == [], f"{len(loaded)} scipy modules loaded: {loaded[:5]}"
