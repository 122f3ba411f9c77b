"""Documentation/code consistency guards.

The promise of DESIGN.md/EXPERIMENTS.md is that every benchmark is
indexed and every indexed module exists; these tests keep the docs from
rotting as the code moves.
"""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_every_benchmark_is_documented():
    docs = _read("DESIGN.md") + _read("EXPERIMENTS.md") + _read("README.md")
    for bench in (ROOT / "benchmarks").glob("test_*.py"):
        stem = bench.stem
        assert stem in docs, f"benchmark {stem} is not referenced in the docs"


def test_every_documented_module_exists():
    text = _read("docs/paper_map.md") + _read("DESIGN.md")
    for match in set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text)):
        # module path -> file path (module or attribute of a module)
        parts = match.split(".")
        candidates = [
            ROOT / "src" / pathlib.Path(*parts) / "__init__.py",
            (ROOT / "src" / pathlib.Path(*parts)).with_suffix(".py"),
            ROOT / "src" / pathlib.Path(*parts[:-1]) / "__init__.py",
            (ROOT / "src" / pathlib.Path(*parts[:-1])).with_suffix(".py"),
        ]
        assert any(c.exists() for c in candidates), f"{match} referenced in docs but missing"


def test_every_documented_path_exists():
    # CHANGES.md and ROADMAP.md are history and may name what is gone
    docs = [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted((ROOT / "docs").glob("*.md")) + [ROOT / "bench" / "README.md"]
    docs += sorted((ROOT / "docs" / "perf-log").glob("*.md"))
    # the lookbehind skips package-relative paths (`underlay/cache.py`)
    in_tree = re.compile(
        r"(?<![\w/])(?:benchmarks|tests|bench|docs|examples|src)/[\w.*/-]*"
    )
    result_file = re.compile(r"\bBENCH_\w+\.json|\b\w+_floor\.json")
    missing = []
    for doc in docs:
        text = doc.read_text()
        for span in re.findall(r"`([^`\n]+)`", text):
            for path in in_tree.findall(span):
                path = path.rstrip(".")
                if path.startswith("bench/out/"):
                    continue  # generated
                if not ((ROOT / path).exists() or any(ROOT.glob(path))):
                    missing.append(f"{doc.relative_to(ROOT)}: {path}")
        for name in result_file.findall(text):
            if not ((ROOT / name).exists() or (ROOT / "benchmarks" / name).exists()):
                missing.append(f"{doc.relative_to(ROOT)}: {name}")
    assert not missing, "docs name files that do not exist:\n" + "\n".join(
        sorted(set(missing))
    )


def test_api_doc_generator_runs():
    out = subprocess.run(
        [sys.executable, str(ROOT / "docs" / "_gen_api.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "repro.core.framework" in out.stdout
    # the committed reference is the generator's output: a public name
    # added, removed or re-documented without regenerating fails here
    assert out.stdout == _read("docs/api.md"), (
        "docs/api.md is stale: python docs/_gen_api.py > docs/api.md"
    )


def test_examples_table_matches_directory():
    readme = _read("README.md")
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in readme, f"{example.name} missing from README"
