"""Documentation/code consistency guards.

The promise of DESIGN.md/EXPERIMENTS.md is that every benchmark is
indexed and every indexed module exists; these tests keep the docs from
rotting as the code moves.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_every_benchmark_is_documented():
    docs = _read("DESIGN.md") + _read("EXPERIMENTS.md") + _read("README.md")
    for bench in (ROOT / "benchmarks").glob("test_*.py"):
        stem = bench.stem
        assert stem in docs, f"benchmark {stem} is not referenced in the docs"


def _living_docs() -> list[pathlib.Path]:
    """The docs that describe the tree as it is.  CHANGES.md, ROADMAP.md
    and docs/perf-log/ are history and may name what is gone."""
    docs = [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    return docs + sorted((ROOT / "docs").glob("*.md"))


def _code_spans(doc: pathlib.Path) -> list[str]:
    """Back-quoted spans (they may wrap over a line end), fenced blocks
    left out."""
    text = re.sub(r"```.*?```", "", doc.read_text(), flags=re.DOTALL)
    return re.findall(r"`([^`]+)`", text)


def _resolve(dotted: str):
    """``repro.a.b.Name.attr`` -> the object, importing the longest
    module prefix and walking attributes from there."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)  # AttributeError: the name is gone
        return obj
    raise ImportError(dotted)


def test_every_documented_module_exists():
    """Every back-quoted dotted ``repro.…`` name — module, class,
    function or method — resolves by import."""
    missing = []
    for doc in _living_docs():
        for span in _code_spans(doc):
            for dotted in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", span):
                try:
                    _resolve(dotted)
                except (ImportError, AttributeError):
                    missing.append(f"{doc.relative_to(ROOT)}: {dotted}")
    assert not missing, "docs name what cannot be imported:\n" + "\n".join(
        sorted(set(missing))
    )


#: callables the docs mention that are numpy's or the standard library's
_FOREIGN = {"np.unique", "dataclass", "bisect_right", "choice"}


def _public_callables() -> dict[str, list]:
    """Bare name -> every public class, function and method of that name
    anywhere under ``repro``."""
    index: dict[str, list] = {}
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(p.startswith("_") for p in modinfo.name.split(".")):
            continue
        mod = importlib.import_module(modinfo.name)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != mod.__name__:
                continue
            if inspect.isclass(obj):
                index.setdefault(name, []).append(obj)
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        index.setdefault(attr, []).append(member)
            elif inspect.isfunction(obj):
                index.setdefault(name, []).append(obj)
    return index


def _accepts(obj, keyword: str) -> bool:
    params = inspect.signature(obj).parameters
    return keyword in params or any(
        p.kind is p.VAR_KEYWORD for p in params.values()
    )


def test_every_documented_keyword_exists():
    """Every back-quoted ``Name(keyword=`` names a callable under
    ``repro`` that takes that keyword: a deleted option, or one renamed
    without its paragraph, fails here."""
    index = _public_callables()
    call = re.compile(r"([A-Za-z_][\w.]*)\(([^()]*)")
    wrong = []
    for doc in _living_docs():
        for span in _code_spans(doc):
            for name, args in call.findall(span):
                keywords = re.findall(r"(?<![\w.])([a-z_]\w*)=(?!=)", args)
                if not keywords or name in _FOREIGN:
                    continue
                if name.startswith("repro."):
                    candidates = [_resolve(name)]
                else:
                    candidates = index.get(name.rsplit(".", 1)[-1], [])
                for keyword in keywords:
                    if not any(_accepts(c, keyword) for c in candidates):
                        wrong.append(
                            f"{doc.relative_to(ROOT)}: {name}({keyword}=)"
                        )
    assert not wrong, "docs name keywords nothing takes:\n" + "\n".join(
        sorted(set(wrong))
    )


def test_every_documented_path_exists():
    # the perf log is history, but the files it points at must exist
    docs = _living_docs() + [ROOT / "bench" / "README.md"]
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
