"""Documentation/code consistency guards.

The promise of DESIGN.md/EXPERIMENTS.md is that every benchmark is
indexed and every indexed module exists; these tests keep the docs from
rotting as the code moves.
"""

import dataclasses
import fnmatch
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


#: names the docs spell that are not ``repro``'s -> why
_FOREIGN = {
    "np.unique": "numpy",
    "np.sum": "numpy",
    "mat.item": "numpy, on a matrix",
    "dataclass": "the standard library",
    "bisect_right": "the standard library",
    "choice": "the standard library's random.choice",
    "replace": "the standard library's dataclasses.replace",
    "repr": "a builtin",
    "min": "a builtin",
    "float": "a builtin",
    "None": "a builtin constant",
    "callback": "a parameter",
    "O": "big-O notation",
    "Globase.KOM": "a surveyed system's own name",
    "SkyEye.KOM": "a surveyed system's own name",
    "SendLog": "a test oracle, tests/sendlog.py",
    "ReferenceKBucket": "a test oracle, tests/kbucket_reference.py",
    "ReferenceLookup": "a test oracle, tests/test_kademlia_lookup_path.py",
}


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


def _has_attr(cls, attr: str) -> bool:
    """A class attribute, a dataclass field, or an instance attribute
    its methods assign."""
    if hasattr(cls, attr) or (
        dataclasses.is_dataclass(cls)
        and attr in {f.name for f in dataclasses.fields(cls)}
    ):
        return True
    return re.search(
        rf"self\.{attr}\b\s*(:[^=]*)?=", inspect.getsource(cls)
    ) is not None


def test_every_documented_name_exists():
    """Every back-quoted ``Class.attr`` names an attribute of a public
    ``repro`` class of that name, every back-quoted call span
    (``name()``, ``obj.name(args)``) names a public ``repro`` callable,
    and every back-quoted lone CamelCase name (``PingService``) names a
    public ``repro`` class: a doc that still names a deleted function or
    class fails here."""
    index = _public_callables()
    class_attr = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")
    call = re.compile(r"([A-Za-z_][\w.]*)\([^()]*\)")
    lone_class = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")
    missing = []
    for doc in _living_docs():
        for span in _code_spans(doc):
            name = span.strip()
            if lone_class.fullmatch(name) and name not in _FOREIGN:
                if not any(inspect.isclass(c) for c in index.get(name, [])):
                    missing.append(f"{doc.relative_to(ROOT)}: {name}")
            for cls_name, attr in class_attr.findall(span):
                if attr in ("md", "py", "json") or f"{cls_name}.{attr}" in _FOREIGN:
                    continue  # a file name, or not repro's
                classes = [c for c in index.get(cls_name, []) if inspect.isclass(c)]
                if not any(_has_attr(c, attr) for c in classes):
                    missing.append(f"{doc.relative_to(ROOT)}: {cls_name}.{attr}")
            whole = call.fullmatch(span.strip())
            if whole is None or class_attr.search(whole.group(1)):
                continue  # not a lone call, or checked as Class.attr above
            callee = whole.group(1)
            if callee not in _FOREIGN and callee.rsplit(".", 1)[-1] not in index:
                missing.append(f"{doc.relative_to(ROOT)}: {callee}()")
    assert not missing, "docs name what repro does not have:\n" + "\n".join(
        sorted(set(missing))
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


def test_every_documented_file_name_exists():
    """Every back-quoted file name in the living docs — bare
    (`sendlog.py`), package-relative (`gnutella/flood.py`) or a glob
    (`test_*.py`) — names a file somewhere in the tree."""
    skip = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
    files = [
        p.relative_to(ROOT).as_posix()
        for p in ROOT.rglob("*")
        if p.is_file() and not skip & set(p.relative_to(ROOT).parts)
    ]
    file_name = re.compile(
        r"[\w.*/-]*\w\.(?:py|md|json|txt|toml|cfg|ya?ml|sh|dot|ini|csv)\b"
    )
    missing = []
    for doc in _living_docs():
        for span in _code_spans(doc):
            for name in file_name.findall(span):
                if not any(
                    fnmatch.fnmatch(f, name) or fnmatch.fnmatch(f, "*/" + name)
                    for f in files
                ):
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
