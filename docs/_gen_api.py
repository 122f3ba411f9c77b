"""Regenerate docs/api.md from the live docstrings.

Usage:  python docs/_gen_api.py > docs/api.md
"""

import importlib
import inspect
import pkgutil

import repro


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return (doc.splitlines()[0] if doc else "").strip()


def main() -> None:
    print("# API reference (generated)\n")
    print("One line per public item, from the live docstrings. Regenerate with")
    print("`python docs/_gen_api.py > docs/api.md`.\n")
    print("Performance notes for the underlay substrate (fast kernels, lazy")
    print("matrices, the streaming delay kernel) live in")
    print("[docs/performance.md](performance.md); the fault-injection model")
    print("and retry semantics in [docs/faults.md](faults.md); the service")
    print("layer (arrival processes, load drivers, the bootstrapper control")
    print("plane) in [docs/service.md](service.md).\n")
    seen = set()
    for modinfo in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda m: m.name,
    ):
        name = modinfo.name
        if name in seen or any(p.startswith("_") for p in name.split(".")):
            continue
        seen.add(name)
        try:
            mod = importlib.import_module(name)
        except Exception:
            continue
        public = [
            (n, obj)
            for n, obj in vars(mod).items()
            if not n.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", None) == name
        ]
        if not public:
            continue
        print(f"## `{name}`\n")
        mdoc = first_line(mod)
        if mdoc:
            print(f"{mdoc}\n")
        for n, obj in sorted(public):
            kind = "class" if inspect.isclass(obj) else "def"
            print(f"- **`{kind} {n}`** — {first_line(obj)}")
        print()


if __name__ == "__main__":
    main()
