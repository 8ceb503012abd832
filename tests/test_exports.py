"""Every exported name resolves, and the package re-exports only exported names."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codelattice"


def test_every_all_entry_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"codelattice.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    stale = []
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"codelattice.{node.module}")
        exported = getattr(mod, "__all__", ())
        stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stale == []
