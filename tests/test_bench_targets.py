"""Every name the benchmark tracer wraps must still exist in the package.

``perfbench/spans.py`` looks each TARGETS name up with ``getattr`` when a
traced run starts, so deleting one of them from ``src/`` breaks every
traced benchmark run.  TARGETS is read with ``ast`` instead of importing
spans.py: that module imports the benchmark's own ``oracles``, which would
collide with ``tests/oracles.py``.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list[str]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("TARGETS not found in perfbench/spans.py")


def test_every_traced_name_resolves():
    names = _targets()
    assert "zlattice.lll_reduce" in names and "zlattice.shortest_vectors" in names
    missing = []
    for span in names:
        mod_name, _, attr = span.partition(".")
        home = importlib.import_module(f"codelattice.{mod_name}")
        if "." in attr:
            # methods are wrapped through the class __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append(span)
        elif not callable(getattr(home, attr, None)):
            missing.append(span)
    assert missing == []
    gf2core = importlib.import_module("codelattice.gf2core")
    assert "codewords" in gf2core.Code.__dict__
