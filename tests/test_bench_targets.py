"""Every name the benchmark tracer wraps must still exist in the package,
and the calls its work counters read must keep their shape.

``perfbench/spans.py`` looks each TARGETS name up with ``getattr`` when a
traced run starts, so deleting one of them from ``src/`` breaks every
traced benchmark run.  Its counters also read arguments by position or by
name, so renaming a parameter or passing one by keyword crashes the op or
makes the traced run's work counts disagree.  TARGETS is read with ``ast``
instead of importing spans.py: that module imports the benchmark's own
``oracles``, which would collide with ``tests/oracles.py``.
"""

import ast
import importlib
import inspect
from pathlib import Path

from codelattice.gadgets import ternary_sign_search
from codelattice.gf2core import min_distance, min_weight_codewords
from codelattice.zlattice import Lattice, lll_reduce

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_counted_arguments_keep_their_names_and_places():
    # the sign-pattern counter reads args[1] or kwargs["C"], args[2] or kwargs["bound"]
    assert _parameters(ternary_sign_search)[:3] == ["L", "C", "bound"]
    # the HNF counter materialises and counts args[2] of the classmethod, after cls and n
    assert _parameters(Lattice.__dict__["from_generators"].__func__)[:3] == ["cls", "n", "columns"]
    # a[0].rank and a[0].dimension: the lattice and the code come first
    assert _parameters(lll_reduce)[0] == "L"
    assert _parameters(min_distance) == ["C"]
    assert _parameters(min_weight_codewords) == ["C"]


def test_counted_calls_pass_their_arguments_positionally():
    # name -> how many leading arguments a counter reads by position
    positional = {"from_generators": 2, "lll_reduce": 1, "min_distance": 1,
                  "min_weight_codewords": 1}
    bad, seen = [], set()
    for path in sorted((ROOT / "src" / "codelattice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name not in positional:
                continue
            seen.add(name)
            leading = node.args[: positional[name]]
            if len(leading) < positional[name] or any(
                isinstance(a, ast.Starred) for a in leading
            ):
                bad.append(f"{path.name}:{node.lineno} {name}")
    assert seen == set(positional)
    assert bad == []
