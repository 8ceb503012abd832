"""The package computes exactly: no floating point in any of its modules.

The one exemption is the wall clock that ``cli._cmd_verify`` turns into
the ``runtime_ms`` of a report, found by its place in that function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codelattice"

# math functions on integers only; every other name in math is a float
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(tree: ast.AST, exempt: frozenset = frozenset()) -> list:
    """(line, what) for each floating-point construct outside the exempt lines."""
    math_names = {"math"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {a.asname or a.name for a in node.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "the name float"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in INTEGER_MATH]
            what = bad and f"from math import {', '.join(bad)}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            what = f"math.{node.attr}"
        if what and node.lineno not in exempt:
            found.append((node.lineno, what))
    return sorted(found)


def wall_clock_lines(tree: ast.Module) -> frozenset:
    """The lines of the ``ms = ...`` statement in ``_cmd_verify``."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "_cmd_verify":
            for stmt in fn.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "ms" for t in stmt.targets
                ):
                    return frozenset(range(stmt.lineno, stmt.end_lineno + 1))
    raise AssertionError("cli._cmd_verify has no wall-clock statement")


def test_package_has_no_floating_point():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = wall_clock_lines(tree) if path.name == "cli.py" else frozenset()
        found += [(path.name, line, what) for line, what in float_uses(tree, exempt)]
    assert found == []


def test_float_check_catches_each_form():
    src = (
        "import math as m\n"
        "from math import gcd, sqrt\n"
        "a = 1 / 2\n"
        "a /= 2\n"
        "b = 0.5\n"
        "c = float(3)\n"
        "d = m.log(2) + m.isqrt(9) + gcd(4, 6)\n"
        "e = 7 // 2\n"
    )
    assert float_uses(ast.parse(src)) == [
        (2, "from math import sqrt"),
        (3, "true division"),
        (4, "true division"),
        (5, "float literal 0.5"),
        (6, "the name float"),
        (7, "math.log"),
    ]
    assert float_uses(ast.parse(src), frozenset(range(1, 9))) == []
