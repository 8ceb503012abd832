"""Values stay immutable without writing through ``object.__setattr__``.

Lattices, matrices, codes, towers, gadgets and results are named tuples,
immutable by construction.  ``BinaryVector`` alone keeps its own slots,
because a tuple base would change how it iterates, and fills them once in
``__init__``.  A write through ``object.__setattr__`` anywhere else sets an
attribute past an immutability guard, which is how a hidden cache starts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codelattice"
ALLOWED = {"BinaryVector"}


def object_setattr_uses(tree: ast.AST) -> list:
    """(line, enclosing class or None) for each ``object.__setattr__`` outside ALLOWED."""
    found = []

    def visit(node: ast.AST, cls) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__setattr__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
                and cls not in ALLOWED
            ):
                found.append((child.lineno, cls))
            visit(child, cls)

    visit(tree, None)
    return sorted(found)


def test_package_writes_no_attribute_past_a_guard():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, line, cls) for line, cls in object_setattr_uses(tree)]
    assert found == []


def test_setattr_check_catches_each_form():
    src = (
        "class BinaryVector:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'n', 0)\n"
        "class Code:\n"
        "    def search(self):\n"
        "        object.__setattr__(self, '_cache', 1)\n"
        "def helper(x):\n"
        "    write = object.__setattr__\n"
        "    write(x, 'y', 2)\n"
        "object.__setattr__(helper, 'z', 3)\n"
    )
    assert object_setattr_uses(ast.parse(src)) == [(6, "Code"), (8, None), (10, None)]
