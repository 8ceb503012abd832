"""Standard output is written in one place: ``cli._emit``.

Every answer the command line prints, and every golden file pinned from
it, passes through that function.  Anything else the package writes, such
as an error line or a report on stderr, names ``sys.stderr`` explicitly,
so a diagnostic added anywhere cannot land among the answer's bytes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codelattice"


def stdout_writes(tree: ast.AST, module: str) -> list:
    """(line, what) for each ``sys.stdout`` outside ``cli._emit`` and each
    ``print(`` call that does not pass ``file=sys.stderr``."""
    found = []

    def is_stderr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "stderr"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        )

    def visit(node: ast.AST, fn) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if fn is None else fn)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "stdout"
                and isinstance(child.value, ast.Name)
                and child.value.id == "sys"
                and (module, fn) != ("cli", "_emit")
            ):
                found.append((child.lineno, "sys.stdout"))
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "print"
                and not any(k.arg == "file" and is_stderr(k.value) for k in child.keywords)
            ):
                found.append((child.lineno, "print"))
            visit(child, fn)

    visit(tree, None)
    return sorted(found)


def test_only_cli_emit_writes_stdout():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, line, what) for line, what in stdout_writes(tree, path.stem)]
    assert found == []


def test_stdout_check_catches_each_form():
    src = (
        "import sys\n"
        "def _emit(text):\n"
        "    sys.stdout.write(text)\n"
        "def report(x):\n"
        "    print(x)\n"
        "    print(x, file=sys.stdout)\n"
        "    print(x, file=sys.stderr)\n"
        "    out = sys.stdout\n"
        "    def inner():\n"
        "        sys.stdout.flush()\n"
    )
    tree = ast.parse(src)
    assert stdout_writes(tree, "cli") == [
        (5, "print"),
        (6, "print"),
        (6, "sys.stdout"),
        (8, "sys.stdout"),
        (10, "sys.stdout"),
    ]
    assert stdout_writes(tree, "gadgets") == [
        (3, "sys.stdout"),
        (5, "print"),
        (6, "print"),
        (6, "sys.stdout"),
        (8, "sys.stdout"),
        (10, "sys.stdout"),
    ]
