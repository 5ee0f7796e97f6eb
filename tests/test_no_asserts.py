"""No runtime guard in the package relies on `assert`.

`python -O` strips assert statements, and an AssertionError names no
failure class the CLI maps to an exit code, so guards raise MineconError
subclasses instead.
"""

import ast
from pathlib import Path

import minecon

PACKAGE = Path(minecon.__file__).resolve().parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_guards():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
