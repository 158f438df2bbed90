"""Checks on the library source itself."""

import ast
import pathlib

import qgroth


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so they cannot guard anything
    found = []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
