import ast
import pathlib

import equiangular


def test_no_assert_statements_in_the_package():
    """Checks in the library raise explicitly: python -O strips assert."""
    found = []
    for path in sorted(pathlib.Path(equiangular.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
