"""Every name a truncalg module imports is read somewhere in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncalg"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in unused_imports(path)]
    assert not unused, unused
