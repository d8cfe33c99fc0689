"""Every name a ``futurecall`` module imports is read in that module.

The package's ``__init__.py`` re-exports names it never reads, so it is left
out; ``from __future__`` imports bind no name that code reads.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "futurecall"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the source's imports bind and no expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_left_behind_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .futures import RESOLVED, extract_field\nRESOLVED\n"
    assert unused_imports(source) == ["extract_field (line 3)", "os (line 2)"]
