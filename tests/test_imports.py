"""Every name a ``futurecall`` module imports is read in that module, and
every function, method and class the package defines has a reader.

The package's ``__init__.py`` re-exports names it never reads, so it is left
out; ``from __future__`` imports bind no name that code reads. A definition
is read when a package module other than ``__init__.py`` reads its name as
a name or an attribute, or when ``bench/*.py`` names it as a name, an
attribute or a string (``bench/tracing.py`` patches methods by their name).
Tests do not count as readers: a definition only a test calls is dead code.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "futurecall"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")

# Definitions with no reader in the package or the bench, each kept for a
# reason.
UNREAD_ALLOWED = {
    "sequential_sum": "acceptance criteria compute the savings split with it",
    "effective_union": "acceptance criteria compute the savings split with it",
    "overhead_speedup": "acceptance criteria report the overhead-adjusted speedup with it",
    "paired_log_speedup_test": "acceptance criteria test the paired speedup with it",
    "mcnemar": "acceptance criteria compare per-task outcomes with it",
    "transform_schema": "the future-accepting schema a live decoder will be offered (ROADMAP item 7)",
    "await_future_schema": "the await tool a live decoder will be offered (ROADMAP item 7)",
    "ChatCompletionsDecoder": "the live decoder, built by its user and not by the package",
}


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


def unread_definitions(package: dict[str, str], bench: list[str]) -> list[str]:
    """The functions, methods and classes defined in the package sources
    (module file name to text) that no reader reads; dunder names are
    exempt."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for name, source in sorted(package.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif name == "__init__.py":
                continue
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    for source in bench:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_read():
    package = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    unread = unread_definitions(package, bench)
    assert [entry for entry in unread if entry.partition(" ")[0] not in UNREAD_ALLOWED] == []
    # An allowed name that gains a reader leaves the list.
    assert sorted(entry.partition(" ")[0] for entry in unread) == sorted(UNREAD_ALLOWED)


def test_a_definition_left_behind_is_found():
    futures = (
        "class FutureStore:\n"
        "    def __init__(self):\n        self._records = {}\n"
        "    def find(self, fid):\n        return self._records.get(fid)\n"
        "    def owner_of(self, fid):\n        return self.find(fid)\n"
        "    def state_of(self, fid):\n        return self.find(fid)\n"
        "    def resolve(self, fid):\n        pass\n"
    )
    package = {
        "__init__.py": "from .futures import FutureStore\nFutureStore.owner_of\n",
        "futures.py": futures,
        "driver.py": "from .futures import FutureStore\nFutureStore().find('fut_0')\n",
    }
    bench = ["import futurecall\nPATCHED = [(futurecall.FutureStore, 'state_of')]\n"]
    assert unread_definitions(package, bench) == ["owner_of (futures.py:6)", "resolve (futures.py:10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_left_behind_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .futures import RESOLVED, extract_field\nRESOLVED\n"
    assert unused_imports(source) == ["extract_field (line 3)", "os (line 2)"]
