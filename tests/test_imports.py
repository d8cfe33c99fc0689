"""Every name a ``futurecall`` module imports is read in that module,
every function, method and class the package defines has a reader, and so
does every attribute it stores.

The package's ``__init__.py`` re-exports names it never reads, so it is left
out; ``from __future__`` imports bind no name that code reads. A definition
is read when a package module other than ``__init__.py`` reads its name as
a name or an attribute. One that only ``bench/*.py`` names, as a name, an
attribute or a string (``bench/tracing.py`` patches methods by their name),
is listed in ``BENCH_ONLY``, so a definition that loses its last package
reader is found even while the bench still names it. Tests do not count as
readers: a definition only a test calls is dead code.
A stored attribute is a dataclass or ``NamedTuple`` field, a ``__slots__``
entry or a ``self.x =`` target; it is read by the same rule, except that
only an attribute read counts in the package, so state written and never
read is found.
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


# Definitions with no reader in the package that the bench names, each with
# what the bench does with it. Each pins a src name that a bench change
# could let go (ROADMAP item 1).
BENCH_ONLY = {
    "state_of": "bench/tracing.py counts its calls as futures.state_of_calls; the package looks ids up "
    "through find and passes records everywhere else",
    "live_labels": "bench/tracing.py samples its length for scheduler.live_labels_peak",
}


# Stored attributes with no reader in the package or the bench, each kept
# for a reason.
UNREAD_ATTRIBUTES_ALLOWED = {
    "FunctionSchema.returns_description": "the tool surface a live decoder will be offered (ROADMAP item 7); "
    "transform_schema and await_future_schema write it",
    **{
        f"SavingsReport.{name}": "read through dataclasses.asdict into the report"
        for name in ("s_m", "s_e", "d_e", "d_union")
    },
    **{
        f"PairedTestResult.{name}": "read through dataclasses.asdict into the report"
        for name in ("geomean_speedup", "t_stat", "p_value")
    },
    "DependencyEdge.producer": "edges are unpacked by position",
    "DependencyEdge.consumer": "edges are unpacked by position",
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


def bench_names(bench: list[str]) -> set[str]:
    """Every name, attribute and string constant in the bench sources."""
    names: set[str] = set()
    for source in bench:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unread_definitions(package: dict[str, str], bench: list[str]) -> tuple[list[str], list[str]]:
    """The functions, methods and classes defined in the package sources
    (module file name to text) that no package module reads, in two lists:
    those the bench does not name either, and those only the bench names;
    dunder names are exempt."""
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
    unread = sorted(
        (name, where)
        for name, where in defined.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    named = bench_names(bench)
    return (
        [f"{name} ({where})" for name, where in unread if name not in named],
        [f"{name} ({where})" for name, where in unread if name in named],
    )


def test_every_definition_is_read():
    package = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    unread, bench_only = unread_definitions(package, bench)
    assert [entry for entry in unread if entry.partition(" ")[0] not in UNREAD_ALLOWED] == []
    # An allowed name that gains a reader leaves the list.
    assert sorted(entry.partition(" ")[0] for entry in unread) == sorted(UNREAD_ALLOWED)
    # A definition whose last package reader goes joins BENCH_ONLY with a
    # reason; one that gains a package reader, or that the bench stops
    # naming, leaves it.
    assert sorted(entry.partition(" ")[0] for entry in bench_only) == sorted(BENCH_ONLY)


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
    assert unread_definitions(package, bench) == (
        ["owner_of (futures.py:6)", "resolve (futures.py:10)"],
        ["state_of (futures.py:8)"],
    )


def stored_attributes(source: str) -> dict[str, int]:
    """``Class.attr`` to its first line, for every field a class body
    annotates, every ``__slots__`` entry and every ``self.attr`` a method
    of the class assigns."""
    stored: dict[str, int] = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                stored.setdefault(f"{cls.name}.{node.target.id}", node.lineno)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
                for entry in node.value.elts:
                    stored.setdefault(f"{cls.name}.{entry.value}", node.lineno)
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            ):
                stored.setdefault(f"{cls.name}.{node.attr}", node.lineno)
    return stored


def unread_attributes(package: dict[str, str], bench: list[str]) -> list[str]:
    """The stored attributes of the package sources (module file name to
    text, ``__init__.py`` left out) that no package module reads as an
    attribute and no bench source names."""
    stored: dict[str, str] = {}
    read: set[str] = set()
    for name, source in sorted(package.items()):
        if name == "__init__.py":
            continue
        for attr, line in stored_attributes(source).items():
            stored.setdefault(attr, f"{name}:{line}")
        read.update(
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    read |= bench_names(bench)
    return sorted(f"{attr} ({where})" for attr, where in stored.items() if attr.partition(".")[2] not in read)


def test_every_stored_attribute_is_read():
    package = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    unread = [entry.partition(" ")[0] for entry in unread_attributes(package, bench)]
    assert [attr for attr in unread if attr not in UNREAD_ATTRIBUTES_ALLOWED] == []
    # An allowed attribute that gains a reader leaves the list.
    assert sorted(unread) == sorted(UNREAD_ATTRIBUTES_ALLOWED)


def test_a_field_left_behind_is_found():
    scheduler = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass CallRecord:\n    call_id: str\n    blocking_gates: set\n"
        "class Label:\n    __slots__ = ('owner', 'seq')\n"
        "class Scheduler:\n"
        "    def __init__(self):\n        self.calls = {}\n        self._pumps = 0\n"
        "    def admit(self, call, label):\n"
        "        call.blocking_gates = set()\n        self.calls[call.call_id] = label.owner\n"
    )
    package = {
        "__init__.py": "from .scheduler import CallRecord\nCallRecord.blocking_gates\n",
        "scheduler.py": scheduler,
        "executor.py": "def dispatch(call):\n    call.call_id\n",
    }
    bench = ["PATCHED = ['seq']\n"]
    assert unread_attributes(package, bench) == [
        "CallRecord.blocking_gates (scheduler.py:5)",
        "Scheduler._pumps (scheduler.py:11)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_left_behind_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .futures import RESOLVED, extract_field\nRESOLVED\n"
    assert unused_imports(source) == ["extract_field (line 3)", "os (line 2)"]
