from __future__ import annotations

import gc
import pathlib
from contextlib import contextmanager

import pytest

from futurecall import lint_context, load_workload, run_workload

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ["fig1", "vehicle", "diamond", "fail-chain", "thinking", "pairs", "templated"]

# C1, an await of its result as A1, then a final answer triggered on A1.
AWAIT_TRIGGER_WORKLOAD = {
    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}, "latency": 1}],
    "script": [
        {"emit": [{"id": "C1", "name": "t"}]},
        {"emit": [{"id": "A1", "name": "await_future", "args": {"future_ids": ["@C1"]}}]},
        {"when": {"resolved": ["A1"]}, "final": "x"},
    ],
}


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


@pytest.fixture
def fig1():
    return load_workload(fixture_path("fig1"))


def run_fixture(name: str, mode: str, **kwargs):
    """Load a repo fixture fresh, run it, and lint the produced context."""
    trace = run_workload(load_workload(fixture_path(name)), mode, **kwargs)
    assert lint_context(trace.messages) == []
    return trace


@contextmanager
def no_cyclic_garbage():
    """Fail unless the block leaves no garbage that only the cycle collector
    can free. Collects first, keeps the collector off inside the block, and
    restores its state before the check."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects were left in reference cycles"
