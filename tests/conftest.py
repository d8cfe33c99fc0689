from __future__ import annotations

import copy
import gc
import pathlib
from contextlib import contextmanager

import pytest

from futurecall import WorkloadSpec, lint_context, load_workload, run_workload
from futurecall.scheduler import CallRecord

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

# A call argument naming an await: an await has no result to pass on.
AWAIT_REF_WORKLOAD = {
    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}, "latency": 1}],
    "script": [
        {"emit": [{"id": "C1", "name": "t"}]},
        {"emit": [{"id": "A1", "name": "await_future", "args": {"future_ids": ["@C1"]}}]},
        {"emit": [{"id": "C2", "name": "t", "args": {"x": "@A1"}}]},
        {"when": {"resolved": ["C2"]}, "final": "x"},
    ],
}


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


@pytest.fixture
def fig1():
    return load_workload(fixture_path("fig1"))


def strip_annotations(base: WorkloadSpec) -> WorkloadSpec:
    """Copy of the workload with every dependency annotation removed."""
    spec = copy.deepcopy(base)
    for tool in spec.tools:
        tool.annotation = None
    return spec


def recording_tool(name, path=None, latency=1, returns=None):
    """A tool that writes the arguments it was given to /seen/<name>, and
    that writes the filled template ``path`` when one is given."""
    return {
        "schema": {"name": name, "description": "", "parameters": {}},
        "annotation": {"writes": [{"path": path}] if path else []},
        "latency": latency,
        "returns": [returns if returns is not None else {}],
        "state": {"writes": [{"path": f"/seen/{name}", "value": "{args}"}]},
    }


def new_call(scheduler, call_id, annotation=None, args=None, tool="t", **fields) -> CallRecord:
    """A call record built as ``TurnDriver._emit_calls`` builds one, for a
    test that drives the scheduler alone: with its result future, and
    written into the run's call registry, which the scheduler holds."""
    call = CallRecord(
        call_id=call_id,
        tool=tool,
        args={} if args is None else args,
        annotation=annotation,
        result=scheduler.store.create(owner_call=call_id),
        **fields,
    )
    scheduler.calls[call_id] = call
    return call


def capture_gates(scheduler) -> dict[str, set]:
    """Each admitted call's gates by call id, as ``Scheduler.blocking_gates``
    returns them; the scheduler keeps no copy once they open."""
    gates: dict[str, set] = {}
    blocking_gates = scheduler.blocking_gates

    def capture(call, accesses):
        found = gates[call.call_id] = blocking_gates(call, accesses)
        return found

    scheduler.blocking_gates = capture
    return gates


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
