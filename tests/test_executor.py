from __future__ import annotations

import random

import pytest

from futurecall import DependencyAnnotation, FutureStore, RunTrace, SessionState, VirtualClock, run_workload
from futurecall.executor import Executor, StateStore
from futurecall.scheduler import Scheduler
from futurecall.schema import AccessDecl, FunctionSchema
from futurecall.workload import ToolSpec, workload_from_json

from conftest import new_call
from randgen import random_arg_dag_workload, reachable_from


def simple_workload(**overrides):
    data = {
        "tools": [
            {
                "schema": {"name": "slow", "description": "", "parameters": {}},
                "annotation": {"reads": [], "writes": [{"path": "/slow", "subtree": False}]},
                "latency": 9,
                "returns": [{"ok": True}],
            },
            {
                "schema": {"name": "quick", "description": "", "parameters": {}},
                "annotation": {"reads": [], "writes": [{"path": "/quick", "subtree": False}]},
                "latency": 1,
                "returns": [{"ok": True}],
            },
        ],
        "script": [
            {"emit": [{"id": "S", "name": "slow", "args": {}}], "decode_time": 1},
            {"emit": [{"id": "Q", "name": "quick", "args": {}}], "decode_time": 1},
            {"when": {"resolved": ["S", "Q"]}, "final": "done", "decode_time": 1},
        ],
    }
    data.update(overrides)
    return workload_from_json(data)


def test_independent_call_start_unaffected_by_long_runner():
    # Q's start time must not depend on S's latency.
    short = run_workload(simple_workload(), "async-sequential")
    long_tools = simple_workload()
    long_tools.tools[0].latency = 50
    longer = run_workload(long_tools, "async-sequential")
    assert short.exec_intervals_by_call()["Q"][0] == 2.0
    assert longer.exec_intervals_by_call()["Q"][0] == 2.0


def test_gated_call_dispatches_at_release_time():
    data = simple_workload()
    data.tools[1].annotation.reads = data.tools[0].annotation.writes  # quick reads /slow
    trace = run_workload(data, "async-sequential")
    assert trace.exec_intervals_by_call()["Q"] == (10.0, 11.0)


def test_unsubstitutable_argument_fails_the_consumer_and_cancels_its_dependents():
    # P resolves to a generator, which copy.deepcopy rejects: C fails while
    # its arguments are substituted, before it starts, and D is cancelled.
    clock = VirtualClock()
    store = FutureStore(clock)
    scheduler = Scheduler(store, SessionState(), clock)
    gen = ToolSpec(FunctionSchema(name="gen"), latency=1)
    gen.behavior = lambda a, i, s: (n for n in range(3))
    tools = {"gen": gen, "t": ToolSpec(FunctionSchema(name="t"), latency=1)}
    trace = RunTrace(mode="async-parallel")
    Executor(store, scheduler, clock, tools, StateStore(), trace)
    writes_c = DependencyAnnotation(writes=[AccessDecl("/c", False)])
    reads_c = DependencyAnnotation(reads=[AccessDecl("/c", False)])
    p = new_call(scheduler, "P", writes_c, tool="gen")
    c = new_call(scheduler, "C", writes_c, {"x": p.result.fid})
    d = new_call(scheduler, "D", reads_c, {"y": c.result.fid})
    # Three turns: a call names only futures handed back in earlier turns.
    for call in (p, c, d):
        scheduler.submit([call], [True])
    clock.run_until(lambda: d.terminal)
    assert p.status == "done" and c.status == "failed"
    error = c.result.error
    assert (error.kind, error.origin_call) == ("execution-error", "C")
    assert list(trace.exec_intervals_by_call()) == ["P"]
    assert d.status == "cancelled"
    assert d.result.error.origin_call == "C"
    assert scheduler.unopened_gates() == []


def test_tool_error_fails_result_and_releases_labels():
    data = simple_workload()
    data.tools[0].error_at = {0: "kaput"}
    data.tools[1].annotation.reads = data.tools[0].annotation.writes
    trace = run_workload(data, "async-sequential")
    assert trace.call_status["S"] == "failed"
    # quick reads the failed write: read-after-failed-write propagates
    assert trace.call_status["Q"] == "cancelled"


@pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
def test_waw_gate_does_not_propagate(mode):
    data = simple_workload()
    data.tools[0].error_at = {0: "kaput"}
    data.tools[1].annotation.writes = data.tools[0].annotation.writes  # WAW only
    trace = run_workload(data, mode)
    assert trace.edges == [("S", "Q", "gate-waw")]
    assert trace.call_status["S"] == "failed"
    assert trace.call_status["Q"] == "done"


def test_cancellation_chain_through_argument_futures():
    data = {
        "tools": [
            {
                "schema": {"name": f"t{i}", "description": "", "parameters": {}},
                "annotation": {"reads": [], "writes": []},
                "latency": 2,
                "returns": [{"i": i}],
                **({"error_at": {"0": "boom"}} if i == 2 else {}),
            }
            for i in range(1, 5)
        ],
        "script": [
            {"emit": [{"id": "F1", "name": "t1", "args": {}}], "decode_time": 1},
            {"emit": [{"id": "F2", "name": "t2", "args": {}}], "decode_time": 1},
            {"emit": [{"id": "F3", "name": "t3", "args": {"x": "@F2"}}], "decode_time": 1},
            {"emit": [{"id": "F4", "name": "t4", "args": {"x": "@F3"}}], "decode_time": 1},
            {"when": {"resolved": ["F1", "F2", "F3", "F4"]}, "final": "d", "decode_time": 1},
        ],
    }
    trace = run_workload(workload_from_json(data), "async-sequential")
    assert trace.call_status == {
        "F1": "done",
        "F2": "failed",
        "F3": "cancelled",
        "F4": "cancelled",
    }


def test_transitive_closure_matches_bruteforce_on_random_dags():
    rng = random.Random(20260810)
    for _ in range(120):
        spec, edges = random_arg_dag_workload(rng, max_calls=8)
        failed = rng.choice([t.schema.name for t in spec.tools])
        failed_id = f"F{failed[4:]}"
        for tool in spec.tools:
            if tool.schema.name == failed:
                tool.error_at = {0: "injected"}
        trace = run_workload(spec, "async-sequential")
        expected_cancelled = reachable_from(edges, failed_id)
        actual_cancelled = {c for c, s in trace.call_status.items() if s == "cancelled"}
        assert actual_cancelled == expected_cancelled
        assert trace.call_status[failed_id] == "failed"
        for call_id, status in trace.call_status.items():
            if call_id != failed_id and call_id not in expected_cancelled:
                assert status == "done"


def test_cancelled_call_never_mutates_state():
    data = simple_workload()
    data.tools[0].error_at = {0: "kaput"}
    data.tools[1].annotation.reads = data.tools[0].annotation.writes
    data.tools[1].state_writes = [("/quick", "{call}")]
    trace = run_workload(data, "async-sequential")
    assert trace.call_status["Q"] == "cancelled"
    assert "/quick" not in trace.final_state


def test_per_invocation_latency_list():
    data = {
        "tools": [
            {
                "schema": {"name": "t", "description": "", "parameters": {}},
                "annotation": {"reads": [], "writes": []},
                "latency": [4, 1],
                "returns": [{"ok": True}],
            }
        ],
        "script": [
            {"emit": [{"id": "A", "name": "t", "args": {}}], "decode_time": 1},
            {"emit": [{"id": "B", "name": "t", "args": {}}], "decode_time": 1},
            {"when": {"resolved": ["A", "B"]}, "final": "d", "decode_time": 1},
        ],
    }
    trace = run_workload(workload_from_json(data), "async-sequential")
    intervals = trace.exec_intervals_by_call()
    assert intervals["A"] == (1.0, 5.0)
    assert intervals["B"] == (2.0, 3.0)


def superseded_writer_workload():
    """R1 and R2 rewrite the /catalog subtree and P1, P2 read it, emitted
    R1 P1 R2 P2; R1 (the first reindex) fails after all four are decoded."""
    data = {
        "tools": [
            {
                "schema": {"name": "reindex", "description": "", "parameters": {}},
                "annotation": {"writes": [{"path": "/catalog", "subtree": True}]},
                "latency": [9, 2],
                "returns": [{}],
                "error_at": {"0": "reindex failed"},
                "state": {"writes": [{"path": "/catalog", "value": "{call}"}]},
            },
            {
                "schema": {"name": "read", "description": "", "parameters": {}},
                "annotation": {"reads": [{"path": "/catalog", "subtree": True}]},
                "latency": 1,
                "returns": [{}],
                "state": {"reads": [{"path": "/catalog", "subtree": True}]},
            },
        ],
        "script": [
            {
                "emit": [
                    {"id": "R1", "name": "reindex", "args": {}},
                    {"id": "P1", "name": "read", "args": {}},
                    {"id": "R2", "name": "reindex", "args": {}},
                    {"id": "P2", "name": "read", "args": {}},
                ]
            },
            {"when": {"resolved": ["R1", "P1", "R2", "P2"]}, "final": "done"},
        ],
    }
    return workload_from_json(data)


@pytest.mark.parametrize(
    "mode,expected",
    [
        # P2 reads the catalog R2 rewrote, and R2 only overwrote the failed
        # R1: the write/write edge does not carry R1's failure, so P2 runs,
        # as in the sync modes.
        ("async-sequential", {"R1": "failed", "P1": "cancelled", "R2": "done", "P2": "done"}),
        ("async-parallel", {"R1": "failed", "P1": "cancelled", "R2": "done", "P2": "done"}),
        ("sync-sequential", {"R1": "failed", "P1": "done", "R2": "done", "P2": "done"}),
        ("sync-parallel", {"R1": "failed", "P1": "done", "R2": "done", "P2": "done"}),
    ],
)
def test_failed_writer_cancels_readers_behind_a_later_writer(mode, expected):
    trace = run_workload(superseded_writer_workload(), mode)
    assert trace.call_status == expected
    if mode.startswith("async"):
        # R2 superseded R1's label, so P2 waits on R2 alone.
        assert ("R1", "P2", "gate-raw") not in trace.edges
        assert ("R2", "P2", "gate-raw") in trace.edges
        assert ("R1", "R2", "gate-waw") in trace.edges


def test_walk_follows_only_edges_recorded_before_it():
    # H's $session/cwd waits on C's session write. F's failure cancels C,
    # which opens the session, so H is admitted during the walk and gates
    # on the unreleased F. That edge is recorded after the walk started, so
    # it does not carry F's failure: H runs once F releases.
    def tool(name, reads=(), writes=(), **extra):
        return {
            "schema": {"name": name, "description": "", "parameters": {}},
            "annotation": {"reads": [{"path": p} for p in reads], "writes": [{"path": p} for p in writes], **extra},
            "latency": 1,
            "returns": [{}],
        }

    fail = tool("fail", writes=["/a"])
    fail["error_at"] = {"0": "boom"}
    data = {
        "tools": [fail, tool("cd", reads=["/a"], session_write=True), tool("ls", reads=["$session/cwd"])],
        "script": [
            {"emit": [{"id": i, "name": name, "args": {}} for i, name in [("F", "fail"), ("C", "cd"), ("H", "ls")]]},
            {"when": {"resolved": ["F", "C", "H"]}, "final": "done"},
        ],
        "session_bindings": {"cwd": "/a"},
    }
    trace = run_workload(workload_from_json(data), "async-parallel")
    assert trace.call_status == {"F": "failed", "C": "cancelled", "H": "done"}
    assert ("F", "H", "gate-raw") in trace.edges


def _cancel_probe(script):
    """Tools around /x: reads (latency 10), a failing call F to cancel
    writers through their ``@F.id`` argument, writers of /x and /y, and a
    writer of /x that fails after 5. Turns after the second wait on F."""

    def tool(name, latency, reads=(), writes=(), fails=False):
        return {
            "schema": {"name": name, "description": "", "parameters": {}},
            "annotation": {
                "reads": [{"path": p} for p in reads],
                "writes": [{"path": p} for p in writes],
            },
            "latency": latency,
            "returns": [{"id": 1}],
            **({"error_at": {"0": "boom"}} if fails else {}),
        }

    tools = [
        tool("read", 10, reads=["/x"]),
        tool("fail", 1, writes=["/f"], fails=True),
        tool("write", 1, writes=["/x"]),
        tool("write_xy", 1, writes=["/x", "/y"]),
        tool("write_y", 1, writes=["/y"]),
        tool("bad_write", 5, writes=["/x"], fails=True),
    ]
    turns = [{"emit": [{"id": i, "name": n, "args": a} for i, n, a in emit], "decode_time": 0.1} for emit in script]
    ids = [i for emit in script for i, _, _ in emit]
    for turn in turns[2:]:
        turn["when"] = {"resolved": ["F"]}
    turns.append({"when": {"resolved": ids}, "final": "done"})
    return workload_from_json({"tools": tools, "script": turns})


ON_F = {"source": "@F.id"}


@pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
def test_writer_cancelled_before_dispatch_holds_its_labels_until_its_gates_settle(mode):
    """W1 supersedes R0's read of /x and is cancelled through its argument
    before R0 finishes; W2 waits on W1 alone, yet must not write /x while
    R0 still reads it."""
    spec = _cancel_probe(
        [
            [("R0", "read", {}), ("F", "fail", {})],
            [("W1", "write", ON_F), ("W2", "write", {})],
        ]
    )
    trace = run_workload(spec, mode)
    assert trace.call_status == {"R0": "done", "F": "failed", "W1": "cancelled", "W2": "done"}
    intervals = trace.exec_intervals_by_call()
    assert intervals["R0"][1] == pytest.approx(10.1)
    assert intervals["W2"][0] >= intervals["R0"][1]


@pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
def test_reader_after_a_cancelled_writer_gates_on_the_writer_it_superseded(mode):
    """R2 supersedes R1's write of /x and is cancelled through F; Q, admitted
    after that, reads /x. R2 never wrote, so Q reads what R1 writes, and R1's
    failure cancels Q, as gating on every unreleased label does."""
    spec = _cancel_probe(
        [
            [("R1", "bad_write", {}), ("F", "fail", {})],
            [("R2", "write", ON_F)],
            [("Q", "read", {})],
        ]
    )
    trace = run_workload(spec, mode)
    assert trace.call_status == {"R1": "failed", "F": "failed", "R2": "cancelled", "Q": "cancelled"}
    assert ("R1", "Q", "gate-raw") in trace.edges
    assert not any(e[:2] == ("R2", "Q") for e in trace.edges)


@pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
def test_cancelled_writer_holds_each_label_only_behind_what_it_superseded(mode):
    """W1 writes /x and /y and waits on R0's read of /x; it is cancelled
    through F. Y, a writer of /y gated on W1 alone, runs at once, and
    Q, a reader of /x admitted after the cancellation, neither waits for R0
    nor gates on W1."""
    spec = _cancel_probe(
        [
            [("R0", "read", {}), ("F", "fail", {})],
            [("W1", "write_xy", ON_F), ("Y", "write_y", {})],
            [("Q", "read", {})],
        ]
    )
    trace = run_workload(spec, mode)
    assert trace.call_status == {"R0": "done", "F": "failed", "W1": "cancelled", "Y": "done", "Q": "done"}
    assert ("W1", "Y", "gate-waw") in trace.edges
    intervals = trace.exec_intervals_by_call()
    assert intervals["Y"][0] == pytest.approx(intervals["F"][1])
    assert intervals["Q"][0] < intervals["R0"][1]
    assert not any(e[0] == "W1" and e[1] == "Q" for e in trace.edges)
