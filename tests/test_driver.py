from __future__ import annotations

import gc
import json
import threading
import time

import pytest

from futurecall import MODES, TurnDriver, VirtualClock, WallClock, lint_context, run_workload
from futurecall.driver import Message, ScriptedDecoder, ToolCall, await_detection_offset
from futurecall.errors import (
    ContextOverflowError,
    ScriptExhaustedError,
    ValidationError,
)
from futurecall.workload import CallSpec, ScriptTurn, load_workload, workload_from_json

from conftest import FIXTURE_NAMES, fixture_path, no_cyclic_garbage, run_fixture


class TestFig1Schedules:
    def test_sync_sequential_end_to_end(self):
        trace = run_fixture("fig1", "sync-sequential")
        assert trace.end_to_end == 19.0

    def test_async_sequential_end_to_end(self):
        trace = run_fixture("fig1", "async-sequential")
        assert trace.end_to_end == 13.0
        assert trace.exec_intervals_by_call()["F3"] == (7.0, 12.0)

    def test_sync_parallel_end_to_end(self):
        trace = run_fixture("fig1", "sync-parallel")
        assert trace.end_to_end == 13.0

    def test_zero_call_workload_is_single_decode(self):
        spec = workload_from_json(
            {"tools": [], "script": [{"final": "hi", "decode_time": 2}]}
        )
        trace = run_workload(spec, "async-sequential")
        assert trace.decode_intervals() == [(0.0, 2.0)]
        assert trace.end_to_end == 2.0
        assert trace.final_answer == "hi"


def binding_messages(trace):
    """The messages that bind resolved futures into the context."""
    return [m for m in trace.messages if isinstance(m.content, dict) and "resolved_futures" in m.content]


class TestIntegration:
    def test_binding_message_after_resolution(self):
        trace = run_fixture("fig1", "async-sequential")
        bindings = binding_messages(trace)
        assert bindings, "expected at least one binding user message"
        assert all(m.role == "user" for m in bindings)
        bound = {}
        for m in bindings:
            bound.update(m.content["resolved_futures"])
        values = list(bound.values())
        assert {"status": "staged", "item": "alpha"} in values

    def test_field_futures_bound_alongside_base(self):
        trace = run_fixture("vehicle", "async-sequential")
        bound = {}
        for m in binding_messages(trace):
            bound.update(m.content["resolved_futures"])
        field_ids = [fid for fid in bound if fid.endswith(".engineState")]
        assert field_ids and bound[field_ids[0]] == "running"

    def test_no_binding_messages_in_sync_modes(self):
        trace = run_fixture("fig1", "sync-sequential")
        assert not binding_messages(trace)

    def test_placeholder_tool_messages_in_async(self):
        trace = run_fixture("vehicle", "async-sequential")
        tool_msgs = [m for m in trace.messages if m.role == "tool"]
        assert any(
            isinstance(m.content, dict)
            and isinstance(m.content.get("engineState"), str)
            and m.content["engineState"].startswith("fut_")
            for m in tool_msgs
        )


class TestFailureInjection:
    def test_failure_message_distinguishes_kinds(self):
        trace = run_fixture("fail-chain", "async-sequential")
        failure_msgs = [
            m
            for m in trace.messages
            if m.role == "user" and isinstance(m.content, dict) and "failed_calls" in m.content
        ]
        assert len(failure_msgs) == 1
        by_call = {f["call"]: f for f in failure_msgs[0].content["failed_calls"]}
        assert by_call["F2"]["kind"] == "execution-error"
        assert by_call["F3"]["kind"] == "cancelled-dependency"
        assert by_call["F3"]["origin_call"] == "F2"
        assert by_call["F4"]["kind"] == "cancelled-dependency"
        assert by_call["F4"]["origin_call"] == "F2"

    def test_no_failures_no_message(self):
        trace = run_fixture("fig1", "async-sequential")
        assert not any(
            isinstance(m.content, dict) and "failed_calls" in m.content
            for m in trace.messages
        )

    def test_late_failure_triggers_recovery_turn(self):
        data = {
            "tools": [
                {
                    "schema": {"name": "fast", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 1,
                    "returns": [{"ok": True}],
                },
                {
                    "schema": {"name": "doomed", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 9,
                    "error_at": {"0": "late boom"},
                },
            ],
            "script": [
                {"emit": [{"id": "A", "name": "fast", "args": {}}], "decode_time": 1},
                {"emit": [{"id": "B", "name": "doomed", "args": {}}], "decode_time": 1},
                {"when": {"resolved": ["A"]}, "final": "early answer", "decode_time": 1},
                {"when": {"resolved": ["B"]}, "final": "recovered", "decode_time": 1},
            ],
        }
        trace = run_workload(workload_from_json(data), "async-sequential")
        # First final decodes at [3, 4]; B fails at 11, injected, then the
        # recovery turn runs and answers again.
        assert trace.final_answer == "recovered"
        decode = trace.decode_intervals()
        assert decode[-1] == (11.0, 12.0)
        assert trace.end_to_end == 12.0

    @pytest.mark.parametrize(
        "mode,fails_at", [("async-sequential", 9.0), ("async-parallel", 7.0)]
    )
    def test_trigger_on_a_failing_call_decodes_when_it_fails(self, mode, fails_at):
        # A and B succeed, at different instants, after the last call is
        # emitted and before F fails; the answer waits on F alone. The decode
        # starts at F's failure, after one boundary that binds A and B in one
        # message and then reports F.
        data = {
            "tools": [
                {
                    "schema": {"name": "fast", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": [3, 4],
                    "returns": [{"ok": 1}, {"ok": 2}],
                },
                {
                    "schema": {"name": "doomed", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 6,
                    "error_at": {"0": "boom"},
                },
            ],
            "script": [
                {
                    "emit": [
                        {"id": "A", "name": "fast", "args": {}},
                        {"id": "B", "name": "fast", "args": {}},
                        {"id": "F", "name": "doomed", "args": {}},
                    ],
                    "decode_time": 1,
                },
                {"when": {"resolved": ["F"]}, "final": "done", "decode_time": 1},
            ],
        }
        trace = run_workload(workload_from_json(data), mode)
        assert trace.decode_intervals()[-1] == (fails_at, fails_at + 1)
        integrations = [(e.t0, e.t1) for e in trace.events if e.kind == "integrate"]
        assert integrations == [(fails_at, fails_at)] * 2
        bound, failed, answer = trace.messages[-3:]
        placeholders = {m.call_id: m.content for m in trace.messages if m.role == "tool"}
        assert bound.content == {
            "resolved_futures": {placeholders["A"]: {"ok": 1}, placeholders["B"]: {"ok": 2}}
        }
        assert [f["call"] for f in failed.content["failed_calls"]] == ["F"]
        assert answer.content == "done"

    def test_missing_recovery_turn_is_script_exhaustion(self):
        data = {
            "tools": [
                {
                    "schema": {"name": "doomed", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 9,
                    "error_at": {"0": "late boom"},
                }
            ],
            "script": [
                {"emit": [{"id": "B", "name": "doomed", "args": {}}], "decode_time": 1},
                {"final": "early answer", "decode_time": 1},
            ],
        }
        with pytest.raises(ScriptExhaustedError):
            run_workload(workload_from_json(data), "async-sequential")


def ref_workload(error_at=None):
    """F1 returns an id; F2 writes a path templated on ``@F1.id``."""
    return workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "mint", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 2,
                    "returns": [{"id": "a.txt"}],
                    "error_at": error_at or {},
                },
                {
                    "schema": {"name": "save", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": [{"path": "/files/{name}"}]},
                    "latency": 1,
                    "returns": [{"saved": True}],
                },
            ],
            "script": [
                {"emit": [{"id": "F1", "name": "mint", "args": {}}], "decode_time": 1},
                {
                    "when": {"resolved": ["F1"]},
                    "emit": [{"id": "F2", "name": "save", "args": {"name": "@F1.id"}}],
                    "decode_time": 1,
                },
                {"when": {"resolved": ["F2"]}, "final": "x", "decode_time": 1},
            ],
        }
    )


def emitted_args(trace, call_id):
    for message in trace.messages:
        for tool_call in message.tool_calls or []:
            if tool_call.call_id == call_id:
                return tool_call.args
    raise AssertionError(f"{call_id} never emitted")


class TestSyncBatch:
    @pytest.mark.parametrize("mode", ["sync-sequential", "sync-parallel"])
    def test_context_shows_concrete_arguments(self, mode):
        trace = run_workload(ref_workload(), mode)
        assert emitted_args(trace, "F2") == {"name": "a.txt"}

    @pytest.mark.parametrize("mode", ["sync-sequential", "sync-parallel"])
    def test_template_fed_by_failed_call_still_runs(self, mode):
        # The path template is never resolved in sync modes: F2 receives
        # F1's error as its argument and runs.
        trace = run_workload(ref_workload(error_at={"0": "boom"}), mode)
        assert trace.call_status == {"F1": "failed", "F2": "done"}
        assert emitted_args(trace, "F2")["name"]["error"]["origin_call"] == "F1"

    @pytest.mark.parametrize("mode", MODES)
    def test_tool_crash_is_recorded_as_failed_call(self, mode):
        driver = TurnDriver(ref_workload(), mode)

        def crash(args, invocation, state):
            raise KeyError("missing")

        driver.tools["save"].behavior = crash
        trace = driver.run()
        assert trace.call_status == {"F1": "done", "F2": "failed"}
        error = driver.store.state_of(driver.calls["F2"].result.fid).error
        assert error.message == "KeyError: 'missing'"


def unfillable_template_workload(case):
    """F2 saves under a path template it cannot fill; F3 then lists what
    was saved. F2 is emitted before F1 resolves, so in async modes its
    template waits on F1 first."""
    name_arg = {"missing-argument": {}, "non-scalar": {"name": "@F1"}, "bad-binding": {"name": "x"}}
    template = "$session/out/{name}" if case == "bad-binding" else "/files/{name}"
    return workload_from_json(
        {
            "session_bindings": {"out": "files"},
            "tools": [
                {
                    "schema": {"name": "lookup", "description": "", "parameters": {}},
                    "annotation": {"reads": [{"path": "/index", "subtree": True}], "writes": []},
                    "latency": 3,
                    "returns": [{"id": "report.txt"}],
                },
                {
                    "schema": {"name": "save", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": [{"path": template}]},
                    "latency": 2,
                    "state": {"writes": [{"path": "/files", "value": "{call} {args}"}]},
                },
                {
                    "schema": {"name": "list", "description": "", "parameters": {}},
                    "annotation": {"reads": [{"path": "/files", "subtree": True}], "writes": []},
                    "latency": 1,
                    "state": {
                        "reads": [{"path": "/files"}],
                        "writes": [{"path": "/log", "value": "{reads}"}],
                    },
                },
            ],
            "script": [
                {"emit": [{"id": "F1", "name": "lookup", "args": {}}], "decode_time": 1},
                {
                    "emit": [
                        {"id": "F2", "name": "save", "args": name_arg[case]},
                        {"id": "F3", "name": "list", "args": {}},
                    ],
                    "decode_time": 1,
                },
                {"when": {"resolved": ["F1", "F2", "F3"]}, "final": "x", "decode_time": 1},
            ],
        }
    )


@pytest.mark.parametrize("case", ["missing-argument", "non-scalar", "bad-binding"])
@pytest.mark.parametrize("mode", MODES)
def test_unfillable_template_runs_under_the_fallback(mode, case):
    # A template the call's arguments or the session cannot fill gives the
    # call the footprint of an unannotated tool, so it runs and F3 still
    # sees its write, as in the sync modes that never fill templates.
    trace = run_workload(unfillable_template_workload(case), mode)
    assert trace.call_status == {"F1": "done", "F2": "done", "F3": "done"}
    serial = run_workload(unfillable_template_workload(case), "sync-sequential")
    assert trace.final_state == serial.final_state
    assert "save#0" in trace.final_state["/log"]


def mutable_args_workload():
    """F1's arguments hold no reference, F2's hold one to F1's result."""
    return workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "grow", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 1,
                    "returns": [{"xs": [7]}],
                }
            ],
            "script": [
                {"emit": [{"id": "F1", "name": "grow", "args": {"xs": [1, 2]}}]},
                {
                    "when": {"resolved": ["F1"]},
                    "emit": [{"id": "F2", "name": "grow", "args": {"xs": [3], "prev": "@F1"}}],
                },
                {"when": {"resolved": ["F2"]}, "final": "x"},
            ],
        }
    )


def rewriting_run(spec, mode):
    """Run with a behavior that rewrites its arguments in place and records
    what it was given in the backend state."""
    driver = TurnDriver(spec, mode)
    grow = driver.tools["grow"].behavior

    def rewrite(args, invocation, state):
        state.write(f"/seen/{invocation}", json.dumps(args, sort_keys=True))
        args["xs"].append(99)
        args["extra"] = 1
        if isinstance(args.get("prev"), dict):
            args["prev"]["xs"].append(99)
        return grow(args, invocation, state)

    driver.tools["grow"].behavior = rewrite
    return driver.run()


@pytest.mark.parametrize("mode", MODES)
def test_tool_behavior_cannot_rewrite_the_emitted_call(mode):
    spec = mutable_args_workload()
    first = rewriting_run(spec, mode)
    assert emitted_args(first, "F1") == {"xs": [1, 2]}
    bound = {"xs": [7]} if mode.startswith("sync") else "fut_0"
    assert emitted_args(first, "F2") == {"xs": [3], "prev": bound}
    assert [call.args for turn in spec.script for call in turn.emit] == [
        {"xs": [1, 2]},
        {"xs": [3], "prev": "@F1"},
    ]
    assert first.final_state["/seen/1"] == json.dumps({"prev": {"xs": [7]}, "xs": [3]})
    assert rewriting_run(spec, mode).to_jsonl() == first.to_jsonl()


def late_literal_workload():
    """F2 passes the literal text "fut_2" and waits behind F1 on /x until
    long after F3, emitted a turn later, has taken the id fut_2."""
    return workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "slow", "description": "", "parameters": {}},
                    "annotation": {"writes": [{"path": "/x"}]},
                    "latency": 10,
                    "state": {"writes": [{"path": "/x", "value": "slow"}]},
                },
                {
                    "schema": {"name": "use", "description": "", "parameters": {}},
                    "annotation": {"writes": [{"path": "/x"}]},
                    "latency": 1,
                    "state": {"writes": [{"path": "/x", "value": "{args}"}]},
                },
                {
                    "schema": {"name": "quick", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 1,
                    "returns": [{"out": "quick"}],
                },
            ],
            "script": [
                {
                    "emit": [
                        {"id": "F1", "name": "slow", "args": {}},
                        {"id": "F2", "name": "use", "args": {"v": "fut_2"}},
                    ]
                },
                {"emit": [{"id": "F3", "name": "quick", "args": {}}]},
                {"when": {"resolved": ["F1", "F2", "F3"]}, "final": "done"},
            ],
        }
    )


@pytest.mark.parametrize("mode", MODES)
def test_literal_id_named_only_after_submission_stays_text(mode):
    # Only the future ids known when a call is submitted are its arguments;
    # one created later is text, as in every sync run.
    driver = TurnDriver(late_literal_workload(), mode)
    trace = driver.run()
    assert driver.calls["F3"].result.fid == "fut_2"
    if mode.startswith("async"):
        # F2 runs once F3's result is there to be taken.
        assert driver.calls["F2"].exec_start > driver.calls["F3"].exec_end
    assert set(trace.call_status.values()) == {"done"}
    assert trace.final_state["/x"] == json.dumps({"v": "fut_2"})
    assert ("F3", "F2", "arg") not in trace.edges


def await_workload(tokens=None):
    return workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "slow", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 8,
                    "returns": [{"x": 1}],
                }
            ],
            "script": [
                {"emit": [{"id": "S", "name": "slow", "args": {}}], "decode_time": 1},
                {
                    "emit": [
                        {
                            "id": "AW",
                            "name": "await_future",
                            "args": {"future_ids": ["@S"]},
                        }
                    ],
                    "decode_time": 1,
                    **({"tokens": tokens} if tokens else {}),
                },
                {"when": {"resolved": ["S"]}, "final": "value received", "decode_time": 1},
            ],
        }
    )


AWAIT_TOKENS = [
    ["I should wait: ", 0.2],
    ["await_future", 0.4],
    ["([\"", 0.5],
    ["fut_0", 0.55],
    ["\"])", 0.6],
    [" and then some trailing tokens", 1.0],
]


class TestAwait:
    def test_detection_offset_requires_complete_argument_array(self):
        tokens = [(t, o) for t, o in AWAIT_TOKENS]
        assert await_detection_offset(tokens, 1.0) == 0.6
        assert await_detection_offset(None, 1.0) == 1.0
        assert await_detection_offset([("await_future([", 0.3)], 1.0) == 1.0

    def test_early_termination_truncates_decode(self):
        trace = run_workload(await_workload(AWAIT_TOKENS), "async-sequential")
        decode = trace.decode_intervals()
        assert decode[1] == (1.0, 1.6)  # truncated at detection point
        await_events = [e for e in trace.events if e.kind == "await"]
        assert len(await_events) == 1
        assert (await_events[0].t0, await_events[0].t1) == (1.6, 9.0)
        assert trace.end_to_end == 10.0

    def test_full_decode_without_token_timeline(self):
        trace = run_workload(await_workload(), "async-sequential")
        assert trace.decode_intervals()[1] == (1.0, 2.0)
        assert trace.end_to_end == 10.0

    @pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
    def test_await_on_a_field_of_a_cancelled_call_names_the_failed_call(self, mode):
        workload = ref_workload(error_at={"0": "boom"})
        workload.script[2:2] = [
            ScriptTurn(emit=[CallSpec("AW", "await_future", {"future_ids": ["@F2.saved"]})])
        ]
        trace = run_workload(workload, mode)
        assert trace.call_status == {"F1": "failed", "F2": "cancelled"}
        (values,) = [m.content for m in trace.messages if m.role == "tool" and m.call_id == "AW"]
        assert values == {
            "fut_1.saved": {
                "error": {
                    "kind": "cancelled-dependency",
                    "message": "cancelled because F1 failed",
                    "origin_call": "F1",
                }
            }
        }

    def test_await_tool_message_carries_values(self):
        trace = run_workload(await_workload(), "async-sequential")
        await_msgs = [m for m in trace.messages if m.role == "tool" and m.call_id == "AW"]
        assert len(await_msgs) == 1
        assert list(await_msgs[0].content.values()) == [{"x": 1}]

    def test_empty_await_returns_immediately(self):
        data = await_workload()
        data.script[1].emit[0].args = {"future_ids": []}
        trace = run_workload(data, "async-sequential")
        await_events = [e for e in trace.events if e.kind == "await"]
        assert await_events[0].t0 == await_events[0].t1

    def test_unknown_future_in_await_yields_error_tool_message(self):
        data = await_workload()
        data.script[1].emit[0].args = {"future_ids": ["fut_77"]}
        trace = run_workload(data, "async-sequential")
        await_msgs = [m for m in trace.messages if m.role == "tool" and m.call_id == "AW"]
        assert "error" in await_msgs[0].content


class TestThinking:
    def test_two_subqueries_overlap(self):
        sync = run_fixture("thinking", "sync-sequential")
        async_trace = run_fixture("thinking", "async-sequential")
        assert sync.end_to_end == 15.0
        assert async_trace.end_to_end == 9.0
        assert sync.final_answer == async_trace.final_answer

    def test_single_subquery_matches_plain_tool_shape(self):
        data = {
            "tools": [
                {
                    "schema": {"name": "think", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "kind": "thinking",
                    "latency": 6,
                    "answers": {"q": "a"},
                }
            ],
            "script": [
                {"emit": [{"id": "T", "name": "think", "args": {"subquery": "q"}}], "decode_time": 1},
                {"when": {"resolved": ["T"]}, "final": "a", "decode_time": 1},
            ],
        }
        trace = run_workload(workload_from_json(data), "async-sequential")
        assert trace.exec_intervals_by_call()["T"] == (1.0, 7.0)

    def test_chained_thinking_gated_on_first_answer(self):
        data = {
            "tools": [
                {
                    "schema": {"name": "think", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "kind": "thinking",
                    "latency": 6,
                    "answers": {"q1": "first answer"},
                }
            ],
            "script": [
                {"emit": [{"id": "T1", "name": "think", "args": {"subquery": "q1"}}], "decode_time": 1},
                {
                    "emit": [
                        {"id": "T2", "name": "think", "args": {"subquery": "@T1.answer"}}
                    ],
                    "decode_time": 1,
                },
                {"when": {"resolved": ["T1", "T2"]}, "final": "done", "decode_time": 1},
            ],
        }
        spec = workload_from_json(data)
        spec.tools[0].answers["first answer"] = "second answer"
        trace = run_workload(spec, "async-sequential")
        assert trace.exec_intervals_by_call()["T2"] == (7.0, 13.0)


class TestProtocolAndDeterminism:
    def test_every_fixture_mode_pair_lints_clean(self):
        for name in ("fig1", "vehicle", "diamond", "fail-chain", "thinking", "pairs"):
            for mode in ("sync-sequential", "sync-parallel", "async-sequential", "async-parallel"):
                run_fixture(name, mode)  # run_fixture lints internally

    def test_lint_catches_out_of_order_tool_message(self):
        messages = [
            Message(role="assistant", content="", tool_calls=[ToolCall("C1", "t", {})]),
            Message(role="user", content="interloper"),
            Message(role="tool", content={}, call_id="C1"),
        ]
        assert lint_context(messages)

    def test_virtual_replay_is_byte_identical(self):
        a = run_fixture("diamond", "async-parallel").to_jsonl()
        b = run_fixture("diamond", "async-parallel").to_jsonl()
        assert a == b

    def test_context_dump_round_trips_as_json(self):
        trace = run_fixture("fig1", "async-sequential")
        dumped = json.dumps(trace.context_json())
        assert json.loads(dumped)[0]["role"] == "user"


class TestGuards:
    def test_context_budget_overflow(self):
        data = {
            "tools": [
                {
                    "schema": {"name": "t", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 1,
                    "returns": [{}],
                }
            ],
            "script": [
                {"emit": [{"id": f"C{i}", "name": "t", "args": {}}], "decode_time": 1}
                for i in range(6)
            ]
            + [{"final": "x", "decode_time": 1}],
            "context_budget": 5,
        }
        with pytest.raises(ContextOverflowError):
            run_workload(workload_from_json(data), "async-sequential")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run_fixture("fig1", "warp-speed")

    def test_decoder_splits_multi_call_entries_for_sequential_api(self):
        spec = workload_from_json(
            {
                "tools": [
                    {
                        "schema": {"name": "t", "description": "", "parameters": {}},
                        "annotation": {"reads": [], "writes": []},
                        "returns": [{}],
                    }
                ],
                "script": [
                    {
                        "emit": [
                            {"id": "A", "name": "t", "args": {}},
                            {"id": "B", "name": "t", "args": {}},
                        ],
                        "decode_time": 1,
                    },
                    {"final": "x", "decode_time": 1},
                ],
            }
        )
        sequential = ScriptedDecoder(spec.script, parallel_api=False)
        parallel = ScriptedDecoder(spec.script, parallel_api=True)
        seq_turns = []
        while not sequential.exhausted():
            seq_turns.append(sequential.next_turn([]))
        par_turns = []
        while not parallel.exhausted():
            par_turns.append(parallel.next_turn([]))
        assert [len(t.emit) for t in seq_turns] == [1, 1, 0]
        assert [len(t.emit) for t in par_turns] == [2, 0]


class TestWallClock:
    def test_wall_ordering_matches_virtual(self):
        virtual = run_fixture("fig1", "async-sequential")
        wall = run_fixture("fig1", "async-sequential", clock=WallClock(delay_scale=0.02))
        # The trace log appends events in firing order in both modes; only
        # timestamps carry measurement noise.
        v_order = [(e.kind, e.id) for e in virtual.events]
        w_order = [(e.kind, e.id) for e in wall.events]
        assert v_order == w_order
        assert abs(wall.end_to_end - virtual.end_to_end) < 2.0  # noise in units

    def test_wall_run_starts_no_thread(self, monkeypatch):
        # Event handlers run on the driver's thread; a scripted wall run starts
        # no thread, also when it raises with calls still in flight.
        started = []
        original_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        run_fixture("fig1", "async-parallel", clock=WallClock(delay_scale=0.002))
        data = {
            "tools": [
                {
                    "schema": {"name": "t", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": []},
                    "latency": 10000,
                    "returns": [{}],
                }
            ],
            "script": [
                {"emit": [{"id": f"C{i}", "name": "t"}], "decode_time": 0.1} for i in range(6)
            ]
            + [{"final": "x", "decode_time": 0.1}],
            "context_budget": 5,
            "delay_scale": 0.01,
        }
        with pytest.raises(ContextOverflowError):
            run_workload(workload_from_json(data), "async-sequential", clock="wall")
        assert started == []

    def test_run_alongside_fires_due_events_and_reraises(self):
        clock = WallClock(delay_scale=0.001)
        fired = []
        clock.schedule(5, lambda: fired.append(threading.get_ident()))
        assert clock.run_alongside(lambda: time.sleep(0.05) or "reply") == "reply"
        assert fired == [threading.get_ident()]

        def fail():
            raise KeyError("lost")

        with pytest.raises(KeyError, match="lost"):
            clock.run_alongside(fail)

    def test_live_decoder_requires_wall_clock(self):
        from futurecall import ChatCompletionsDecoder

        decoder = ChatCompletionsDecoder(tool_schemas=[], endpoint="http://example.invalid")
        with pytest.raises(ValidationError):
            run_fixture("fig1", "async-sequential", decoder=decoder)


def test_placeholder_ids_are_dense():
    # Gates are scheduler latches, not futures, so placeholder ids number
    # the model's futures alone, without gaps; the trace does not name them.
    trace = run_fixture("diamond", "async-parallel")
    assert [m.content for m in trace.messages if m.role == "tool"] == [
        "fut_0",
        "fut_1",
        "fut_2",
        "fut_3",
    ]
    bound = [m.content["resolved_futures"] for m in binding_messages(trace)]
    assert sorted(fid for b in bound for fid in b) == ["fut_0", "fut_1", "fut_2", "fut_3"]


class StatusSamplingClock(VirtualClock):
    """A virtual clock that reads every emitted call's status after each
    event it fires."""

    def __init__(self):
        super().__init__()
        self.calls: dict = {}
        self.samples: dict[str, list[str]] = {}

    def advance(self):
        event = super().advance()
        self.sample()
        return event

    def sample(self) -> None:
        for call_id, call in self.calls.items():
            self.samples.setdefault(call_id, []).append(call.status)


# Rank of each status before a call settles; every terminal status ranks 4.
LIFECYCLE = {"queued": 0, "admitted": 1, "dispatched": 2, "running": 3}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_call_status_never_goes_back(name, mode):
    # queued < admitted < dispatched < running < terminal, and a terminal
    # status never changes; the last one read is the trace's.
    clock = StatusSamplingClock()
    driver = TurnDriver(load_workload(fixture_path(name)), mode, clock=clock)
    clock.calls = driver.calls
    trace = driver.run()
    clock.sample()
    assert set(clock.samples) == set(trace.call_status)
    for call_id, statuses in clock.samples.items():
        ranks = [LIFECYCLE.get(status, 4) for status in statuses]
        assert ranks == sorted(ranks), (call_id, statuses)
        assert len({status for status in statuses if status not in LIFECYCLE}) == 1, (call_id, statuses)
        assert statuses[-1] == trace.call_status[call_id]
    if name == "fail-chain" and mode.startswith("async"):
        assert clock.samples["F3"][-1] == clock.samples["F4"][-1] == "cancelled"


class TestRunTeardown:
    """A finished run holds no reference cycle, so reference counting frees
    it, and the driver still holds the run's state for inspection."""

    @pytest.mark.parametrize("failing", [False, True], ids=["default", "failing"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_finished_run_leaves_no_cyclic_garbage(self, name, mode, failing):
        # "failing" fails every tool's first invocation, so each fixture that
        # calls a tool stores tool errors and walks its failure edges.
        def run():
            workload = load_workload(fixture_path(name))
            for tool in workload.tools if failing else ():
                tool.error_at = {0: "injected"}
            trace = run_workload(workload, mode)
            assert lint_context(trace.messages) == []

        run()  # warm-up: first-use caches are not garbage
        with no_cyclic_garbage():
            run()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["fig1", "templated"])
    def test_finished_wall_clock_run_leaves_no_cyclic_garbage(self, name, mode):
        run_fixture(name, mode, clock=WallClock(delay_scale=1e-4))
        with no_cyclic_garbage():
            run_fixture(name, mode, clock=WallClock(delay_scale=1e-4))

    @pytest.mark.parametrize("budget", [3, 5])
    @pytest.mark.parametrize("mode", MODES)
    def test_raised_run_leaves_no_cyclic_garbage(self, mode, budget):
        # The run raises with events queued and waiters on unsettled futures
        # and shut gates; run() drops them on the way out.
        def overflow():
            spec = load_workload(fixture_path("fig1"))
            spec.context_budget = budget
            with pytest.raises(ContextOverflowError):
                run_workload(spec, mode)

        overflow()
        with no_cyclic_garbage():
            overflow()

    def test_no_cyclic_garbage_reports_a_cycle_and_restores_the_collector(self):
        assert gc.isenabled()
        with pytest.raises(AssertionError, match="reference cycles"):
            with no_cyclic_garbage():
                cycle: list = []
                cycle.append(cycle)
                del cycle
        assert gc.isenabled()

    @pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
    def test_finished_driver_keeps_the_run_state(self, mode):
        # The benchmark's tracer reads these after run() returns.
        driver = TurnDriver(load_workload(fixture_path("fail-chain")), mode)
        trace = driver.run()
        statuses = {"F1": "done", "F2": "failed", "F3": "cancelled", "F4": "cancelled"}
        assert {cid: call.status for cid, call in driver.calls.items()} == statuses
        assert trace.call_status == statuses
        assert driver.store.ids() == ["fut_0", "fut_1", "fut_2", "fut_3"]
        assert driver.store.terminal_count == 4
        edges = [("F2", "F3", "arg"), ("F3", "F4", "arg")]
        assert [tuple(edge) for edge in driver.scheduler.edges] == edges == trace.edges
        assert [edge.kind for edge in driver.scheduler.edges] == ["arg", "arg"]
        assert driver.calls["F1"].exec_start is not None
        assert driver.calls["F2"].dispatched_at is not None
