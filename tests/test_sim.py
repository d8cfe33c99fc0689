from __future__ import annotations

import json
import math
import time

import pytest

from futurecall import VirtualClock, WallClock, load_workload, make_latency_sweep, run_workload
from futurecall.cli import main
from futurecall.errors import DeadlockError, EmptyQueueError, ParseError, ValidationError
from futurecall.driver import MODES
from futurecall.workload import (
    MAX_SCHEDULE,
    parse_call_ref,
    workload_from_json,
    worst_case_schedule,
)

from conftest import AWAIT_REF_WORKLOAD, AWAIT_TRIGGER_WORKLOAD, fixture_path, strip_annotations


class TestVirtualClock:
    def test_zero_delay_fires_before_later_events(self):
        clock = VirtualClock()
        order = []
        clock.schedule(1, lambda: order.append("later"))
        clock.schedule(0, lambda: order.append("now"))
        clock.run_until(lambda: not clock.pending())
        assert order == ["now", "later"]

    def test_events_fire_in_time_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(5, lambda: order.append(5))
        clock.schedule(3, lambda: order.append(3))
        clock.run_until(lambda: not clock.pending())
        assert order == [3, 5]
        assert clock.now() == 5.0

    def test_ties_fire_in_insertion_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(5, lambda: order.append("first"))
        clock.schedule(5, lambda: order.append("second"))
        clock.run_until(lambda: not clock.pending())
        assert order == ["first", "second"]

    def test_advance_on_empty_queue_raises(self):
        with pytest.raises(EmptyQueueError):
            VirtualClock().advance()

    def test_advance_returns_fired_event(self):
        clock = VirtualClock()
        clock.schedule(2, lambda: None)
        event = clock.advance()
        assert event.fire_time == 2.0
        assert clock.now() == 2.0

    def test_run_until_time_fires_due_events_then_sets_now(self):
        clock = VirtualClock()
        seen = []
        clock.schedule(1, lambda: seen.append(1))
        clock.schedule(4, lambda: seen.append(4))
        clock.run_until_time(2.5)
        assert seen == [1]
        assert clock.now() == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().schedule(-1, lambda: None)

    def test_time_never_decreases(self):
        clock = VirtualClock()
        clock.run_until_time(3.0)
        with pytest.raises(ValueError):
            clock.run_until_time(1.0)

    @pytest.mark.parametrize("scale", [0, -1, math.nan, math.inf])
    def test_wall_clock_needs_a_finite_positive_scale(self, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            WallClock(delay_scale=scale)


@pytest.fixture(params=["virtual", "wall"])
def clock(request):
    return VirtualClock() if request.param == "virtual" else WallClock(delay_scale=0.001)


class TestClockContract:
    def test_events_fire_in_time_then_insertion_order(self, clock):
        order = []
        clock.schedule(2, lambda: order.append("late"))
        clock.schedule(1, lambda: order.append("first"))
        clock.schedule(1, lambda: order.append("second"))
        clock.run_until(lambda: len(order) == 3)
        assert order == ["first", "second", "late"]
        assert clock.now() >= 2.0

    def test_handler_error_reaches_the_caller(self, clock):
        def handler():
            raise RuntimeError("handler failed")

        clock.schedule(1, handler)
        with pytest.raises(RuntimeError, match="handler failed"):
            clock.run_until(lambda: False)

    def test_unsatisfiable_wait_on_an_empty_queue_fails_at_once(self, clock):
        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            clock.run_until(lambda: False)
        assert time.monotonic() - t0 < 1.0


class TestWorkloadLoading:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(
            '{"tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],'
            ' "script": [{"emit": [{"id": "A", "name": "t"}], "decode_time": 1},'
            ' {"final": "x", "decode_time": 1}]}'
        )
        spec = load_workload(str(path))
        assert len(spec.tools) == 1

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_workload("/nonexistent/workload.json")

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_workload(str(path))

    def test_dangling_reference_rejected(self):
        with pytest.raises(ValidationError):
            workload_from_json(
                {
                    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                    "script": [
                        {"emit": [{"id": "A", "name": "t", "args": {"x": "@GHOST"}}]},
                        {"final": "x"},
                    ],
                }
            )

    @pytest.mark.parametrize("text", ["@C1\n", "@C1.id\n", " @C1", "@C1 "])
    def test_reference_with_surrounding_whitespace_is_literal_text(self, text):
        assert parse_call_ref("@C1.id") == ("C1", "id")
        assert parse_call_ref(text) is None
        spec = workload_from_json(
            {
                "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                "script": [
                    {"emit": [{"id": "C1", "name": "t"}]},
                    {"emit": [{"id": "C2", "name": "t", "args": {"x": text}}]},
                    {"final": "x"},
                ],
            }
        )
        assert spec.script[1].emit[0].refs == ()

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValidationError):
            workload_from_json(
                {
                    "tools": [],
                    "script": [{"emit": [{"id": "A", "name": "ghost"}]}, {"final": "x"}],
                }
            )

    def test_nonpositive_decode_time_rejected(self):
        with pytest.raises(ValidationError):
            workload_from_json(
                {"tools": [], "script": [{"final": "x", "decode_time": 0}]}
            )

    def test_trigger_must_reference_earlier_call(self):
        with pytest.raises(ValidationError):
            workload_from_json(
                {
                    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                    "script": [
                        {"when": {"resolved": ["B"]}, "emit": [{"id": "A", "name": "t"}]},
                        {"final": "x"},
                    ],
                }
            )

    def test_trigger_on_an_await_rejected(self):
        # An await id names no call, so a trigger on it would never hold.
        with pytest.raises(ValidationError, match="trigger references await 'A1'"):
            workload_from_json(AWAIT_TRIGGER_WORKLOAD)

    def test_argument_reference_to_an_await_rejected(self):
        # Left in place, "@A1" would reach the tool as literal text.
        with pytest.raises(ValidationError, match="C2 references await 'A1'"):
            workload_from_json(AWAIT_REF_WORKLOAD)

    @pytest.mark.parametrize("order", [("A", "AW"), ("AW", "A")])
    def test_await_beside_a_tool_call_rejected(self, order):
        calls = {
            "A": {"id": "A", "name": "t"},
            "AW": {"id": "AW", "name": "await_future", "args": {"future_ids": []}},
        }
        with pytest.raises(ValidationError, match="alone in its turn"):
            workload_from_json(
                {
                    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                    "script": [{"emit": [calls[k] for k in order]}, {"final": "x"}],
                }
            )

    @pytest.mark.parametrize("args", [[1, 2], "x"], ids=["list", "string"])
    def test_non_object_arguments_rejected(self, args):
        with pytest.raises(ValidationError, match="must be a JSON object"):
            workload_from_json(
                {
                    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                    "script": [{"emit": [{"id": "A", "name": "t", "args": args}]}, {"final": "x"}],
                }
            )

    @pytest.mark.parametrize("turns", [[["A", "A"]], [["A"], ["A"]]], ids=["same-turn", "later-turn"])
    def test_reused_call_id_rejected(self, turns):
        with pytest.raises(ValidationError, match="duplicate call id 'A'"):
            workload_from_json(
                {
                    "tools": [{"schema": {"name": "t", "description": "", "parameters": {}}}],
                    "script": [{"emit": [{"id": i, "name": "t"} for i in ids]} for ids in turns]
                    + [{"final": "x"}],
                }
            )

    @pytest.mark.parametrize(
        "path", ["files/x", "$session/", "$session//x", "/files/{name", "/a/{x}{y", "/a/{x/y}", "/a/./{x}"]
    )
    def test_malformed_annotation_template_rejected(self, path):
        with pytest.raises(ValidationError, match="tool 't'"):
            workload_from_json(
                {
                    "tools": [
                        {
                            "schema": {"name": "t", "description": "", "parameters": {}},
                            "annotation": {"reads": [], "writes": [{"path": path}]},
                        }
                    ],
                    "script": [{"final": "x"}],
                }
            )

    @pytest.mark.parametrize(
        "where,key,value",
        [
            ("tool", "latency", "x"),
            ("tool", "latency", -1),
            ("tool", "latency", float("nan")),
            ("tool", "latency", float("inf")),
            ("tool", "latency", [1, "x"]),
            ("tool", "latency", [1, -2]),
            ("tool", "latency", 10**400),
            ("turn", "decode_time", 10**400),
            ("root", "delay_scale", 10**400),
            ("turn", "tokens", [["a", 10**400]]),
            ("turn", "decode_time", "x"),
            ("turn", "decode_time", float("nan")),
            ("root", "delay_scale", float("nan")),
            ("root", "delay_scale", "x"),
            ("root", "context_budget", "x"),
            ("root", "context_budget", 0),
            ("root", "context_budget", 1.5),
            ("turn", "tokens", "x"),
            ("turn", "tokens", [["a"]]),
            ("turn", "tokens", [["a", "x"]]),
            ("tool", "error_at", ["boom"]),
            ("tool", "error_at", {"first": "boom"}),
            ("turn", "emit", "x"),
            ("turn", "emit", ["t"]),
            ("annotation", "writes", [{"path": 3}]),
            ("tool", "state", {"writes": [{"path": 3, "value": "v"}]}),
            ("root", "session_bindings", ["cwd"]),
            ("root", "tools", {"schema": {}}),
            ("root", "tools", ["schema"]),
            ("root", "script", {"final": "x"}),
            ("root", "script", ["x"]),
            ("turn", "when", "A"),
            ("turn", "when", {"resolved": [["A"]]}),
            ("annotation", "writes", [{"path": "/a", "subtree": "false"}]),
            ("annotation", "session_read", "yes"),
            ("annotation", "session_write", None),
            ("tool", "state", {"reads": [{"path": "/a", "subtree": "false"}]}),
            ("tool", "schema", {"name": "t", "parameters": {"p": {"type": "string", "required": "no"}}}),
            ("tool", "schema", {"name": "t", "parameters": {"p": {"type": []}}}),
            ("tool", "annotation", "x"),
            ("tool", "returns", 5),
            ("tool", "answers", ["x"]),
            ("tool", "kind", "thinkng"),
            ("tool", "latency", []),
            ("tool", "returns", []),
            ("tool", "state", {"writes": [{"path": "/a", "value": 5}]}),
            ("tool", "error_at", {"0": 5}),
            ("tool", "error_at", {"-1": "boom"}),
            ("tool", "error_at", {" 0": "boom"}),
            ("tool", "error_at", {"+0": "boom"}),
            ("tool", "error_at", {"0_0": "boom"}),
            ("tool", "schema", {"name": "t", "description": 5}),
            ("tool", "schema", {"name": "t", "parameters": {"p": {"type": "string", "description": 5}}}),
            ("final", "final", 5),
            ("root", "task", 5),
            # Worst-case schedules past MAX_SCHEDULE, where float sums lose
            # unit latencies.
            ("turn", "decode_time", 2**70),
            ("final", "decode_time", 2e6),
            ("tool", "latency", 2e6),
            ("tool", "latency", [1, 2e6]),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v)[:40],
    )
    def test_malformed_value_rejected_at_parse_time(self, tmp_path, where, key, value):
        data = {
            "tools": [
                {
                    "schema": {"name": "t", "description": "", "parameters": {}},
                    "annotation": {"writes": [{"path": "/a"}]},
                    "latency": 1,
                }
            ],
            "script": [{"emit": [{"id": "A", "name": "t"}]}, {"final": "x"}],
        }
        owner = {
            "root": data,
            "tool": data["tools"][0],
            "annotation": data["tools"][0]["annotation"],
            "turn": data["script"][0],
            "final": data["script"][1],
        }[where]
        owner[key] = value
        with pytest.raises(ValidationError):
            workload_from_json(data)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--workload", str(path), "--mode", "sync-sequential"]) == 2

    @pytest.mark.parametrize("value", ["no", 1, True], ids=repr)
    def test_retired_strict_cancellation_key_is_ignored(self, value):
        # Workloads written for the removed strict_cancellation option still
        # load, and the key changes nothing, as with any unlisted key.
        with open(fixture_path("templated")) as f:
            data = json.load(f)
        plain = run_workload(workload_from_json(data), "async-parallel")
        keyed = run_workload(workload_from_json({**data, "strict_cancellation": value}), "async-parallel")
        assert keyed.to_jsonl() == plain.to_jsonl()
        assert keyed.call_status == plain.call_status
        assert keyed.edges == plain.edges

    @pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
    def test_placeholder_follows_the_schema_outputs_not_the_annotation(self, mode):
        # A tool's example output is its schema's; an annotation's
        # ``outputs`` key is ignored, as with any unlisted key.
        def workload(annotation):
            schema = {"name": "t", "description": "", "parameters": {}, "outputs": {"id": ""}}
            tool = {"schema": schema, "annotation": annotation, "returns": [{"id": "x"}]}
            script = [{"emit": [{"id": "C1", "name": "t"}]}, {"when": {"resolved": ["C1"]}, "final": "x"}]
            return workload_from_json({"tools": [tool], "script": script})

        plain = run_workload(workload({"writes": [{"path": "/a"}]}), mode)
        keyed = run_workload(workload({"writes": [{"path": "/a"}], "outputs": {"other": 0}}), mode)
        placeholder = keyed.messages[1]
        assert (placeholder.role, placeholder.call_id) == ("tool", "C1")
        assert list(placeholder.content) == ["id"]
        assert keyed.context_json() == plain.context_json()
        assert keyed.to_jsonl() == plain.to_jsonl()

    @staticmethod
    def scaled(data: dict, factor: float) -> dict:
        """The workload with every time multiplied and kept to two decimals."""

        def times(value):
            return [times(v) for v in value] if isinstance(value, list) else round(value * factor, 2)

        return {
            **data,
            "tools": [{**tool, "latency": times(tool.get("latency", 0))} for tool in data["tools"]],
            "script": [
                {
                    **turn,
                    "decode_time": times(turn.get("decode_time", 1.0)),
                    **({"tokens": [[t, times(o)] for t, o in turn["tokens"]]} if turn.get("tokens") else {}),
                }
                for turn in data["script"]
            ],
        }

    @pytest.mark.parametrize("name", ["diamond", "fig1", "fail-chain"])
    def test_schedule_just_under_the_bound_runs_in_every_mode(self, tmp_path, name):
        with open(fixture_path(name), encoding="utf-8") as fh:
            data = json.load(fh)
        factor = MAX_SCHEDULE / worst_case_schedule(workload_from_json(data))
        under = self.scaled(data, 0.999 * factor)
        assert 0.99 * MAX_SCHEDULE < worst_case_schedule(workload_from_json(under)) <= MAX_SCHEDULE
        path = tmp_path / "w.json"
        path.write_text(json.dumps(under))
        for mode in MODES:
            assert main(["run", "--workload", str(path), "--mode", mode]) == 0, mode
        path.write_text(json.dumps(self.scaled(data, 1.01 * factor)))
        assert main(["run", "--workload", str(path), "--mode", "async-parallel"]) == 2

    def test_fig1_fixture_shape(self):
        spec = load_workload(fixture_path("fig1"))
        calls = [c for turn in spec.script for c in turn.emit]
        assert [c.call_id for c in calls] == ["F1", "F2", "F3"]
        assert calls[2].args == {"payload": "@F2"}


class TestLatencySweep:
    def test_sweep_produces_one_spec_per_delay(self):
        base = load_workload(fixture_path("pairs"))
        specs = make_latency_sweep(base, [1, 5, 10])
        assert len(specs) == 3
        assert all(t.latency == 5 for t in specs[1].tools)

    def test_sweep_preserves_annotations_bit_exactly(self):
        base = load_workload(fixture_path("pairs"))
        (spec,) = make_latency_sweep(base, [7])
        for before, after in zip(base.tools, spec.tools):
            assert before.annotation == after.annotation
            assert before.schema == after.schema

    def test_nonpositive_delay_rejected(self):
        base = load_workload(fixture_path("pairs"))
        with pytest.raises(ValidationError):
            make_latency_sweep(base, [0])

    def test_delay_past_the_schedule_bound_rejected(self):
        base = load_workload(fixture_path("pairs"))
        with pytest.raises(ValidationError, match="worst-case schedule"):
            make_latency_sweep(base, [MAX_SCHEDULE])

    @pytest.mark.parametrize("delay", [float("nan"), True, "5"], ids=repr)
    def test_non_numeric_delay_rejected(self, delay):
        base = load_workload(fixture_path("pairs"))
        with pytest.raises(ValidationError):
            make_latency_sweep(base, [delay])

    def test_numeric_subclass_delay_accepted(self):
        class Delay(float):
            pass

        (spec,) = make_latency_sweep(load_workload(fixture_path("pairs")), [Delay(2.5)])
        assert all(t.latency == 2.5 for t in spec.tools)


class TestReplayDeterminism:
    def test_same_workload_same_trace_and_state(self):
        first = run_workload(load_workload(fixture_path("vehicle")), "async-parallel")
        second = run_workload(load_workload(fixture_path("vehicle")), "async-parallel")
        assert first.to_jsonl() == second.to_jsonl()
        assert first.final_state == second.final_state

    def test_strip_annotations_removes_all(self):
        spec = strip_annotations(load_workload(fixture_path("fig1")))
        assert all(t.annotation is None for t in spec.tools)
