"""The chat-completions decoder against an in-process HTTP stub (no network)."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from futurecall import (
    MODES,
    ChatCompletionsDecoder,
    TurnDriver,
    WallClock,
    lint_context,
    run_workload,
)
from futurecall.errors import DecoderError, ValidationError
from futurecall.schema import MAX_JSON_DEPTH
from futurecall.workload import workload_from_json


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append(body)
        self.server.auth.append(self.headers.get("Authorization"))
        time.sleep(self.server.delays.get(len(self.server.requests), 0.0))
        reply = self.server.replies.pop(0)
        envelope = reply.pop("envelope") if "envelope" in reply else {"choices": [{"message": reply}]}
        data = json.dumps(envelope).encode()
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests, server.replies, server.auth = [], [], []
    server.status = 200  # of every reply
    server.delays = {}  # request number (from 1) -> seconds to wait before replying
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def calls(*named_args):
    return {
        "content": "",
        "tool_calls": [
            {
                "id": f"c{i}",
                "type": "function",
                "function": {"name": name, "arguments": json.dumps(args)},
            }
            for i, (name, args) in enumerate(named_args)
        ],
    }


def live_setup(stub, *replies, latency=1):
    stub.replies.extend(replies)
    spec = workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "send", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": [{"path": "/outbox"}]},
                    "latency": latency,
                    "returns": [{"sent": True}],
                }
            ],
            "script": [{"final": "unused"}],
            "delay_scale": 0.001,
        }
    )
    decoder = ChatCompletionsDecoder(
        tool_schemas=[], endpoint=f"http://127.0.0.1:{stub.server_port}", model="stub"
    )
    return spec, decoder


def run_live(stub, mode, *replies):
    spec, decoder = live_setup(stub, *replies)
    return run_workload(spec, mode, clock="wall", decoder=decoder)


@pytest.mark.parametrize("mode", MODES)
def test_live_turns_run_end_to_end(stub, mode):
    # "@alice" names no emitted call, so it reaches the tool as literal text.
    trace = run_live(stub, mode, calls(("send", {"to": "@alice"})), {"content": "done"})
    assert trace.final_answer == "done"
    assert trace.call_status == {"c0": "done"}
    assert lint_context(trace.messages) == []
    assert trace.messages[0].tool_calls[0].args == {"to": "@alice"}
    second = stub.requests[1]["messages"]
    assert [m["role"] for m in second] == ["assistant", "tool"]
    assert second[1]["tool_call_id"] == "c0"


def test_unknown_tool_is_rejected(stub):
    with pytest.raises(ValidationError, match="unknown tool 'ghost'"):
        run_live(stub, "async-parallel", calls(("ghost", {})))


@pytest.mark.parametrize("mode", MODES)
def test_await_beside_a_call_is_rejected(stub, mode):
    reply = calls(("send", {}), ("await_future", {"future_ids": ["@c0"]}))
    with pytest.raises(ValidationError, match="alone in its turn"):
        run_live(stub, mode, reply)


def test_await_needs_id_strings(stub):
    with pytest.raises(ValidationError, match="list of id strings"):
        run_live(stub, "async-parallel", calls(("await_future", {"future_ids": "fut_0"})))


@pytest.mark.parametrize("mode", ["sync-sequential", "async-sequential"])
def test_sequential_mode_rejects_a_multi_call_turn(stub, mode):
    with pytest.raises(ValidationError, match="2 calls in one turn"):
        run_live(stub, mode, calls(("send", {}), ("send", {})))


@pytest.mark.parametrize("mode", MODES)
def test_reused_call_id_is_rejected_before_it_runs(stub, mode):
    # Both turns name their call c0; the second must not replace the first.
    spec, decoder = live_setup(stub, calls(("send", {})), calls(("send", {})), {"content": "done"})
    clock = WallClock(delay_scale=spec.delay_scale)
    driver = TurnDriver(spec, mode, clock=clock, decoder=decoder)
    try:
        with pytest.raises(ValidationError, match="duplicate call id 'c0'"):
            driver.run()
    finally:
        clock.shutdown()
    assert list(driver.calls) == ["c0"]
    assert driver.calls["c0"].invocation_index == 0
    # A resolved-futures message may follow in async modes; no second
    # assistant turn may.
    assert [m.role for m in driver.messages if m.role != "user"] == ["assistant", "tool"]


@pytest.mark.parametrize("mode", ["sync-parallel", "async-parallel"])
def test_repeated_call_id_within_a_turn_is_rejected(stub, mode):
    reply = calls(("send", {}), ("send", {}))
    reply["tool_calls"][1]["id"] = "c0"
    with pytest.raises(ValidationError, match="duplicate call id 'c0'"):
        run_live(stub, mode, reply)


@pytest.mark.parametrize("mode", MODES)
def test_await_reusing_a_call_id_is_rejected(stub, mode):
    wait = calls(("await_future", {"future_ids": ["@c0"]}))
    with pytest.raises(ValidationError, match="duplicate call id 'c0'"):
        run_live(stub, mode, calls(("send", {})), wait)


@pytest.mark.parametrize("mode", ["async-sequential", "async-parallel"])
def test_calls_run_while_the_next_turn_decodes(stub, mode):
    # c0 takes about 10 ms; the second reply takes about 50 ms to arrive.
    stub.delays[2] = 0.05
    second = calls(("send", {}))
    second["tool_calls"][0]["id"] = "c1"
    spec, decoder = live_setup(stub, calls(("send", {})), second, {"content": "done"}, latency=10)
    trace = run_workload(spec, mode, clock="wall", decoder=decoder)
    decode_start, decode_end = trace.decode_intervals()[1]
    _, exec_end = trace.exec_intervals_by_call()["c0"]
    assert decode_start < exec_end < decode_end
    placeholder = next(m.content for m in trace.messages if m.call_id == "c0")
    bound = [
        json.loads(m["content"]) for m in stub.requests[2]["messages"] if m["role"] == "user"
    ]
    assert {"resolved_futures": {placeholder: {"sent": True}}} in bound


def nested(depth):
    """A value that nests ``depth`` lists around one number."""
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def tool_call(function):
    return {"content": "", "tool_calls": [{"id": "c0", "type": "function", "function": function}]}


@pytest.mark.parametrize(
    "reply, message",
    [
        (tool_call({"name": "send", "arguments": "{"}), "arguments are not JSON"),
        (tool_call({"arguments": "{}"}), "without function.name"),
        (tool_call({"name": "send", "arguments": "[1, 2]"}), "must be a JSON object"),
        (tool_call({"name": "send", "arguments": '"x"'}), "must be a JSON object"),
        ({"content": "", "tool_calls": [{"id": None, "function": {"name": "send"}}]}, "id must be"),
        ({"envelope": {"choices": []}}, "without choices"),
        ({"content": "", "tool_calls": 5}, "tool_calls must be a list"),
        ({"content": "", "tool_calls": True}, "tool_calls must be a list"),
        ({"content": 5}, "content must be a string or null"),
        ({"content": ["x"]}, "content must be a string or null"),
        # The envelope's own three levels and the message make it one too deep.
        ({"content": nested(MAX_JSON_DEPTH - 3)}, "nests objects and arrays deeper than 100"),
        (tool_call({"name": "send", "arguments": "[" * 100_000 + "]" * 100_000}), "arguments are not JSON"),
    ],
    ids=[
        "unparsable-arguments",
        "no-name",
        "list-arguments",
        "string-arguments",
        "null-id",
        "no-choices",
        "number-tool-calls",
        "true-tool-calls",
        "number-content",
        "list-content",
        "deep-reply",
        "deep-arguments",
    ],
)
def test_malformed_reply_is_a_validation_error(stub, reply, message):
    with pytest.raises(ValidationError, match=message):
        run_live(stub, "async-parallel", reply)


@pytest.mark.parametrize("status, api_key", [(500, ""), (401, "sk-stub-secret-key")])
def test_error_status_is_a_decoder_error_without_the_key(stub, status, api_key):
    stub.status = status
    spec, decoder = live_setup(stub, {"content": "done"})
    decoder.api_key = api_key
    with pytest.raises(DecoderError) as raised:
        run_workload(spec, "async-parallel", clock="wall", decoder=decoder)
    message = str(raised.value)
    assert f"http://127.0.0.1:{stub.server_port}/chat/completions" in message
    assert f"HTTP {status}" in message
    if api_key:
        assert stub.auth == [f"Bearer {api_key}"]
        assert api_key not in message


def test_refused_connection_is_a_decoder_error(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with socket.socket() as sock:  # bound, then closed: nothing listens there
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    spec = workload_from_json({"tools": [], "script": [{"final": "unused"}], "delay_scale": 0.001})
    decoder = ChatCompletionsDecoder(tool_schemas=[], endpoint=f"http://127.0.0.1:{port}", model="stub")
    with pytest.raises(DecoderError, match=f"127.0.0.1:{port}/chat/completions failed: ConnectionError"):
        run_workload(spec, "async-parallel", clock="wall", decoder=decoder)
