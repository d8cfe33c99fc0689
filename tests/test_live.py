"""The chat-completions decoder against an in-process HTTP stub (no network)."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from futurecall import MODES, ChatCompletionsDecoder, lint_context, run_workload
from futurecall.errors import ValidationError
from futurecall.workload import workload_from_json


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append(body)
        data = json.dumps({"choices": [{"message": self.server.replies.pop(0)}]}).encode()
        self.send_response(200)
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
    server.requests, server.replies = [], []
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


def run_live(stub, mode, *replies):
    stub.replies.extend(replies)
    spec = workload_from_json(
        {
            "tools": [
                {
                    "schema": {"name": "send", "description": "", "parameters": {}},
                    "annotation": {"reads": [], "writes": [{"path": "/outbox"}]},
                    "latency": 1,
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
