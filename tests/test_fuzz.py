"""Mutation fuzz of untrusted input.

Each example replaces one or two values, anywhere in a repo fixture or in a
schema file built from the fixtures' tools, with a small JSON value, or with
lists nested about as deep as ``MAX_JSON_DEPTH`` allows or far deeper. Whatever
the result, ``futurecall`` must answer with an exit code (0, 2 for bad input,
3 for a runtime error) and never raise. A live decoder's reply is mutated the
same way and may only become a checked turn or a ValidationError. The
examples are derandomized, so every run tries the same ones.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from futurecall.cli import main
from futurecall.driver import MODES, ChatCompletionsDecoder
from futurecall.errors import ValidationError
from futurecall.schema import MAX_JSON_DEPTH
from futurecall.workload import check_turn

from conftest import FIXTURE_NAMES, fixture_path

FUZZ = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Text the program gives meaning to, besides arbitrary short strings.
_TEXT = st.sampled_from(["", "x", "false", "fut_0", "fut_1.x", "@F1", "@F1.x", "/a", "$session/cwd", "{k}"])
_KEYS = st.sampled_from(["path", "type", "name", "id", "subtree", "resolved", "reads", "writes", "x"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | _TEXT | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=4,
)


# Stands for that many nested lists, which ``_dumps`` writes out: deeper
# than ``json`` itself can write or read.
DEEP_VALUES = (st.integers(MAX_JSON_DEPTH - 8, MAX_JSON_DEPTH + 2) | st.just(100_000)).map("<deep {}>".format)


def _dumps(document) -> str:
    def nest(match):
        depth = int(match[1])
        return "[" * depth + "1" + "]" * depth

    return re.sub(r'"<deep (\d+)>"', nest, json.dumps(document))


def _slots(node, path=()):
    """The path to every value below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _mutate(document, data):
    document = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        *parents, key = data.draw(st.sampled_from(list(_slots(document))), label="slot")
        node = document
        for parent in parents:
            node = node[parent]
        node[key] = data.draw(JSON_VALUES | DEEP_VALUES, label="value")
    return document


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _load(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _schema_document():
    """Every fixture tool's schema with its annotation inline, once per name."""
    tools = {}
    for name in FIXTURE_NAMES:
        for tool in _load(name)["tools"]:
            entry = dict(tool["schema"])
            if "annotation" in tool:
                entry["annotation"] = tool["annotation"]
            tools.setdefault(entry["name"], entry)
    return {"tools": list(tools.values())}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@FUZZ
@given(data=st.data())
def test_mutated_workload_gets_an_exit_code(tmp_path, name, data):
    path = tmp_path / "workload.json"
    path.write_text(_dumps(_mutate(_load(name), data)))
    mode = data.draw(st.sampled_from(MODES), label="mode")
    assert _exit_code(["run", "--workload", str(path), "--mode", mode]) in (0, 2, 3)


@FUZZ
@given(data=st.data())
def test_mutated_schema_file_gets_an_exit_code(tmp_path, data):
    document = _schema_document()
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(document))
    predicted = tmp_path / "predicted.json"
    predicted.write_text(_dumps(_mutate(document, data)))
    argv = ["validate-annotations", "--predicted", str(predicted), "--truth", str(truth)]
    if data.draw(st.booleans(), label="swap"):
        argv = ["validate-annotations", "--predicted", str(truth), "--truth", str(predicted)]
    assert _exit_code(argv) in (0, 2, 3)


# Reply envelopes as a chat-completions server sends them: one emitting a call
# whose arguments hold a reference and a future id, one giving the answer.
_REPLIES = [
    {
        "choices": [
            {
                "message": {
                    "content": "",
                    "tool_calls": [
                        {
                            "id": "c0",
                            "type": "function",
                            "function": {"name": "send", "arguments": '{"to": "@c0", "ref": "fut_0"}'},
                        }
                    ],
                }
            }
        ]
    },
    {"choices": [{"message": {"content": "done"}}]},
]


# A reply costs no server and no run, so it gets more examples.
@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_mutated_live_reply_is_a_checked_turn_or_a_validation_error(monkeypatch, data):
    envelope = _mutate(data.draw(st.sampled_from(_REPLIES), label="reply"), data)
    response = SimpleNamespace(raise_for_status=lambda: None, content=_dumps(envelope).encode())
    monkeypatch.setattr("requests.post", lambda *args, **kwargs: response)
    decoder = ChatCompletionsDecoder([], endpoint="http://localhost")
    try:
        turn = decoder.next_turn([])
        check_turn(turn, {"send"}, "live turn")
    except ValidationError:
        return
    assert turn.final is None or isinstance(turn.final, str)
