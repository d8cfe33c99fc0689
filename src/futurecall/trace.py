"""Run traces: timestamped decode/execution intervals plus the event log.

Every run produces one RunTrace holding the decode intervals (model side),
execution intervals (tool side), await suspensions and integration points,
along with the dependency edges observed by the scheduler and the final mock
backend state. The JSONL rendering emits one event per line and a trailing
summary record; serialization is canonical (sorted keys, fixed separators) so
that identical runs produce byte-identical files.

Event lines share one layout, so a fixed formatter writes them: keys in
sorted order, strings escaped by ``json.encoder.encode_basestring_ascii`` and
numbers by ``int.__repr__`` / ``float.__repr__``, the functions
``json.dumps`` itself uses for these types. A value outside them (a
non-finite float, a bool, a subclass) sends its line to ``json.dumps``, so
every line stays canonical. The summary line always goes through
``json.dumps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any

DECODE = "decode"
EXEC = "exec"
AWAIT = "await"
INTEGRATE = "integrate"


@dataclass(slots=True)
class TraceEvent:
    t0: float
    t1: float
    kind: str
    id: str
    turn: int

    def to_json(self) -> dict:
        return {"t0": self.t0, "t1": self.t1, "kind": self.kind, "id": self.id, "turn": self.turn}


_PLAIN_NUMBERS = (int, float)


def _event_line(event: TraceEvent) -> str:
    """The canonical JSON line of one event (see the module docstring)."""
    t0, t1, turn, event_id, kind = event.t0, event.t1, event.turn, event.id, event.kind
    if (
        type(t0) in _PLAIN_NUMBERS
        and type(t1) in _PLAIN_NUMBERS
        and t0 - t0 == 0  # false for nan and inf, which json writes as NaN and Infinity
        and t1 - t1 == 0
        and type(turn) is int
        and type(event_id) is str
        and type(kind) is str
    ):
        return (
            f'{{"id":{encode_basestring_ascii(event_id)},'
            f'"kind":{encode_basestring_ascii(kind)},'
            f'"t0":{t0!r},"t1":{t1!r},"turn":{turn!r}}}'
        )
    return json.dumps(event.to_json(), sort_keys=True, separators=(",", ":"))


@dataclass
class RunTrace:
    mode: str
    events: list[TraceEvent] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    call_status: dict[str, str] = field(default_factory=dict)
    final_state: dict[str, Any] = field(default_factory=dict)
    final_answer: str | None = None
    messages: list[Any] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def end_to_end(self) -> float:
        return self.finished - self.started

    def record(self, t0: float, t1: float, kind: str, event_id: str, turn: int) -> None:
        self.events.append(TraceEvent(t0, t1, kind, event_id, turn))

    def decode_intervals(self) -> list[tuple[float, float]]:
        return [(e.t0, e.t1) for e in self.events if e.kind == DECODE]

    def exec_intervals(self) -> list[tuple[float, float]]:
        return [(e.t0, e.t1) for e in self.events if e.kind == EXEC]

    def exec_intervals_by_call(self) -> dict[str, tuple[float, float]]:
        return {e.id: (e.t0, e.t1) for e in self.events if e.kind == EXEC}

    def summary(self) -> dict:
        decode = self.decode_intervals()
        execs = self.exec_intervals()
        return {
            "kind": "summary",
            "mode": self.mode,
            "end_to_end": self.end_to_end,
            "t_llm": sum(t1 - t0 for t0, t1 in decode),
            "t_tool": sum(t1 - t0 for t0, t1 in execs),
            "decode_turns": len(decode),
            "calls": len(self.call_status),
            "call_status": dict(sorted(self.call_status.items())),
            "final_answer": self.final_answer,
            "final_state": self.final_state,
        }

    def to_jsonl(self) -> str:
        lines = [_event_line(e) for e in self.events]
        lines.append(json.dumps(self.summary(), sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def context_json(self) -> list[dict]:
        return [m.to_json() for m in self.messages]
