"""Workload files: scripted decoder turns plus mock tools with injected latency.

A workload is the simulator's unit of input. The JSON layout, every key
with its default; ``| null`` marks a key where null also means the default:

    {
      "task": "opening user message" | null,       # none
      "tools": [
        {"schema": {"name": "tool",                 # required
                    "description": "",
                    "parameters": {"p": {"type": "string", "description": "",
                                         "required": true}},
                    "outputs": null},               # example result, any JSON
         "annotation": {"reads": [{"path": "/a/{p}", "subtree": false}] | null,
                        "writes": [] | null,
                        "session_read": false, "session_write": false} | null,
                                                    # null: unannotated
         "latency": 0 | [5, 3],                     # per invocation, last repeats
         "returns": [...] | null,                   # per-invocation scripted values
         "error_at": {"0": "boom"} | null,          # invocation index -> failure
         "state": {"reads": [{"path": "/a", "subtree": false}],
                   "writes": [{"path": "/a", "value": ""}]} | null,
         "kind": "function" | "thinking",
         "answers": {"subquery": "delegate answer"} | null}   # thinking tools
      ],
      "script": [
        {"when": {"resolved": ["F1"]} | null,      # wait until these calls'
                                                   # outcomes are in the context
         "emit": [{"id": "F2", "name": "tool", "args": {}}] | null,
         "decode_time": 1.0,
         "tokens": [["text", 0.5], ...] | null},   # emission timeline
        {"final": "answer text" | null, "decode_time": 1.0}
      ],
      "delay_scale": 1.0,
      "context_budget": 64,
      "session_bindings": {"cwd": "/fs/home"}
    }

A tool's ``schema``, its ``name`` and every ``path`` are required, and no
tool may be named ``await_future``, the built-in await. A call without an
``id`` gets ``call<turn>_<index>``. A schema file for
``validate-annotations`` is ``{"tools": [...]}`` of schemas, each with its
``annotation`` key inline. Keys not shown are ignored, among them an
annotation's ``outputs``: a tool's example result is its schema's. A
``path`` is filled, then split at "/": a "/" in a ``{param}`` value
separates segments, and a "." or ".." segment is rejected (or, filled in,
falls back to the whole tree). A workload or schema file, like a live
decoder's reply, may nest objects and arrays at most ``MAX_JSON_DEPTH``
(100) levels deep, counting the document's own object as one.

Argument values of the form ``"@F2"`` or ``"@F2.field"`` name the result
future of an earlier call or one of its field futures. Async modes pass the
future's identifier; sync modes pass its settled outcome, the value or, for
a failed call or a missing field, ``{"error": ...}`` with its ErrorInfo. An
``await_future`` call has no result, so a reference to one is rejected. Script entries are consumed in
order, each waiting for its trigger. A turn that emits several calls decodes
as one turn under a parallel-calling decoder and as one turn per call under a
sequential one.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Container

from .errors import ParseError, ValidationError
from .executor import StateStore, ToolExecutionError
from .futures import looks_like_future_id
from .schema import AWAIT_FUTURE_NAME, DependencyAnnotation, FunctionSchema, copy_json, map_leaves
from .schema import json_fields, load_json, tool_from_json

CALL_REF_RE = re.compile(r"@([A-Za-z_][\w-]*)(\.[^.\s]+(?:\.[^.\s]+)*)?")


def parse_call_ref(value: Any) -> tuple[str, str | None] | None:
    """Return (call id, field path) when value is an ``@Fk[.path]`` reference."""
    if not isinstance(value, str):
        return None
    match = CALL_REF_RE.fullmatch(value)
    if match is None:
        return None
    call_id, fpath = match.group(1), match.group(2)
    return call_id, fpath[1:] if fpath else None


@dataclass(slots=True)
class CallSpec:
    """One emitted call.

    ``refs`` holds the call ids that ``@Fk[.path]`` leaves of ``args`` name,
    in leaf order, or ``None`` until ``check_turn`` fills it: at parse time
    for a scripted call, when its turn is checked for a live one. The same
    walk sets ``literal_futures`` when some other string leaf looks like a
    future id (``fut_3``, ``fut_3.a``). The driver binds references only in
    a call whose ``refs`` is not empty, and has the scheduler search the
    arguments for future ids only in a call with refs or literal futures;
    every other call keeps ``args`` as it is, so ``args`` must not change
    once ``refs`` is filled.
    """

    call_id: str
    name: str
    args: dict = field(default_factory=dict)
    refs: tuple[str, ...] | None = field(default=None, compare=False, repr=False)
    literal_futures: bool = field(default=False, compare=False, repr=False)


@dataclass
class ScriptTurn:
    """One scripted decoder turn: emitted calls or the final answer.

    ``tokens`` is an optional emission timeline of (text, time offset) pairs
    with non-decreasing offsets.
    """

    emit: list[CallSpec] = field(default_factory=list)
    final: str | None = None
    decode_time: float = 1.0
    requires: list[str] = field(default_factory=list)
    tokens: list[tuple[str, float]] | None = None

    @property
    def is_final(self) -> bool:
        return self.final is not None

    @property
    def is_await(self) -> bool:
        return bool(self.emit) and self.emit[0].name == AWAIT_FUTURE_NAME


def check_turn(turn: ScriptTurn, tool_names: Container[str], where: str) -> None:
    """Checks one decoder turn needs on its own, scripted or live.

    A turn is a final answer or emits calls, never both; every call's id
    and name are strings and its arguments an object; every emitted name is
    a known tool, or ``await_future`` alone in its turn with a list of
    future id strings. Fills each call's ``refs`` and ``literal_futures``
    where they are not yet known.
    """
    if turn.decode_time <= 0:
        raise ValidationError(f"{where}: decode_time must be positive")
    if turn.is_final == bool(turn.emit):
        raise ValidationError(f"{where}: exactly one of 'emit' or 'final' is required")
    if turn.tokens is not None:
        offsets = [off for _, off in turn.tokens]
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValidationError(f"{where}: token offsets must not decrease")
    for call in turn.emit:
        if not isinstance(call.call_id, str) or not isinstance(call.name, str):
            raise ValidationError(f"{where}: call id and name must be strings, got {call!r}")
        if not isinstance(call.args, dict):
            raise ValidationError(f"{where}: arguments of {call.name!r} must be a JSON object")
        if call.name == AWAIT_FUTURE_NAME:
            if len(turn.emit) != 1:
                raise ValidationError(f"{where}: {AWAIT_FUTURE_NAME} must be alone in its turn")
            ids = call.args.get("future_ids", [])
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise ValidationError(f"{where}: {AWAIT_FUTURE_NAME} needs a list of id strings")
        elif call.name not in tool_names:
            raise ValidationError(f"{where}: unknown tool {call.name!r}")
        if call.refs is None:
            call.refs, call.literal_futures = _scan_args(call.args)


def _scan_args(args: dict) -> tuple[tuple[str, ...], bool]:
    """The ids named by the ``@Fk[.path]`` leaves of a call's arguments,
    and whether any other string leaf looks like a future id."""
    refs: list[str] = []
    literal = False

    def leaf(node: Any, _path: tuple) -> None:
        nonlocal literal
        ref = parse_call_ref(node)
        if ref is not None:
            refs.append(ref[0])
        elif isinstance(node, str) and looks_like_future_id(node):
            literal = True

    map_leaves(args, leaf)
    return tuple(refs), literal


TOOL_KINDS = ("function", "thinking")

# The longest worst-case schedule a workload may declare, in time units.
# Every time a run stamps then stays below it, where one float ulp is at
# most 2**-33 (about 1.2e-10), so the interval sums of the savings
# decomposition keep the unit latencies and its identity holds within its
# 1e-9 tolerance. Far above it the sums drop whole latencies: at 2**70 the
# identity reads 0.0 != 3.0 + 0.0 on the diamond fixture.
MAX_SCHEDULE = 1e6


@dataclass
class ToolSpec:
    """One mock tool: the parsed entry, and the object a run calls.

    ``behavior(args, invocation, state)`` is deterministic for a given
    argument set and invocation index, which is what makes replays exact.
    A function tool raises at the indices ``error_at`` names, reads and
    writes the mock backend through its state operations at completion
    time (what the scheduling-safety oracle compares across modes), and
    returns ``returns[invocation]``; a thinking tool answers from its
    subquery table, standing in for a delegate decoder. In a ``latency``
    or ``returns`` list the last entry repeats. A run never changes a tool:
    it numbers each tool's invocations itself, so runs may share one
    spec's tools. A test may set ``behavior`` on an instance to inject
    Python code.
    """

    schema: FunctionSchema
    annotation: DependencyAnnotation | None = None
    latency: float | list[float] = 0.0
    returns: list[Any] | None = None
    error_at: dict[int, str] = field(default_factory=dict)
    state_reads: list[tuple[str, bool]] = field(default_factory=list)
    state_writes: list[tuple[str, str]] = field(default_factory=list)
    kind: str = "function"
    answers: dict[str, str] = field(default_factory=dict)

    def latency_for(self, invocation: int) -> float:
        if isinstance(self.latency, list):
            return float(self.latency[min(invocation, len(self.latency) - 1)])
        return float(self.latency)

    def behavior(self, args: dict, invocation: int, state: StateStore) -> Any:
        name = self.schema.name
        if self.kind == "thinking":
            subquery = args.get("subquery", "")
            if subquery in self.answers:
                return {"answer": self.answers[subquery]}
            raise ToolExecutionError(f"{name}: no delegate answer for {subquery!r}")
        if invocation in self.error_at:
            raise ToolExecutionError(self.error_at[invocation])
        observed = {path: state.read(path, subtree=subtree) for path, subtree in self.state_reads}
        call_tag = f"{name}#{invocation}"
        for path, template in self.state_writes:
            state.write(path, _render_write_value(template, call_tag, args, observed))
        if self.returns is not None:
            return copy_json(self.returns[min(invocation, len(self.returns) - 1)])
        result: dict[str, Any] = {"tool": name, "invocation": invocation}
        if observed:
            result["observed"] = observed
        return result


@dataclass
class WorkloadSpec:
    tools: list[ToolSpec]
    script: list[ScriptTurn]
    delay_scale: float = 1.0
    context_budget: int = 64
    session_bindings: dict[str, Any] = field(default_factory=dict)
    task: str | None = None

    def validate(self) -> None:
        names = {t.schema.name for t in self.tools}
        if len(names) != len(self.tools):
            raise ValidationError(f"duplicate tool names in {[t.schema.name for t in self.tools]}")
        if AWAIT_FUTURE_NAME in names:
            raise ValidationError(f"tool name {AWAIT_FUTURE_NAME!r} is reserved for the built-in await")
        emitted: set[str] = set()
        awaits: set[str] = set()
        for turn_no, turn in enumerate(self.script):
            check_turn(turn, names, f"script[{turn_no}]")
            for ref in turn.requires:
                if ref in awaits:
                    raise ValidationError(
                        f"script[{turn_no}]: trigger references await {ref!r}, which never settles"
                    )
                if ref not in emitted:
                    raise ValidationError(
                        f"script[{turn_no}]: trigger references {ref!r} before it is emitted"
                    )
            for call in turn.emit:
                # Same-turn references are impossible: a decoder cannot name a
                # placeholder it has not received yet.
                for ref in call.refs:
                    if ref in awaits:
                        raise ValidationError(
                            f"script[{turn_no}]: {call.call_id} references await {ref!r}, "
                            "which has no result"
                        )
                    if ref not in emitted:
                        raise ValidationError(
                            f"script[{turn_no}]: {call.call_id} references "
                            f"{ref!r} before an earlier turn emitted it"
                        )
            for call in turn.emit:
                if call.call_id in emitted:
                    raise ValidationError(f"duplicate call id {call.call_id!r}")
                emitted.add(call.call_id)
            if turn.is_await:
                awaits.add(turn.emit[0].call_id)
        if not any(turn.is_final for turn in self.script):
            raise ValidationError("script never produces a final answer")
        schedule = worst_case_schedule(self)
        if not schedule <= MAX_SCHEDULE:
            raise ValidationError(
                f"workload: worst-case schedule of {schedule} time units exceeds {MAX_SCHEDULE:g}"
            )


def worst_case_schedule(spec: WorkloadSpec) -> float:
    """An upper bound on a run's length in any mode: every turn decoded
    once per call it emits, as a sequential API splits it, and every call
    run at its tool's largest latency, one after another."""
    slowest = {
        tool.schema.name: max(tool.latency) if isinstance(tool.latency, list) else tool.latency
        for tool in spec.tools
    }
    return sum(
        turn.decode_time * max(1, len(turn.emit)) + sum(slowest.get(call.name, 0) for call in turn.emit)
        for turn in spec.script
    )


def load_workload(path: str) -> WorkloadSpec:
    """Parse and validate a workload file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = load_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read workload {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"workload {path} is not valid JSON: {exc}") from exc
    return workload_from_json(data)


def number(value: Any, what: str, positive: bool = False) -> Any:
    """Return value if it is a finite number, >= 0 (> 0 when positive)."""
    # A bool is an int subclass but no JSON number.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            as_float = float(value)  # a huge JSON integer overflows here
        except OverflowError:
            as_float = math.inf
        if math.isfinite(as_float) and (as_float > 0 if positive else as_float >= 0):
            return value
    raise ValidationError(f"{what} must be a finite number {'>' if positive else '>='} 0, got {value!r}")


# One table per kind of JSON object: the types its keys may hold, checked by
# schema.json_fields. Rules that a type cannot express are named checks below.
NUMBER = (int, float)
ROOT = {"tools": list, "script": list, "delay_scale": NUMBER, "context_budget": int,
        "session_bindings": dict, "task": (str, NoneType)}
TOOL = {"schema": object, "annotation": object, "latency": (*NUMBER, list), "returns": (list, NoneType),
        "error_at": (dict, NoneType), "state": (dict, NoneType), "kind": str, "answers": (dict, NoneType)}
STATE = {"reads": list, "writes": list}
STATE_OP = {"path": str, "subtree": bool, "value": str}
TURN = {"emit": (list, NoneType), "final": (str, NoneType), "decode_time": NUMBER,
        "tokens": (list, NoneType), "when": (dict, NoneType)}
WHEN = {"resolved": list}
# An invocation index, written one way only: "0", "12", never "00" or "+1".
INDEX_RE = re.compile(r"0|[1-9][0-9]*")


def workload_from_json(data: Any) -> WorkloadSpec:
    raw = json_fields(data, ROOT, "workload")
    raw["tools"] = [_tool(entry, f"tools[{i}]") for i, entry in enumerate(raw.get("tools", ()))]
    raw["script"] = [_turn(turn, i) for i, turn in enumerate(raw.get("script", ()))]
    if "delay_scale" in raw:
        raw["delay_scale"] = float(number(raw["delay_scale"], "workload: delay_scale", positive=True))
    budget = raw.get("context_budget")
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ValidationError(f"workload: context_budget must be an integer >= 1, got {budget!r}")
    spec = WorkloadSpec(**raw)
    spec.validate()
    return spec


def _tool(entry: Any, where: str) -> ToolSpec:
    raw = json_fields(entry, TOOL, where)
    raw["schema"], raw["annotation"] = tool_from_json(entry, raw.get("schema"), where)
    where = f"tool {raw['schema'].name!r}"
    latency = raw.get("latency", 0)
    for value in latency if isinstance(latency, list) else [latency]:
        number(value, f"{where}: latency")
    for key in ("latency", "returns"):
        if raw.get(key) == []:
            raise ValidationError(f"{where}: {key} must not be an empty list")
    if "kind" in raw and raw["kind"] not in TOOL_KINDS:
        raise ValidationError(f"{where}: kind must be one of {TOOL_KINDS}, got {raw['kind']!r}")
    error_at = raw.get("error_at", {})
    if not all(INDEX_RE.fullmatch(key) and isinstance(text, str) for key, text in error_at.items()):
        raise ValidationError(f"{where}: error_at must map indices like '0' to strings, got {error_at!r}")
    raw["error_at"] = {int(key): text for key, text in error_at.items()}
    state = json_fields(raw.pop("state", {}), STATE, f"{where}: state")
    ops = {}
    for op in ("reads", "writes"):
        items = enumerate(state.get(op, ()))
        ops[op] = [json_fields(x, STATE_OP, f"{where}: state {op}[{i}]") for i, x in items]
        if not all("path" in item for item in ops[op]):
            raise ValidationError(f"{where}: every state {op} entry needs a path, got {state[op]!r}")
    raw["state_reads"] = [(item["path"], item.get("subtree", False)) for item in ops["reads"]]
    raw["state_writes"] = [(item["path"], item.get("value", "")) for item in ops["writes"]]
    return ToolSpec(**raw)


def _turn(data: Any, turn_no: int) -> ScriptTurn:
    where = f"script[{turn_no}]"
    raw = json_fields(data, TURN, where)
    calls = raw.get("emit", ())
    try:
        raw["emit"] = [
            CallSpec(call.get("id", f"call{turn_no}_{i}"), call.get("name"), call.get("args", {}))
            for i, call in enumerate(calls)
        ]
    except AttributeError:  # a call that is no JSON object
        raise ValidationError(f"{where}: emit must hold call objects, got {calls!r}") from None
    if "decode_time" in raw:
        raw["decode_time"] = float(number(raw["decode_time"], f"{where}: decode_time", positive=True))
    if "tokens" in raw:
        pairs = raw["tokens"]
        if not all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) for p in pairs):
            raise ValidationError(f"{where}: tokens must be [text, offset] pairs, got {pairs!r}")
        raw["tokens"] = [(text, float(number(off, f"{where}: token offset"))) for text, off in pairs]
    if "when" in raw:
        refs = raw["requires"] = json_fields(raw.pop("when"), WHEN, f"{where}: when").get("resolved", [])
        if not all(isinstance(ref, str) for ref in refs):
            raise ValidationError(f"{where}: when.resolved must hold call id strings, got {refs!r}")
    return ScriptTurn(**raw)


def make_latency_sweep(base: WorkloadSpec, delays: list[float]) -> list[WorkloadSpec]:
    """One workload per delay, every tool's latency overridden, all else intact."""
    for delay in delays:
        number(delay, "sweep delay", positive=True)
    out = []
    for delay in delays:
        spec = copy.deepcopy(base)
        for tool in spec.tools:
            tool.latency = delay
        spec.validate()
        out.append(spec)
    return out


# -- tool behavior ---------------------------------------------------------------


def _render_write_value(template: str, call_id: str, args: dict, reads: dict) -> Any:
    rendered = template.replace("{call}", call_id)
    if "{args}" in rendered:
        rendered = rendered.replace("{args}", json.dumps(args, sort_keys=True))
    if "{reads}" in rendered:
        rendered = rendered.replace("{reads}", json.dumps(reads, sort_keys=True))
    return rendered


def build_tool_bindings(spec: WorkloadSpec) -> dict[str, ToolSpec]:
    """A run's tool table: the spec's own tools, each under its name."""
    return {tool.schema.name: tool for tool in spec.tools}
