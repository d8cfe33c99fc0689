"""Workload files: scripted decoder turns plus mock tools with injected latency.

A workload is the simulator's unit of input. The JSON layout:

    {
      "task": "optional opening user message",
      "tools": [
        {"schema": {...}, "annotation": {...} | null,
         "latency": 5 | [5, 3],
         "returns": [...],                 # per-invocation scripted values
         "error_at": {"0": "boom"},        # invocation index -> failure message
         "state": {"reads": [...], "writes": [{"path": ..., "value": ...}]},
         "kind": "function" | "thinking",
         "answers": {"subquery": "delegate answer"}}   # thinking tools
      ],
      "script": [
        {"when": {"resolved": ["F1"]},     # wait until these calls' outcomes
                                           # are integrated into the context
         "emit": [{"id": "F2", "name": "tool", "args": {...}}],
         "decode_time": 1,
         "tokens": [["text", 0.5], ...]},  # optional emission timeline
        {"final": "answer text", "decode_time": 1}
      ],
      "delay_scale": 1.0,
      "context_budget": 64,
      "session_bindings": {"cwd": "/fs/home"}
    }

Argument values of the form ``"@F2"`` or ``"@F2.field"`` reference the result
of an earlier call; in async modes they turn into future identifiers, in sync
modes into the concrete resolved value. Script entries are consumed in order,
each waiting for its trigger. A turn that emits several calls decodes as one
turn under a parallel-calling decoder and as one turn per call under a
sequential one.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Container

from .errors import ParseError, ValidationError
from .executor import StateStore, ToolBinding, ToolExecutionError
from .schema import AWAIT_FUTURE_NAME, DependencyAnnotation, FunctionSchema, map_leaves

CALL_REF_RE = re.compile(r"^@([A-Za-z_][\w-]*)(\.[^.\s]+(?:\.[^.\s]+)*)?$")


def parse_call_ref(value: Any) -> tuple[str, str | None] | None:
    """Return (call id, field path) when value is an ``@Fk[.path]`` reference."""
    if not isinstance(value, str):
        return None
    match = CALL_REF_RE.match(value)
    if match is None:
        return None
    call_id, fpath = match.group(1), match.group(2)
    return call_id, fpath[1:] if fpath else None


@dataclass
class CallSpec:
    """One emitted call.

    ``refs`` holds the call ids that ``@Fk[.path]`` leaves of ``args`` name,
    in leaf order, or ``None`` until ``check_turn`` fills it: at parse time
    for a scripted call, when its turn is checked for a live one. The driver
    binds references only in a call whose ``refs`` is not empty, and a
    ref-free call keeps ``args`` as it is, so ``args`` must not change once
    ``refs`` is filled.
    """

    call_id: str
    name: str
    args: dict = field(default_factory=dict)
    refs: tuple[str, ...] | None = field(default=None, compare=False, repr=False)


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

    A turn is a final answer or emits calls, never both; every call's
    arguments are an object; every emitted name is a known tool, or
    ``await_future`` alone in its turn with a list of future id strings.
    Fills each call's ``refs`` where it is not yet known.
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
            call.refs = _call_refs(call.args)


def _call_refs(args: dict) -> tuple[str, ...]:
    """Ids named by the ``@Fk[.path]`` leaves of a call's arguments."""
    refs: list[str] = []

    def leaf(node: Any, _path: tuple) -> None:
        ref = parse_call_ref(node)
        if ref is not None:
            refs.append(ref[0])

    map_leaves(args, leaf)
    return tuple(refs)


@dataclass
class ToolSpec:
    schema: FunctionSchema
    annotation: DependencyAnnotation | None = None
    latency: float | list[float] = 0.0
    returns: list[Any] | None = None
    error_at: dict[int, str] = field(default_factory=dict)
    state_reads: list[tuple[str, bool]] = field(default_factory=list)
    state_writes: list[tuple[str, str]] = field(default_factory=list)
    kind: str = "function"
    answers: dict[str, str] = field(default_factory=dict)


@dataclass
class WorkloadSpec:
    tools: list[ToolSpec]
    script: list[ScriptTurn]
    delay_scale: float = 1.0
    context_budget: int = 64
    session_bindings: dict[str, Any] = field(default_factory=dict)
    task: str | None = None
    strict_cancellation: bool = False

    def tool_names(self) -> list[str]:
        return [t.schema.name for t in self.tools]

    def validate(self) -> None:
        names = set(self.tool_names())
        if len(names) != len(self.tools):
            raise ValidationError("duplicate tool names")
        emitted: set[str] = set()
        for turn_no, turn in enumerate(self.script):
            check_turn(turn, names, f"script[{turn_no}]")
            for ref in turn.requires:
                if ref not in emitted:
                    raise ValidationError(
                        f"script[{turn_no}]: trigger references {ref!r} before it is emitted"
                    )
            for call in turn.emit:
                # Same-turn references are impossible: a decoder cannot name a
                # placeholder it has not received yet.
                for ref in call.refs:
                    if ref not in emitted:
                        raise ValidationError(
                            f"script[{turn_no}]: {call.call_id} references "
                            f"{ref!r} before an earlier turn emitted it"
                        )
            for call in turn.emit:
                if call.call_id in emitted:
                    raise ValidationError(f"duplicate call id {call.call_id!r}")
                emitted.add(call.call_id)
        if not any(turn.is_final for turn in self.script):
            raise ValidationError("script never produces a final answer")


def load_workload(path: str) -> WorkloadSpec:
    """Parse and validate a workload file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read workload {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"workload {path} is not valid JSON: {exc}") from exc
    return workload_from_json(data)


def _number(value: Any, what: str, positive: bool = False) -> Any:
    """Return value if it is a finite number, >= 0 (> 0 when positive)."""
    bound = "> 0" if positive else ">= 0"
    # A bool is an int subclass but no JSON number.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)  # a huge JSON integer overflows here
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (number > 0 if positive else number >= 0):
            return value
    raise ValidationError(f"{what} must be a finite number {bound}, got {value!r}")


def _typed(value: Any, kind: type, what: str) -> Any:
    """Return value if it is an instance of kind."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _latency(value: Any, tool: str) -> float | list[float]:
    what = f"tool {tool!r}: latency"
    if isinstance(value, list):
        for item in value:
            _number(item, what)
        return value
    return _number(value, what)


def _error_at(value: Any, tool: str) -> dict[int, str]:
    what = f"tool {tool!r}: error_at"
    try:
        return {int(k): v for k, v in _typed(value, dict, what).items()}
    except ValueError as exc:
        raise ValidationError(f"{what} keys must be invocation indices: {exc}") from exc


def _tokens(value: Any, where: str) -> list[tuple[str, float]]:
    what = f"{where}: tokens"
    out = []
    for pair in _typed(value, list, what):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise ValidationError(f"{what} must be [text, offset] pairs, got {pair!r}")
        out.append((pair[0], float(_number(pair[1], f"{what} offset"))))
    return out


def workload_from_json(data: dict) -> WorkloadSpec:
    if not isinstance(data, dict):
        raise ValidationError("workload root must be a JSON object")
    tools = []
    for entry in _typed(data.get("tools", []), list, "tools"):
        if not isinstance(entry, dict) or "schema" not in entry:
            raise ValidationError(f"tool entry without schema: {entry!r}")
        schema = FunctionSchema.from_json(entry["schema"])
        annotation = None
        raw_annotation = entry.get("annotation")
        if raw_annotation is not None:
            raw_annotation = _typed(raw_annotation, dict, f"tool {schema.name!r}: annotation")
            try:
                annotation = DependencyAnnotation.from_json(raw_annotation)
            except ValidationError as exc:
                raise ValidationError(f"tool {schema.name!r}: {exc}") from exc
            if annotation.outputs is None and schema.outputs is not None:
                annotation.outputs = schema.outputs
        what = f"tool {schema.name!r}: state"
        state_spec = _typed(entry.get("state") or {}, dict, what)
        state_ops = {}
        for op in ("reads", "writes"):
            state_ops[op] = _typed(state_spec.get(op, []), list, f"{what} {op}")
            for item in state_ops[op]:
                path = _typed(item, dict, f"{what} {op} entry").get("path")
                _typed(path, str, f"{what} {op} path")
        tools.append(
            ToolSpec(
                schema=schema,
                annotation=annotation,
                latency=_latency(entry.get("latency", 0.0), schema.name),
                returns=(
                    None
                    if entry.get("returns") is None
                    else _typed(entry["returns"], list, f"tool {schema.name!r}: returns")
                ),
                error_at=_error_at(entry.get("error_at") or {}, schema.name),
                state_reads=[
                    (r["path"], bool(r.get("subtree", False)))
                    for r in state_ops["reads"]
                ],
                state_writes=[
                    (w["path"], w.get("value", ""))
                    for w in state_ops["writes"]
                ],
                kind=entry.get("kind", "function"),
                answers=_typed(entry.get("answers") or {}, dict, f"tool {schema.name!r}: answers"),
            )
        )
    script = []
    for raw_turn in _typed(data.get("script", []), list, "script"):
        where = f"script[{len(script)}]"
        _typed(raw_turn, dict, where)
        try:
            emit = [
                CallSpec(
                    call_id=c.get("id", f"call{len(script)}_{i}"),
                    name=c["name"],
                    args=c.get("args", {}),
                )
                for i, c in enumerate(_typed(raw_turn.get("emit") or [], list, f"{where}: emit"))
            ]
        except (AttributeError, KeyError) as exc:  # an entry that is no object, or has no name
            raise ValidationError(f"{where}: emitted calls must be objects with a name") from exc
        tokens = None
        if raw_turn.get("tokens") is not None:
            tokens = _tokens(raw_turn["tokens"], where)
        when = _typed(raw_turn.get("when") or {}, dict, f"{where}: when")
        decode_time = _number(raw_turn.get("decode_time", 1.0), f"{where}: decode_time", True)
        script.append(
            ScriptTurn(
                emit=emit,
                final=raw_turn.get("final"),
                decode_time=float(decode_time),
                requires=list(_typed(when.get("resolved", []), list, f"{where}: when.resolved")),
                tokens=tokens,
            )
        )
    context_budget = data.get("context_budget", 64)
    if type(context_budget) is not int or context_budget < 1:
        raise ValidationError(f"context_budget must be an integer >= 1, got {context_budget!r}")
    spec = WorkloadSpec(
        tools=tools,
        script=script,
        delay_scale=float(_number(data.get("delay_scale", 1.0), "delay_scale", positive=True)),
        context_budget=context_budget,
        session_bindings=dict(_typed(data.get("session_bindings", {}), dict, "session_bindings")),
        task=data.get("task"),
        strict_cancellation=bool(data.get("strict_cancellation", False)),
    )
    spec.validate()
    return spec


def make_latency_sweep(base: WorkloadSpec, delays: list[float]) -> list[WorkloadSpec]:
    """One workload per delay, every tool's latency overridden, all else intact."""
    for delay in delays:
        _number(delay, "sweep delay", positive=True)
    out = []
    for delay in delays:
        spec = copy.deepcopy(base)
        for tool in spec.tools:
            tool.latency = delay
        out.append(spec)
    return out


def strip_annotations(base: WorkloadSpec) -> WorkloadSpec:
    """Copy of the workload with every dependency annotation removed."""
    spec = copy.deepcopy(base)
    for tool in spec.tools:
        tool.annotation = None
    return spec


# -- tool binding construction ---------------------------------------------------


def _render_write_value(template: str, call_id: str, args: dict, reads: dict) -> Any:
    rendered = template.replace("{call}", call_id)
    if "{args}" in rendered:
        rendered = rendered.replace("{args}", json.dumps(args, sort_keys=True))
    if "{reads}" in rendered:
        rendered = rendered.replace("{reads}", json.dumps(reads, sort_keys=True))
    return rendered


def build_tool_bindings(spec: WorkloadSpec) -> dict[str, ToolBinding]:
    """Turn tool specs into executable mock bindings.

    Scripted tools return ``returns[invocation]`` (last value repeats) and can
    be set to raise at specific invocations. Declarative state operations read
    and write the shared mock backend atomically at completion time, which is
    what the scheduling-safety oracle compares across modes. Thinking tools
    answer from their subquery table, standing in for a delegate decoder.
    """
    bindings: dict[str, ToolBinding] = {}
    for tool in spec.tools:
        bindings[tool.schema.name] = ToolBinding(
            name=tool.schema.name,
            behavior=_make_behavior(tool),
            latency=tool.latency,
            schema=tool.schema,
            annotation=tool.annotation,
        )
    return bindings


def _make_behavior(tool: ToolSpec):
    name = tool.schema.name

    if tool.kind == "thinking":
        answers = dict(tool.answers)

        def think(args: dict, invocation: int, state: StateStore):
            subquery = args.get("subquery", "")
            if subquery in answers:
                return {"answer": answers[subquery]}
            raise ToolExecutionError(f"{name}: no delegate answer for {subquery!r}")

        return think

    returns = list(tool.returns) if tool.returns is not None else None
    error_at = dict(tool.error_at)
    state_reads = list(tool.state_reads)
    state_writes = list(tool.state_writes)

    def behavior(args: dict, invocation: int, state: StateStore):
        if invocation in error_at:
            raise ToolExecutionError(error_at[invocation])
        observed = {}
        for path, subtree in state_reads:
            observed[path] = state.read(path, subtree=subtree)
        call_tag = f"{name}#{invocation}"
        for path, template in state_writes:
            state.write(path, _render_write_value(template, call_tag, args, observed))
        if returns is not None:
            value = returns[min(invocation, len(returns) - 1)]
            return copy.deepcopy(value)
        result: dict[str, Any] = {"tool": name, "invocation": invocation}
        if observed:
            result["observed"] = observed
        return result

    return behavior
