"""The conversation loop: decode turns, dispatch calls, integrate results.

The four modes are two switches. Sequential calling splits a multi-call turn
into one-call turns (the scripted decoder splits script entries; a live turn
with several calls is rejected). Sync calling answers each call with its
outcome before the next decode. Async calling answers at once with a future
placeholder (or a futurized output structure) and binds resolved values into
the context through user messages at turn boundaries; failure reports arrive
the same way and reopen the conversation if they land after the final answer.
While the decoder waits on a trigger, outcomes accumulate and one boundary
binds all of them before the next decode. After a final answer each outcome
is integrated as it settles, so a late failure reopens the conversation at
once.

That leaves two execution models. Sync modes run each turn as one batch:
same-turn calls overlap in time, and their effects and results apply in
emitted order. Async modes submit each turn's calls to the dependency-aware
scheduler as one unit. Either way the driver alone checks that a call id is
new and creates the call's result future, and it writes each call once into
the scheduler's registry, the run's only one; the trace keeps the run's own
message and edge lists. An ``@Fk[.path]`` reference names the record of the
call's result or of one of its fields, taken from the call and never looked
up by id; only ids the decoder writes, as in an await, go through
``FutureStore.find``. Async modes pass the record's id, and sync modes,
where it has settled, its outcome as ``reported`` renders it. The executor's
``settle`` ends each call that ran, and every assistant tool call is
immediately followed by a tool message for its call id.

Decoding is strictly sequential. Scripted decoders pick their next turn by
the integration state of required call outcomes, so sync and async runs share
one script; a chat-completions client can stand in for the scripted decoder
in wall-clock mode.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

from .clock import VirtualClock, WallClock
from .errors import (
    ContextOverflowError,
    DeadlockError,
    DecoderError,
    LeakedFutureError,
    ProtocolViolationError,
    ScriptExhaustedError,
    ValidationError,
)
from .executor import Executor, StateStore
from .futures import RESOLVED, FutureRecord, FutureStore
from .scheduler import CallRecord, Scheduler, SessionState
from .schema import AWAIT_FUTURE_NAME, copy_json, futurize_output_template, load_json, map_leaves
from .trace import AWAIT, DECODE, INTEGRATE, RunTrace
from .workload import (
    CallSpec,
    ScriptTurn,
    WorkloadSpec,
    build_tool_bindings,
    check_turn,
    parse_call_ref,
)

SYNC_SEQUENTIAL = "sync-sequential"
SYNC_PARALLEL = "sync-parallel"
ASYNC_SEQUENTIAL = "async-sequential"
ASYNC_PARALLEL = "async-parallel"
MODES = (SYNC_SEQUENTIAL, SYNC_PARALLEL, ASYNC_SEQUENTIAL, ASYNC_PARALLEL)

ENDPOINT_ENV = "FUTURECALL_ENDPOINT"
API_KEY_ENV = "FUTURECALL_API_KEY"
MODEL_ENV = "FUTURECALL_MODEL"
# A live decoder that has not answered after this many turns is exhausted.
LIVE_MAX_TURNS = 32


def is_async(mode: str) -> bool:
    return mode in (ASYNC_SEQUENTIAL, ASYNC_PARALLEL)


def is_parallel(mode: str) -> bool:
    return mode in (SYNC_PARALLEL, ASYNC_PARALLEL)


@dataclass(slots=True)
class Message:
    role: str  # system | user | assistant | tool
    content: Any = None
    tool_calls: list[CallSpec] | None = None
    call_id: str | None = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {"role": self.role, "content": self.content}
        if self.tool_calls is not None:
            calls = self.tool_calls
            out["tool_calls"] = [{"call_id": c.call_id, "name": c.name, "args": c.args} for c in calls]
        if self.call_id is not None:
            out["call_id"] = self.call_id
        return out


def lint_context(messages: list[Message]) -> list[str]:
    """Check the call/return protocol over a full context.

    Returns one description per violation: an assistant tool call must be
    immediately followed by tool messages for exactly its call ids, in order.
    """
    violations: list[str] = []
    for i, msg in enumerate(messages):
        if msg.role != "assistant" or not msg.tool_calls:
            continue
        for j, tool_call in enumerate(msg.tool_calls):
            pos = i + 1 + j
            follow = messages[pos] if pos < len(messages) else None
            if follow is None or follow.role != "tool" or follow.call_id != tool_call.call_id:
                got = f"{follow.role}/{follow.call_id}" if follow else "end of context"
                violations.append(
                    f"message {i}: tool call {tool_call.call_id} not followed by "
                    f"its tool message (got {got})"
                )
    return violations


class ScriptedDecoder:
    """Replays a workload script, one turn per call on sequential APIs.

    A script entry emitting several calls decodes as a single turn under a
    parallel-calling API and as consecutive one-call turns (each of the
    entry's decode time) under a sequential API. Entry triggers gate the
    first resulting turn.
    """

    realtime = False

    def __init__(self, script: list[ScriptTurn], parallel_api: bool):
        self._turns: list[ScriptTurn] = []
        for entry in script:
            if entry.is_final or parallel_api or len(entry.emit) <= 1:
                self._turns.append(entry)
                continue
            for i, call in enumerate(entry.emit):
                self._turns.append(
                    ScriptTurn(
                        emit=[call],
                        decode_time=entry.decode_time,
                        requires=list(entry.requires) if i == 0 else [],
                    )
                )
        self._cursor = 0

    def exhausted(self) -> bool:
        return self._cursor >= len(self._turns)

    def requires(self) -> list[str]:
        return self._turns[self._cursor].requires

    def next_turn(self, context: list[Message]) -> ScriptTurn:
        turn = self._turns[self._cursor]
        self._cursor += 1
        return turn


class ChatCompletionsDecoder:
    """Live decoder speaking the chat-completions wire format.

    Endpoint, credentials and model come from the environment
    (FUTURECALL_ENDPOINT, FUTURECALL_API_KEY, FUTURECALL_MODEL); the key is
    sent as a bearer token and never logged. A request that fails or gets
    an HTTP error status raises ``DecoderError``, which names the endpoint
    and the status. Only usable with a wall clock.
    """

    realtime = True

    def __init__(
        self,
        tool_schemas: list[dict],
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        self.model = model or os.environ.get(MODEL_ENV, "")
        if not self.endpoint:
            raise ValidationError(f"live decoder needs {ENDPOINT_ENV}")
        self.tool_schemas = tool_schemas
        self._turns_used = 0

    def exhausted(self) -> bool:
        return self._turns_used >= LIVE_MAX_TURNS

    def requires(self) -> list[str]:
        return []

    def next_turn(self, context: list[Message]) -> ScriptTurn:
        import requests

        self._turns_used += 1
        payload = {
            "model": self.model,
            "messages": [_to_chat_message(m) for m in context],
            "tools": [{"type": "function", "function": s} for s in self.tool_schemas],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = self.endpoint.rstrip("/") + "/chat/completions"
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=120)
            response.raise_for_status()
        except requests.RequestException as exc:
            # Built from the URL and the status alone: the key stays out.
            got = type(exc).__name__ if exc.response is None else f"HTTP {exc.response.status_code}"
            raise DecoderError(f"live decoder endpoint {url} failed: {got}") from exc
        try:
            reply = load_json(response.content)
        except ValueError as exc:
            raise ValidationError(f"live reply is not valid JSON: {exc}") from exc
        try:
            message = reply["choices"][0]["message"]
            tool_calls = message.get("tool_calls")
        except (LookupError, TypeError, AttributeError) as exc:
            raise ValidationError(f"live reply without choices[0].message: {exc!r}") from exc
        if tool_calls:
            if not isinstance(tool_calls, list):
                raise ValidationError(f"live reply tool_calls must be a list, got {tool_calls!r}")
            emit = [
                self._call_from_reply(tc, f"live{self._turns_used}_{i}")
                for i, tc in enumerate(tool_calls)
            ]
            return ScriptTurn(emit=emit)
        content = message.get("content")
        if not isinstance(content, (str, type(None))):
            raise ValidationError(f"live reply content must be a string or null, got {content!r}")
        return ScriptTurn(final=content or "")

    @staticmethod
    def _call_from_reply(tool_call: Any, default_id: str) -> CallSpec:
        """One reply tool call; ``check_turn`` then checks its name and arguments."""
        function = tool_call.get("function") if isinstance(tool_call, dict) else None
        name = function.get("name") if isinstance(function, dict) else None
        if not isinstance(name, str):
            raise ValidationError(f"live tool call without function.name: {tool_call!r}")
        try:
            args = load_json(function.get("arguments") or "{}")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"live tool call {name!r}: arguments are not JSON text: {exc}") from exc
        call_id = tool_call.get("id", default_id)
        if not isinstance(call_id, str):
            raise ValidationError(f"live tool call {name!r}: id must be a string")
        return CallSpec(call_id=call_id, name=name, args=args)


def _to_chat_message(msg: Message) -> dict:
    content = msg.content
    if not isinstance(content, (str, type(None))):
        content = json.dumps(content, sort_keys=True)
    out: dict[str, Any] = {"role": msg.role, "content": content or ""}
    if msg.tool_calls:
        out["tool_calls"] = [
            {
                "id": tc.call_id,
                "type": "function",
                "function": {"name": tc.name, "arguments": json.dumps(tc.args)},
            }
            for tc in msg.tool_calls
        ]
    if msg.role == "tool" and msg.call_id is not None:
        out["tool_call_id"] = msg.call_id
    return out


def reported(record: FutureRecord) -> Any:
    """A settled future's outcome as a reader receives it: its value, or
    its ``ErrorInfo`` under "error"."""
    return record.value if record.status == RESOLVED else {"error": record.error.to_json()}


def await_detection_offset(tokens: list[tuple[str, float]] | None, decode_time: float) -> float:
    """Time offset at which an await call's argument array is fully parseable.

    Decoding may be truncated there: the name alone starts polling, but values
    cannot be returned before the id list is syntactically complete. Without a
    token timeline the whole turn must decode.
    """
    if not tokens:
        return decode_time
    text = "".join(token for token, _ in tokens)
    name_at = text.find(AWAIT_FUTURE_NAME)
    open_at = text.find("[", name_at) if name_at >= 0 else -1
    close_at = text.find("]", open_at) if open_at >= 0 else -1
    if close_at < 0:
        return decode_time
    end = 0
    for token, offset in tokens:
        end += len(token)
        if end > close_at:
            break
    return min(offset, decode_time)


class TurnDriver:
    """Runs one conversation over a workload in a given mode."""

    def __init__(self, workload: WorkloadSpec, mode: str, clock=None, decoder=None):
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
        self.workload = workload
        self.mode = mode
        self.clock = clock if clock is not None else VirtualClock()
        if decoder is not None and decoder.realtime and self.clock.is_virtual:
            raise ValidationError("a live decoder requires the wall clock")
        self.store = FutureStore(self.clock)
        self.state = StateStore()
        self.session = SessionState(bindings=dict(workload.session_bindings))
        self.scheduler = Scheduler(self.store, self.session, self.clock)
        self.tools = build_tool_bindings(workload)
        self._invocations = {name: itertools.count() for name in self.tools}  # the run's, per tool
        self.trace = RunTrace(mode=mode)
        self.executor = Executor(self.store, self.scheduler, self.clock, self.tools, self.state, self.trace)
        self.decoder = decoder or ScriptedDecoder(workload.script, is_parallel(mode))
        self.messages: list[Message] = []
        self.calls: dict[str, CallRecord] = self.scheduler.calls  # the run's one registry
        self._awaited: set[str] = set()  # call ids whose outcome an await returned
        self._used_ids: set[str] = set()  # every call and await id emitted so far
        self._settled_seen = 0  # length of store.settled at the last boundary
        self._trigger: tuple[list[str], int] = ([], 0)  # requires list, count known settled
        self._turn_no = 0
        self._boundary_no = 0
        self._live_t0 = 0.0
        self.final_answer: str | None = None

    # -- trace helpers -----------------------------------------------------------

    def _append(self, message: Message) -> None:
        self.messages.append(message)
        if len(self.messages) > self.workload.context_budget:
            raise ContextOverflowError(
                f"context grew past the budget of {self.workload.context_budget} messages"
            )

    # -- main loop ------------------------------------------------------------------

    def run(self) -> RunTrace:
        """Run the conversation until its final answer stands and every call
        is reported, then return the trace.

        The scheduler and the executor call each other only while this
        runs: on the way out, finished or raised, the scheduler's
        ``on_dispatch`` hook is dropped, so the run's objects hold no
        reference cycle and are freed by reference counting. A run that
        raised also drops the clock's queued events and the waiters on
        latches that never opened, whose callbacks hold the executor and
        the scheduler. The driver's ``calls``, ``store`` and ``scheduler``
        keep the run's state for inspection.
        """
        try:
            self.trace.started = self.clock.now()
            if self.workload.task:
                self._append(Message(role="user", content=self.workload.task))
            while True:
                self._boundary()
                if self.final_answer is not None:
                    if self._drained():
                        break
                    before = self.store.terminal_count
                    self._wait_progress(lambda: self.store.terminal_count > before)
                    continue
                if self.decoder.exhausted():
                    raise ScriptExhaustedError(
                        "script ended without a final answer for the current state"
                    )
                requires = self.decoder.requires()
                if not self._trigger_satisfied(requires):
                    self._wait_progress(lambda: self._trigger_satisfied(requires))
                    continue
                if self.decoder.realtime:
                    # Calls in flight finish on this thread while the request is
                    # out; the request gets its own copy of the context.
                    self._live_t0 = self.clock.now()
                    context = list(self.messages)
                    turn = self.clock.run_alongside(lambda: self.decoder.next_turn(context))
                else:
                    turn = self.decoder.next_turn(self.messages)
                self._execute_turn(turn)
            self._finish()
        except BaseException:
            self.clock.shutdown()
            if is_async(self.mode):  # a sync run registers no waiter
                self.scheduler.drop_waiters()
            raise
        finally:
            self.scheduler.on_dispatch = lambda call: None
        return self.trace

    def _drained(self) -> bool:
        """Every call is terminal once each one's result future has settled,
        which happens exactly once per call. Each settled call is reported
        by then: an async boundary has just run, and a sync batch reports
        each call it runs."""
        return len(self.store.settled) == len(self.calls)

    def _trigger_satisfied(self, requires: list[str]) -> bool:
        """True once every required call's result future has settled; the
        boundary before a decode reports exactly the settled calls. A future
        settles once, so the check resumes where the last one for this list
        stopped. An id that names no call (an await's) never settles."""
        checked, done = self._trigger
        if checked is not requires:
            done = 0
        calls = self.calls
        while done < len(requires):
            call = calls.get(requires[done])
            if call is None or not call.result.done:
                break
            done += 1
        self._trigger = (requires, done)
        return done == len(requires)

    def _wait_progress(self, until: Callable[[], bool]) -> None:
        """Fire clock events until ``until()`` holds, without a boundary in
        between: what settles meanwhile waits for the loop's next boundary.
        The clock stops after the event that makes it hold, so virtual time
        does not depend on how often the loop integrates."""
        try:
            self.clock.run_until(until)
        except DeadlockError as exc:
            pending = sorted(c.call_id for c in self.calls.values() if not c.terminal)
            raise DeadlockError(
                f"conversation stalled; non-terminal calls: {pending}; "
                f"next trigger: {self.decoder.requires() if not self.decoder.exhausted() else None}"
            ) from exc

    def _finish(self) -> None:
        """Check the drained run, then fill in the trace; it takes the run's
        own message and edge lists, which nothing appends to any more."""
        self.trace.finished = self.clock.now()
        # A sync call holds no label or session version.
        shut = self.scheduler.unopened_gates() if is_async(self.mode) else []
        leaked = sorted(self.store.pending_ids()) + shut
        if leaked:
            raise LeakedFutureError(f"pending futures or shut gates at drain time: {leaked}")
        violations = lint_context(self.messages)
        if violations:
            raise ProtocolViolationError("; ".join(violations))
        self.trace.final_answer = self.final_answer
        self.trace.final_state = self.state.snapshot()
        self.trace.messages = self.messages
        self.trace.edges = self.scheduler.edges
        for call_id, call in self.calls.items():
            self.trace.call_status[call_id] = call.status

    # -- turn boundary work ------------------------------------------------------------

    def _boundary(self) -> None:
        """Integrate newly resolved outcomes; inject failure reports (async)."""
        if not is_async(self.mode):
            return
        bindings: dict[str, Any] = {}
        failures: list[dict] = []
        now = self.clock.now()
        settled = self.store.settled
        start, self._settled_seen = self._settled_seen, len(settled)
        for result in settled[start:]:
            if result.owner_call in self._awaited:
                continue  # an await already returned it
            if result.status == RESOLVED:
                bindings[result.fid] = result.value
                for field in result.fields:
                    if field.status == RESOLVED:
                        bindings[field.fid] = field.value
            else:
                failures.append({"call": result.owner_call, "future": result.fid, **result.error.to_json()})

        def integrate(content: dict) -> None:
            self._append(Message(role="user", content=content))
            self.trace.record(now, now, INTEGRATE, f"b{self._boundary_no}", self._turn_no)
            self._boundary_no += 1

        if bindings:
            integrate({"resolved_futures": {fid: bindings[fid] for fid in sorted(bindings)}})
        if failures:
            failures.sort(key=lambda f: f["call"])
            integrate({"failed_calls": failures})
            if self.final_answer is not None:
                # Failure reports after the final answer reopen the
                # conversation for recovery turns.
                self.final_answer = None

    # -- decode ------------------------------------------------------------------------

    def _decode(self, duration: float) -> tuple[float, float]:
        if self.decoder.realtime:
            # A live decoder consumed real time inside next_turn already.
            t0, t1 = self._live_t0, self.clock.now()
        else:
            t0 = self.clock.now()
            self.clock.run_until_time(t0 + duration)
            t1 = t0 + duration
        self._turn_no += 1
        self.trace.record(t0, t1, DECODE, f"turn{self._turn_no}", self._turn_no)
        return t0, t1

    def _execute_turn(self, turn: ScriptTurn) -> None:
        check_turn(turn, self.tools, f"turn {self._turn_no + 1}")
        if not is_parallel(self.mode) and len(turn.emit) > 1:
            raise ValidationError(
                f"turn {self._turn_no + 1}: {len(turn.emit)} calls in one turn under "
                f"sequential calling ({self.mode})"
            )
        self._check_new_ids(turn)
        if turn.is_final:
            self._decode(turn.decode_time)
            self._append(Message(role="assistant", content=turn.final))
            self.final_answer = turn.final
            return
        if turn.is_await:
            self._handle_await(turn)
            return
        self._emit_calls(turn)

    # -- call emission ------------------------------------------------------------------

    def _check_new_ids(self, turn: ScriptTurn) -> None:
        """A live decoder may repeat a call id. The turn is rejected: a second
        call would overwrite the first one's record, and a second answer
        under one id leaves the context ambiguous."""
        for spec in turn.emit:
            if spec.call_id in self._used_ids:
                raise ValidationError(
                    f"turn {self._turn_no + 1}: duplicate call id {spec.call_id!r}"
                )
            self._used_ids.add(spec.call_id)

    def _emit_calls(self, turn: ScriptTurn) -> None:
        """Build the turn's calls and the assistant message carrying them.

        ``@Fk`` references are bound only in calls whose ``spec.refs``
        (filled when the turn was checked) names any; every other call keeps
        its spec's arguments, shared and never written: a tool behavior gets
        its own copy, and the assistant message carries its spec itself.
        Async modes then submit the calls to the scheduler and answer each
        with a placeholder; sync modes run the turn as one batch and answer
        each call with its outcome.
        """
        self._decode(turn.decode_time)
        # Sync modes finish every call before the next decode, so the
        # future an async run would pass has settled here.
        bind = attrgetter("fid") if is_async(self.mode) else reported
        records: list[CallRecord] = []
        for spec in turn.emit:
            tool = self.tools[spec.name]
            record = CallRecord(
                call_id=spec.call_id,
                tool=spec.name,
                args=self._substitute_refs(spec.args, bind) if spec.refs else spec.args,
                annotation=tool.annotation,
                result=self.store.create(owner_call=spec.call_id),
                invocation_index=next(self._invocations[spec.name]),
                turn=self._turn_no,
            )
            records.append(record)
        # Registered only now: a decoder cannot name a placeholder it has
        # not received yet, so a same-turn reference stays literal.
        for record in records:
            self.calls[record.call_id] = record
        self._append(
            Message(
                role="assistant",
                content="",
                tool_calls=[
                    spec if r.args is spec.args else CallSpec(spec.call_id, spec.name, r.args)
                    for spec, r in zip(turn.emit, records)
                ],
            )
        )
        if is_async(self.mode):
            self._submit(records, turn.emit)
            return
        self._run_batch(records)

    def _submit(self, records: list[CallRecord], specs: list[CallSpec]) -> None:
        """Answer each call with its placeholder, then hand the whole turn
        to the scheduler at once: one admission sweep and one dispatch pass
        for the turn. The scheduler searches a call's arguments for future
        ids only when its spec has references or literal future ids."""
        for record in records:
            template = self.tools[record.tool].schema.outputs
            placeholder = futurize_output_template(template, record.result.fid, self.store)
            self._append(Message(role="tool", content=placeholder, call_id=record.call_id))
        self.scheduler.submit(records, [bool(spec.refs) or spec.literal_futures for spec in specs])

    def _run_batch(self, records: list[CallRecord]) -> None:
        """Sync execution: same-turn calls overlap in time, but their effects
        and results apply in emitted order once the slowest one is done.
        Each behavior gets its own copy of the arguments, as in async modes,
        so it cannot rewrite the call in the context or the workload. The
        executor's ``settle`` ends each call, as it does an async one."""
        t0 = self.clock.now()
        latencies = [self.tools[r.tool].latency_for(r.invocation_index) for r in records]
        self.clock.run_until_time(t0 + max(latencies))
        for record, latency in zip(records, latencies):
            record.exec_start, record.exec_end = t0, t0 + latency
            value, error = self.executor.invoke(record, copy_json(record.args))
            self.executor.settle(record, value, error)
            self._append(Message(role="tool", content=reported(record.result), call_id=record.call_id))

    # -- argument references ------------------------------------------------------------

    def _substitute_refs(self, args: Any, bind: Callable[[FutureRecord], Any]) -> Any:
        """Replace each ``@Fk[.path]`` leaf naming an emitted call with
        ``bind`` of the call's result record, or of its field ``path``;
        other leaves stay literal text."""

        def leaf(node: Any, _path: tuple) -> Any:
            ref = parse_call_ref(node)
            if ref is None or ref[0] not in self.calls:
                return node
            call_id, fpath = ref
            record = self.calls[call_id].result
            return bind(record if fpath is None else self.store.create_field(record, fpath))

        return map_leaves(args, leaf)

    # -- await handling -----------------------------------------------------------------------

    def _handle_await(self, turn: ScriptTurn) -> None:
        spec = turn.emit[0]
        offset = await_detection_offset(turn.tokens, turn.decode_time)
        if not is_async(self.mode):
            offset = turn.decode_time
        t0, t1 = self._decode(offset)
        # Each ``@Fk[.path]`` becomes the record it names; any other id is
        # model text, which ``find`` parses once per occurrence.
        named = self._substitute_refs(spec.args.get("future_ids", []), lambda record: record)
        ids = [leaf if isinstance(leaf, str) else leaf.fid for leaf in named]
        records = [self.store.find(leaf) if isinstance(leaf, str) else leaf for leaf in named]
        self._append(
            Message(
                role="assistant",
                content="",
                tool_calls=[CallSpec(spec.call_id, AWAIT_FUTURE_NAME, {"future_ids": ids})],
            )
        )
        unknown = [fid for fid, record in zip(ids, records) if record is None]
        if unknown:
            error = {"error": f"unknown futures: {sorted(unknown)}"}
            self._append(Message(role="tool", content=error, call_id=spec.call_id))
            return
        self.store.wait_for(records)
        t_end = self.clock.now()
        if is_async(self.mode):
            self.trace.record(t1, t_end, AWAIT, spec.call_id, self._turn_no)
        values: dict[str, Any] = {}
        for fid, record in zip(ids, records):
            values[fid] = reported(record)
            if record.path is None:
                self._awaited.add(record.owner_call)
        self._append(Message(role="tool", content=values, call_id=spec.call_id))


def run_workload(
    workload: WorkloadSpec, mode: str, clock: str | Any = "virtual", decoder=None
) -> RunTrace:
    """Run one conversation and return its trace.

    ``clock`` is a clock object or the name of one ("virtual" or "wall"),
    built at the workload's ``delay_scale``.
    """
    if clock == "virtual":
        clock = VirtualClock()
    elif clock == "wall":
        resolution = time.get_clock_info("monotonic").resolution
        if workload.delay_scale < resolution:
            # A unit shorter than one tick of the clock cannot be timed: one
            # tick reads as a jump of many units, at the smallest scales as
            # an infinite one.
            raise ValidationError(
                f"delay_scale {workload.delay_scale!r} is below the wall clock's "
                f"resolution of {resolution} s"
            )
        clock = WallClock(delay_scale=workload.delay_scale)
    elif isinstance(clock, str):
        raise ValidationError(f"unknown clock kind {clock!r}")
    return TurnDriver(workload, mode, clock=clock, decoder=decoder).run()
