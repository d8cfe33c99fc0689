"""Dependency-aware call scheduling over a hierarchical state tree.

Decoded calls enter a FIFO admission queue. The head is admitted once its
resource path templates resolve (argument- and session-parameterized segments
included). Admission registers read/write access labels, each backed by a
pending gate future, and collects the gates of every conflicting live label
as blocking dependencies. A call is dispatched when all its blocking gates
have resolved; completing (or cancelling) a call releases its labels, which
resolves the gates and unblocks waiters.

Two regions overlap when their paths are equal or one is an ancestor of the
other and the ancestor's label covers its subtree. A pair of accesses
conflicts when they overlap and at least one side writes; read/read pairs
never conflict, which is what lets independent calls run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import (
    CANCELLED_DEPENDENCY,
    BadPathTemplateError,
    DuplicateCallIdError,
    ErrorInfo,
    FuturecallError,
    NotTerminalError,
)
from .futures import RESOLVED, FutureStore, looks_like_future_id
from .schema import DependencyAnnotation, scan_future_refs

READ = "read"
WRITE = "write"

# Call lifecycle, advancing monotonically; "cancelled" may follow any
# non-terminal status.
QUEUED = "queued"
ADMITTED = "admitted"
DISPATCHED = "dispatched"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED_STATUS = "cancelled"

_STATUS_ORDER = [QUEUED, ADMITTED, DISPATCHED, RUNNING, DONE, FAILED]
TERMINAL_STATUSES = {DONE, FAILED, CANCELLED_STATUS}


# Sentinel: a path template needs values that are still pending.
NOT_YET_RESOLVABLE = object()

SESSION_PREFIX = "$session/"


class FailedPathDependency(FuturecallError):
    """A path template needs a future that terminated without a value."""

    def __init__(self, fid: str, state):
        super().__init__(f"path template depends on {fid} which is {state.status}")
        self.fid = fid
        self.state = state


@dataclass(frozen=True)
class ResourcePath:
    """Hierarchical state address; the root is the empty segment tuple."""

    segments: tuple[str, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ResourcePath":
        if not text.startswith("/"):
            raise BadPathTemplateError(f"resource path must be /-rooted: {text!r}")
        parts = [p for p in text.split("/") if p != ""]
        for part in parts:
            if "/" in part:
                raise BadPathTemplateError(f"bad segment {part!r}")
        return cls(tuple(parts))

    def render(self) -> str:
        return "/" + "/".join(self.segments)

    def is_ancestor_of(self, other: "ResourcePath") -> bool:
        """Proper-prefix test; a path is not its own ancestor."""
        if len(self.segments) >= len(other.segments):
            return False
        return other.segments[: len(self.segments)] == self.segments

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Access:
    """One resolved region access: path, read/write mode, scope flag."""

    path: ResourcePath
    mode: str
    subtree: bool


@dataclass
class AccessLabel:
    """A live access registered in the state tree, backed by a gate future."""

    access: Access
    owner: str
    gate: str


def regions_overlap(a: Access, b: Access) -> bool:
    if a.path == b.path:
        return True
    if a.path.is_ancestor_of(b.path):
        return a.subtree
    if b.path.is_ancestor_of(a.path):
        return b.subtree
    return False


def conflicts(a: Access, b: Access) -> bool:
    """True iff the accesses overlap and at least one side is a write."""
    if a.mode != WRITE and b.mode != WRITE:
        return False
    return regions_overlap(a, b)


def fallback_accesses() -> list[Access]:
    root = ResourcePath(())
    return [Access(root, READ, True), Access(root, WRITE, True)]


@dataclass
class SessionState:
    """Session context advanced by session-writing calls.

    ``version`` counts completed session writes; every reserved version has a
    gate future that resolves when that write finishes. Bindings name session
    resources for ``$session/...`` path templates.
    """

    store: FutureStore
    bindings: dict[str, Any] = field(default_factory=dict)
    version: int = 0
    reserved_version: int = 0
    version_gates: dict[int, str] = field(default_factory=dict)
    gate_owners: dict[int, str] = field(default_factory=dict)

    def ensure_initial_gate(self) -> None:
        if 0 not in self.version_gates:
            gate = self.store.create(kind="session-version")
            self.store.resolve(gate, {"session_version": 0})
            self.version_gates[0] = gate

    def latest_gate(self) -> str:
        self.ensure_initial_gate()
        return self.version_gates[self.reserved_version]

    def reserve_write(self, owner: str) -> int:
        self.ensure_initial_gate()
        self.reserved_version += 1
        gate = self.store.create(kind="session-version", owner_call=owner)
        self.version_gates[self.reserved_version] = gate
        self.gate_owners[self.reserved_version] = owner
        return self.reserved_version

    @property
    def writes_in_flight(self) -> bool:
        return self.reserved_version > self.version

    def complete_write(self, version: int, result: Any, reducer: Callable | None) -> None:
        self.version = max(self.version, version)
        if reducer is not None:
            self.bindings = reducer(dict(self.bindings), result)
        elif isinstance(result, dict):
            # Default advancement: merge the writer's result by key.
            self.bindings.update(result)
        self.store.resolve(self.version_gates[version], {"session_version": version})

    def abort_write(self, version: int) -> None:
        """A failed or cancelled writer still advances the gate, not the bindings."""
        self.version = max(self.version, version)
        gate = self.version_gates[version]
        if not self.store.state_of(gate).is_terminal:
            self.store.resolve(gate, {"session_version": version, "aborted": True})


@dataclass
class CallRecord:
    """One decoded function call moving through the scheduling pipeline."""

    call_id: str
    tool: str
    args: Any
    annotation: DependencyAnnotation | None
    result_future: str = ""
    status: str = QUEUED
    invocation_index: int = 0
    blocking_gates: set[str] = field(default_factory=set)
    argument_futures: set[str] = field(default_factory=set)
    labels: list[AccessLabel] = field(default_factory=list)
    session_version: int | None = None
    submitted_at: float = 0.0
    admitted_at: float | None = None
    dispatched_at: float | None = None
    exec_start: float | None = None
    exec_end: float | None = None
    error: ErrorInfo | None = None
    released: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def advance_status(self, new: str) -> None:
        if self.terminal:
            raise FuturecallError(f"{self.call_id}: status {self.status} is terminal")
        if new == CANCELLED_STATUS:
            self.status = new
            return
        if _STATUS_ORDER.index(new) < _STATUS_ORDER.index(self.status):
            raise FuturecallError(
                f"{self.call_id}: cannot move status backwards {self.status} -> {new}"
            )
        self.status = new


@dataclass(frozen=True)
class DependencyEdge:
    """A recorded producer -> consumer constraint between two calls."""

    producer: str
    consumer: str
    kind: str  # arg | gate-raw | gate-war | gate-waw | session-raw | session-waw


def _scalar_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int, float)):
        return str(value)
    raise BadPathTemplateError(f"path segment value must be scalar, got {type(value).__name__}")


def _session_binding(template: str) -> tuple[str, str]:
    """Binding name and tail of a ``$session/name/tail`` template."""
    name, _, tail = template[len(SESSION_PREFIX):].partition("/")
    if not name:
        raise BadPathTemplateError("$session/ needs a binding name")
    return name, tail


def _param_span(text: str, segment: str) -> tuple[int, int] | None:
    """Span of the first ``{param}`` in text, or None when there is none."""
    start = text.find("{")
    if start < 0:
        return None
    end = text.find("}", start)
    if end < 0:
        raise BadPathTemplateError(f"unbalanced braces in segment {segment!r}")
    return start, end


def check_path_template(template: str) -> None:
    """Raise BadPathTemplateError for a template malformed on syntax alone:
    neither /-rooted nor session-relative, an empty ``$session/`` binding
    name, or unbalanced braces. ``resolve_paths`` makes the same checks."""
    if template.startswith(SESSION_PREFIX):
        _session_binding(template)
    elif not template.startswith("/"):
        raise BadPathTemplateError(f"path template must be /-rooted: {template!r}")
    for segment in template.split("/"):
        rest = segment
        while (span := _param_span(rest, segment)) is not None:
            rest = rest[span[1] + 1 :]


def resolve_paths(
    annotation: DependencyAnnotation | None,
    args: dict,
    session: SessionState,
    store: FutureStore,
) -> list[Access] | object:
    """Materialize a call's access set, or report it is not yet resolvable.

    Argument-parameterized segments substitute the call's argument values
    (following future references to their resolved values), and
    ``$session/...`` prefixes resolve against current session bindings. Both
    substitutions defer while the needed value is still pending.
    """
    if annotation is None:
        return fallback_accesses()

    accesses: list[Access] = []
    for mode, decls in ((READ, annotation.reads), (WRITE, annotation.writes)):
        for decl in decls:
            template = decl.path
            if template.startswith(SESSION_PREFIX):
                if session.writes_in_flight:
                    return NOT_YET_RESOLVABLE
                name, tail = _session_binding(template)
                if name not in session.bindings:
                    raise BadPathTemplateError(f"unknown session binding {name!r}")
                bound = session.bindings[name]
                if not isinstance(bound, str) or not bound.startswith("/"):
                    raise BadPathTemplateError(
                        f"session binding {name!r} is not a /-rooted path: {bound!r}"
                    )
                template = bound if not tail else bound.rstrip("/") + "/" + tail
            elif not template.startswith("/"):
                raise BadPathTemplateError(f"path template must be /-rooted: {template!r}")

            filled_segments: list[str] = []
            for segment in template.split("/")[1:]:
                if "{" in segment:
                    filled, pending = _fill_segment(segment, args, store)
                    if pending:
                        return NOT_YET_RESOLVABLE
                    filled_segments.append(filled)
                elif segment:
                    filled_segments.append(segment)
            accesses.append(Access(ResourcePath(tuple(filled_segments)), mode, decl.subtree))
    return accesses


def _fill_segment(segment: str, args: dict, store: FutureStore) -> tuple[str, bool]:
    out = segment
    while (span := _param_span(out, segment)) is not None:
        start, end = span
        param = out[start + 1 : end]
        if param not in args:
            raise BadPathTemplateError(f"unknown parameter {param!r} in path template")
        value = args[param]
        if isinstance(value, str) and looks_like_future_id(value) and store.known(value):
            state = store.state_of(value)
            if state.status == RESOLVED:
                value = state.value
            elif state.is_terminal:
                raise FailedPathDependency(value, state)
            else:
                return "", True
        out = out[:start] + _scalar_text(value) + out[end + 1 :]
    return out, False


class Scheduler:
    """FIFO admission queue plus state-tree conflict analysis.

    Owns enqueue order, label registration, blocking-gate computation and
    release. Dispatch itself is delegated through ``on_dispatch`` so the
    executor decides how dispatched calls run. ``pump`` is invoked on every
    submission and on every future resolution; those are the only events that
    can unblock either the queue head or an admitted call.
    """

    def __init__(
        self,
        store: FutureStore,
        session: SessionState,
        clock,
        on_dispatch: Callable[[CallRecord], None] | None = None,
    ):
        self.store = store
        self.session = session
        self.clock = clock
        self.on_dispatch = on_dispatch or (lambda call: None)
        self.calls: dict[str, CallRecord] = {}
        self.queue: list[CallRecord] = []
        self.live_labels: list[AccessLabel] = []
        self.edges: list[DependencyEdge] = []
        self._edge_keys: set[tuple[str, str, str]] = set()
        self._awaiting_dispatch: list[CallRecord] = []
        self._pumping = False
        self._pump_again = False
        store.add_observer(lambda fid: self.pump())

    # -- submission ----------------------------------------------------------

    def submit(self, call: CallRecord) -> str:
        """Enqueue a decoded call; returns its result future immediately."""
        if call.call_id in self.calls:
            raise DuplicateCallIdError(f"call id {call.call_id!r} already submitted")
        if not call.result_future:
            call.result_future = self.store.create(kind="result", owner_call=call.call_id)
        call.submitted_at = self.clock.now()
        self.calls[call.call_id] = call
        self._record_argument_edges(call)
        self.queue.append(call)
        self.pump()
        return call.result_future

    def _record_argument_edges(self, call: CallRecord) -> None:
        for _, fid in scan_future_refs(call.args, self.store):
            call.argument_futures.add(fid)
            producer = self.store.owner_of(fid)
            if producer and producer != call.call_id:
                self._add_edge(producer, call.call_id, "arg")

    def _add_edge(self, producer: str, consumer: str, kind: str) -> None:
        key = (producer, consumer, kind)
        if key not in self._edge_keys:
            self._edge_keys.add(key)
            self.edges.append(DependencyEdge(producer, consumer, kind))

    # -- admission -------------------------------------------------------------

    def pump(self) -> None:
        """Run admission and dispatch passes until nothing more unblocks."""
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            while True:
                self._pump_again = False
                self.try_admit(self.clock.now())
                self._try_dispatch()
                if not self._pump_again:
                    break
        finally:
            self._pumping = False

    def try_admit(self, now: float) -> list[CallRecord]:
        """Admit queue heads while their paths resolve; strict FIFO order."""
        admitted: list[CallRecord] = []
        while self.queue:
            head = self.queue[0]
            if head.terminal:
                self.queue.pop(0)
                continue
            try:
                resolved = resolve_paths(head.annotation, head.args, self.session, self.store)
            except FailedPathDependency as exc:
                # The head can never be admitted; cancel it instead of
                # blocking everything queued behind it.
                self.queue.pop(0)
                cause = exc.state.cause if exc.state.status == "cancelled" else exc.fid
                origin = self.store.owner_of(cause) or "unknown"
                self.mark_cancelled(head, cause, origin)
                continue
            if resolved is NOT_YET_RESOLVABLE:
                break
            self.queue.pop(0)
            self._admit(head, resolved, now)
            admitted.append(head)
        return admitted

    def _admit(self, call: CallRecord, accesses: list[Access], now: float) -> None:
        call.blocking_gates = self.blocking_gates(call, accesses)
        annotation = call.annotation
        if annotation is not None and annotation.session_write:
            call.session_version = self.session.reserve_write(call.call_id)
        for access in accesses:
            gate = self.store.create(kind="access-label", owner_call=call.call_id)
            label = AccessLabel(access=access, owner=call.call_id, gate=gate)
            call.labels.append(label)
            self.live_labels.append(label)
        call.advance_status(ADMITTED)
        call.admitted_at = now
        self._awaiting_dispatch.append(call)

    def blocking_gates(self, call: CallRecord, accesses: list[Access]) -> set[str]:
        """Gates of every live conflicting label, plus the preceding session gate."""
        gates: set[str] = set()
        for label in self.live_labels:
            if label.owner == call.call_id:
                continue
            for access in accesses:
                if conflicts(label.access, access):
                    gates.add(label.gate)
                    self._add_edge(
                        label.owner,
                        call.call_id,
                        _gate_edge_kind(label.access.mode, access.mode),
                    )
        annotation = call.annotation
        if annotation is not None and (annotation.session_read or annotation.session_write):
            gate = self.session.latest_gate()
            gates.add(gate)
            version = self.session.reserved_version
            producer = self.session.gate_owners.get(version)
            if producer and producer != call.call_id:
                kind = "session-raw" if annotation.session_read else "session-waw"
                self._add_edge(producer, call.call_id, kind)
        return gates

    # -- dispatch & release ------------------------------------------------------

    def _try_dispatch(self) -> None:
        ready = []
        still_waiting = []
        for call in self._awaiting_dispatch:
            if call.terminal:
                continue
            if all(self.store.state_of(g).is_terminal for g in call.blocking_gates):
                ready.append(call)
            else:
                still_waiting.append(call)
        self._awaiting_dispatch = still_waiting
        for call in ready:
            self.on_dispatch(call)

    def release(self, call: CallRecord) -> None:
        """Drop a terminal call's labels, resolving their gates."""
        if not call.terminal:
            raise NotTerminalError(f"{call.call_id} is {call.status}")
        if call.released:
            return
        call.released = True
        for label in call.labels:
            if not self.store.state_of(label.gate).is_terminal:
                self.store.resolve(label.gate, {"released_by": call.call_id})
        self.live_labels = [lab for lab in self.live_labels if lab.owner != call.call_id]
        if call.session_version is not None and call.status != DONE:
            self.session.abort_write(call.session_version)
        self.pump()

    # -- cancellation support ------------------------------------------------------

    def mark_cancelled(self, call: CallRecord, cause_future: str, origin_call: str) -> None:
        """Terminal cancellation: settles the result future and releases labels."""
        if call.terminal:
            return
        call.advance_status(CANCELLED_STATUS)
        call.error = ErrorInfo(
            CANCELLED_DEPENDENCY,
            f"cancelled because {origin_call} failed",
            origin_call,
        )
        if not self.store.state_of(call.result_future).is_terminal:
            self.store.cancel(call.result_future, cause_future)
        self.release(call)


def _gate_edge_kind(producer_mode: str, consumer_mode: str) -> str:
    if producer_mode == WRITE and consumer_mode == READ:
        return "gate-raw"
    if producer_mode == WRITE and consumer_mode == WRITE:
        return "gate-waw"
    return "gate-war"
