"""Dependency-aware call scheduling over a hierarchical state tree.

Decoded calls enter a FIFO admission queue. The head is admitted once its
resource path templates resolve (argument- and session-parameterized segments
included). Admission registers read/write access labels, each with a gate:
a scheduler-side latch, never a future the model can see. The gates of the
conflicting labels in the index become the call's blocking dependencies.
Completing (or cancelling) a call releases its labels, which opens the gates.

Gating follows version chains: a read waits on the last writer of its region,
and a write waits on the last writer and the readers since. On admission,
each write access supersedes the labels that lie inside its region: they
leave the index, and every later access that would have conflicted with
them conflicts with the write, so it waits on them through the write's gate.
The recorded edges are thus a subset of those that gating on every
unreleased conflicting label would record, with the same transitive closure:
conflicting operations are ordered along each region's version chain
(Bernstein, Hadzilacos & Goodman, "Concurrency Control and Recovery in
Database Systems", 1987, ch. 5). A superseded label's gate still opens
when its owner releases. A cancelled call never writes, so its labels leave
the index at once and the labels they superseded come back while their
owners have not released; a label's gate then opens once the gates of
the labels it superseded are open, since calls admitted before the
cancellation wait on those only through it.

Everything is event-driven. A call whose blocking gates are all open at
admission is queued for dispatch at once, with no waiter; otherwise one
waiter on its gates queues it once the last gate opens, and the pass that
dispatches it runs only then. A head that cannot resolve its paths yet
waits on the one input it needs, a pending future or the in-flight session
write's gate, and is not looked at again until that input is settled.

Indexed labels sit in a trie keyed by path segment, so a conflict lookup
visits the path's ancestors, the equal node and, for a subtree access, the
descendants, rather than every label; this is the structure of
multi-granularity locking (Gray, Lorie, Putzolu & Traiger, "Granularity of
Locks and Degrees of Consistency in a Shared Data Base", 1976). Each node
keeps its labels by (mode, scope), so a lookup returns only labels that
conflict; admission still confirms each candidate with ``conflicts()``, the
pairwise rule, one check per candidate label.

Two regions overlap when their paths are equal or one is an ancestor of the
other and the ancestor's label covers its subtree. A pair of accesses
conflicts when they overlap and at least one side writes; read/read pairs
never conflict, which is what lets independent calls run in parallel.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Callable, Iterator, NamedTuple, Sequence

from .errors import (
    CANCELLED_DEPENDENCY,
    DuplicateCallIdError,
    ErrorInfo,
    FuturecallError,
    NotTerminalError,
)
from .futures import RESOLVED, FutureRecord, FutureStore, Latch, looks_like_future_id, when_all
from .schema import READ, WRITE, Access, DependencyAnnotation, scan_future_refs

# Call lifecycle: queued, admitted, dispatched, running, then the result
# future's outcome; "cancelled" may follow any status before it.
# ``CallRecord.status`` reads it off the call's stamps and result future.
QUEUED = "queued"
ADMITTED = "admitted"
DISPATCHED = "dispatched"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED_STATUS = "cancelled"
TERMINAL_STATUSES = {DONE, FAILED, CANCELLED_STATUS}


class FailedPathDependency(FuturecallError):
    """A path template needs a future that terminated without a value."""

    def __init__(self, fid: str, state):
        super().__init__(f"path template depends on {fid} which is {state.status}")
        self.state = state


@dataclass(slots=True)
class AccessLabel:
    """A live access registered in the state tree, with the gate that opens
    when its owner releases it.

    ``seq`` is the label's registration order within its scheduler.
    ``replaced`` holds the labels a write superseded on admission.
    """

    access: Access
    owner: str
    gate: Latch
    seq: int
    replaced: Sequence["AccessLabel"] = field(default=(), compare=False, repr=False)


def regions_overlap(a: Access, b: Access) -> bool:
    """Equal paths overlap, and so do a path and a proper prefix of it
    whose access covers its subtree."""
    if a.path == b.path:
        return True
    depth = min(len(a.path), len(b.path))
    if a.path[:depth] != b.path[:depth]:
        return False
    return a.subtree if len(a.path) < len(b.path) else b.subtree


def conflicts(a: Access, b: Access) -> bool:
    """True iff the accesses overlap and at least one side is a write."""
    if a.mode != WRITE and b.mode != WRITE:
        return False
    return regions_overlap(a, b)


# Per access mode, the (mode, subtree) label keys to look at on a proper
# ancestor (subtree labels only) and at or below the path (both scopes).
_LOOKUP_KEYS = {
    READ: ([(WRITE, True)], [(WRITE, False), (WRITE, True)]),
    WRITE: (
        [(READ, True), (WRITE, True)],
        [(READ, False), (READ, True), (WRITE, False), (WRITE, True)],
    ),
}


class _PathNode:
    """One state-tree node: children by segment and, apart from them, the
    live labels registered at exactly this path, keyed by (mode, subtree)
    and then by registration order."""

    __slots__ = ("children", "labels")

    def __init__(self):
        self.children: dict[str, _PathNode] = {}
        self.labels: dict[tuple[str, bool], dict[int, AccessLabel]] = {}

    def collect(self, keys: list[tuple[str, bool]], out: list[AccessLabel]) -> None:
        for key in keys:
            labels = self.labels.get(key)
            if labels:
                out.extend(labels.values())

    def descendants(self) -> Iterator["_PathNode"]:
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


class LabelIndex:
    """Unsuperseded live labels by path: a lookup touches the path's depth,
    the nodes below a subtree access and the labels it returns; iteration
    yields labels in registration order."""

    def __init__(self):
        self._root = _PathNode()
        self._live: dict[int, AccessLabel] = {}

    def __iter__(self) -> Iterator[AccessLabel]:
        return iter(self._live.values())

    def add(self, label: AccessLabel) -> None:
        node = self._root
        for segment in label.access.path:
            child = node.children.get(segment)
            if child is None:
                child = node.children[segment] = _PathNode()
            node = child
        key = (label.access.mode, label.access.subtree)
        node.labels.setdefault(key, {})[label.seq] = label
        self._live[label.seq] = label

    def remove(self, label: AccessLabel) -> None:
        """Drop a label; one a later write already superseded is gone."""
        if self._live.pop(label.seq, None) is None:
            return
        access = label.access
        node = self._root
        for segment in access.path:
            node = node.children[segment]
        key = (access.mode, access.subtree)
        labels = node.labels[key]
        del labels[label.seq]
        if not labels:
            del node.labels[key]
            if not node.labels and not node.children:
                self._prune(access.path)

    def supersede(self, write: Access) -> list[AccessLabel]:
        """Drop and return every label inside the write access's region: the
        non-subtree labels at its path or, for a subtree write, every label
        at or below its path."""
        node = self._root
        for segment in write.path:
            node = node.children.get(segment)
            if node is None:
                return []
        if write.subtree:
            groups = [labels for below in (node, *node.descendants()) for labels in below.labels.values()]
            node.labels, node.children = {}, {}
        else:
            groups = [node.labels.pop(key, {}) for key in ((READ, False), (WRITE, False))]
        dropped = [label for labels in groups for label in labels.values()]
        for label in dropped:
            del self._live[label.seq]
        if not node.labels and not node.children:
            self._prune(write.path)
        return dropped

    def restore(self, labels: list[AccessLabel]) -> None:
        """Put back labels that a since-withdrawn write superseded; labels
        still indexed stay as they are."""
        fresh = [label for label in labels if label.seq not in self._live]
        for label in fresh:
            self.add(label)
        if fresh:
            self._live = dict(sorted(self._live.items()))

    def _prune(self, segments: tuple[str, ...]) -> None:
        """Drop the nodes along the path left with neither labels nor
        children, so subtree walks only ever see live state."""
        trail = [self._root]
        for segment in segments:
            node = trail[-1].children.get(segment)
            if node is None:
                break
            trail.append(node)
        for depth in range(len(trail) - 1, 0, -1):
            node = trail[depth]
            if node.labels or node.children:
                break
            del trail[depth - 1].children[segments[depth - 1]]

    def overlapping(self, access: Access) -> list[AccessLabel]:
        """Live labels that may conflict with the access: subtree labels on
        proper ancestors, labels at the equal path and, for a subtree access,
        every label below it. A read only looks at writers."""
        covering, any_scope = _LOOKUP_KEYS[access.mode]
        found: list[AccessLabel] = []
        node = self._root
        for segment in access.path:
            if node.labels:
                node.collect(covering, found)
            node = node.children.get(segment)
            if node is None:
                return found
        node.collect(any_scope, found)
        if access.subtree:
            for below in node.descendants():
                below.collect(any_scope, found)
        return found


_FALLBACK = (Access((), READ, True), Access((), WRITE, True))


def fallback_accesses() -> list[Access]:
    """The footprint of an unannotated tool: the whole tree, read and written."""
    return list(_FALLBACK)


@dataclass
class SessionState:
    """Session context advanced by session-writing calls.

    ``writes[v]`` is version v's (gate, owner call id): the gate opens when
    that write finishes. Version 0 is the starting context, its gate open
    and its owner None. Each write waits on the gate before its own, so the
    gates open in version order. Bindings name session resources for
    ``$session/...`` path templates.
    """

    bindings: dict[str, Any] = field(default_factory=dict)
    writes: list[tuple[Latch, str | None]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        initial = Latch()
        initial.open()
        self.writes.append((initial, None))

    def latest_gate(self) -> Latch:
        return self.writes[-1][0]

    def reserve_write(self, owner: str) -> int:
        self.writes.append((Latch(), owner))
        return len(self.writes) - 1

    @property
    def writes_in_flight(self) -> bool:
        return not self.latest_gate().done

    def complete_write(self, version: int, result: Any = None) -> Latch:
        """Return a finished write's gate, for the caller to open. A done
        writer's dict result is merged into the bindings by key; a failed
        or cancelled writer passes none."""
        if isinstance(result, dict):
            self.bindings.update(result)
        return self.writes[version][0]


@dataclass(slots=True)
class CallRecord:
    """One decoded function call moving through the scheduling pipeline.

    ``turn`` is the number of the decode turn that emitted the call.
    ``result`` is the record of the call's result future; ``Scheduler.submit``
    creates it unless the caller already has. ``argument_futures`` holds the
    future ids that ``Scheduler.submit`` found among the string leaves of
    ``args``; the executor waits on and substitutes exactly those.
    ``blocking_gates``, ``argument_futures`` and ``labels`` start as shared
    empty values; submission and admission assign their own, and nothing
    changes them in place.

    ``status`` and ``terminal`` are read off the stamps and ``result``: the
    call is terminal once its result future settles, and its status is then
    the future's outcome ("done" for resolved). Before that, the furthest
    stamp set gives it: ``exec_start`` running, ``dispatched_at`` dispatched,
    ``admitted_at`` admitted, and none queued.
    """

    call_id: str
    tool: str
    args: Any
    annotation: DependencyAnnotation | None
    result: FutureRecord | None = None
    invocation_index: int = 0
    turn: int = 0
    blocking_gates: AbstractSet[Latch] = frozenset()
    argument_futures: AbstractSet[str] = frozenset()
    labels: Sequence[AccessLabel] = ()
    session_version: int | None = None
    submitted_at: float = 0.0
    admitted_at: float | None = None
    dispatched_at: float | None = None
    exec_start: float | None = None
    exec_end: float | None = None
    released: bool = False

    @property
    def terminal(self) -> bool:
        return self.result.done

    @property
    def status(self) -> str:
        result = self.result
        if result.done:
            outcome = result.state.status
            return DONE if outcome == RESOLVED else outcome
        if self.exec_start is not None:
            return RUNNING
        if self.dispatched_at is not None:
            return DISPATCHED
        return QUEUED if self.admitted_at is None else ADMITTED


# A consumer waits on an argument future, on a conflicting access label's gate
# (read/write after write, write after read) or on a session binding's write.
EDGE_KINDS = frozenset({"arg", "gate-raw", "gate-waw", "gate-war", "session-raw", "session-waw"})
# The kinds that carry a failed call's effect to its consumer.
PROPAGATING_EDGE_KINDS = frozenset({"arg", "gate-raw", "session-raw"})


# Gate edge kind by (producer label mode, consumer access mode); read/read
# pairs never conflict.
_GATE_EDGE_KINDS = {
    (WRITE, READ): "gate-raw",
    (WRITE, WRITE): "gate-waw",
    (READ, WRITE): "gate-war",
}


class DependencyEdge(NamedTuple):
    """A recorded producer -> consumer constraint between two calls."""

    producer: str
    consumer: str
    kind: str  # one of EDGE_KINDS


def resolve_paths(
    annotation: DependencyAnnotation | None,
    args: dict,
    session: SessionState,
    store: FutureStore,
) -> list[Access] | str | Latch:
    """Materialize a call's access set, or name the input it waits on.

    A literal template gives the access its declaration prebuilt. Every
    other parsed template is filled: a ``{param}`` with the call's argument
    value (a future's resolved value) and a ``$session/name`` prefix with the
    binding's current path, read as literal segments. While a needed value
    is still pending this returns what to wait on instead: the id of the
    pending future, or the gate of the latest session write in flight. A
    template it cannot fill gives the call the unannotated fallback.
    """
    if annotation is None:
        return fallback_accesses()

    accesses: list[Access] = []
    for mode, decls in ((READ, annotation.reads), (WRITE, annotation.writes)):
        for decl in decls:
            if decl.literal is not None:
                accesses.append(decl.literal[mode])
                continue
            filled: list[str] = []
            if decl.binding is not None:
                if session.writes_in_flight:
                    return session.latest_gate()
                bound = session.bindings.get(decl.binding)
                if not isinstance(bound, str) or not bound.startswith("/"):
                    return fallback_accesses()
                filled = [part for part in bound.split("/") if part]
            for segment in decl.segments:
                if isinstance(segment, str):
                    filled.append(segment)
                    continue
                text = segment[0]
                for i in range(1, len(segment), 2):
                    if segment[i] not in args:
                        return fallback_accesses()
                    value = args[segment[i]]
                    if isinstance(value, str) and looks_like_future_id(value) and store.known(value):
                        state = store.state_of(value)
                        if state.status == RESOLVED:
                            value = state.value
                        elif state.is_terminal:
                            raise FailedPathDependency(value, state)
                        else:
                            return value
                    if isinstance(value, bool):
                        value = "true" if value else "false"
                    elif not isinstance(value, (str, int, float)):
                        return fallback_accesses()
                    text += str(value) + segment[i + 1]
                filled.append(text)
            accesses.append(Access(tuple(filled), mode, decl.subtree))
    return accesses


class Scheduler:
    """FIFO admission queue plus state-tree conflict analysis.

    Owns enqueue order, label registration, blocking-gate computation (the
    last writer and the readers since, per region), label supersession and
    release. Dispatch itself is delegated through ``on_dispatch`` so the
    executor decides how dispatched calls run; the executor binds its
    ``dispatch`` there, and the driver drops it when the run ends, so the
    hook is live only during a run. An admitted call goes on the ready list
    at once if its blocking gates are open, else through a waiter on them,
    and the next pass dispatches the ready calls in admission order. A head
    whose paths need a pending input waits on that input alone. ``pump``
    runs such a pass on submission, after a gate opening readies a call, on
    cancellation and when the blocked head's input settles; nothing else
    can admit or ready a call.
    """

    def __init__(self, store: FutureStore, session: SessionState, clock):
        self.store = store
        self.session = session
        self.clock = clock
        self.on_dispatch: Callable[[CallRecord], None] = lambda call: None
        self.calls: dict[str, CallRecord] = {}
        self.queue: deque[CallRecord] = deque()
        self.label_index = LabelIndex()
        self.edges: list[DependencyEdge] = []
        self._label_seq = itertools.count()
        self._admission_seq = itertools.count()
        self._ready: list[tuple[int, CallRecord]] = []  # (admission seq, call)
        self._head_wait: Latch | None = None  # the queue head's pending input
        self._pumping = False
        self._pump_again = False

    @property
    def live_labels(self) -> list[AccessLabel]:
        """Labels no later write has superseded and no release has dropped,
        in registration order: the ones a new admission can gate on."""
        return list(self.label_index)

    # -- submission ----------------------------------------------------------

    def submit(self, call: CallRecord, scan: bool = True) -> str:
        """Enqueue a decoded call; returns its result future immediately.

        ``scan=False`` skips the search of ``args`` for future ids, for a
        caller that knows no string leaf of them can be one: the call then
        has no argument futures and no argument edges."""
        if call.call_id in self.calls:
            raise DuplicateCallIdError(f"call id {call.call_id!r} already submitted")
        if call.result is None:
            call.result = self.store.latch(self.store.create(owner_call=call.call_id))
        call.submitted_at = self.clock.now()
        self.calls[call.call_id] = call
        if scan:
            self._record_argument_edges(call)
        self.queue.append(call)
        self.pump()
        return call.result.fid

    def _record_argument_edges(self, call: CallRecord) -> None:
        producers: set[str] = set()
        call.argument_futures = found = set()
        for _, fid in scan_future_refs(call.args, self.store):
            found.add(fid)
            producer = self.store.owner_of(fid)
            if producer and producer != call.call_id and producer not in producers:
                producers.add(producer)
                self.edges.append(DependencyEdge(producer, call.call_id, "arg"))

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

    def try_admit(self, now: float) -> None:
        """Admit queue heads while their paths resolve; strict FIFO order.

        A head that needs a pending input waits on it with one waiter, and
        is not resolved again until that input has settled."""
        queue = self.queue
        while queue:
            head = queue[0]
            if head.terminal:
                queue.popleft()
                self._head_wait = None
                continue
            if self._head_wait is not None and not self._head_wait.done:
                break
            self._head_wait = None
            try:
                resolved = resolve_paths(head.annotation, head.args, self.session, self.store)
            except FailedPathDependency as exc:
                # The head can never be admitted; cancel it instead of
                # blocking everything queued behind it.
                queue.popleft()
                self.mark_cancelled(head, exc.state.error.origin_call)
                continue
            if not isinstance(resolved, list):
                wait = self.store.latch(resolved) if isinstance(resolved, str) else resolved
                self._head_wait = wait
                # Woken last: calls already waiting on the same input (its
                # consumers) go on before the head is admitted.
                when_all([wait], lambda: self.pump(), last=True)
                break
            queue.popleft()
            self._admit(head, resolved, now)

    def _admit(self, call: CallRecord, accesses: list[Access], now: float) -> None:
        """Register the call's labels and ready it: at once when every
        blocking gate is open, else through one waiter on them."""
        gates = call.blocking_gates = self.blocking_gates(call, accesses)
        annotation = call.annotation
        if annotation is not None and annotation.session_write:
            call.session_version = self.session.reserve_write(call.call_id)
        index = self.label_index
        replaced = [index.supersede(access) if access.mode == WRITE else () for access in accesses]
        labels = call.labels = []
        for access, dropped in zip(accesses, replaced):
            label = AccessLabel(access, call.call_id, Latch(), next(self._label_seq), dropped)
            labels.append(label)
            index.add(label)
        call.admitted_at = now
        entry = (next(self._admission_seq), call)
        if gates and not all(gate.done for gate in gates):
            when_all(gates, lambda: self._ready.append(entry))
        else:
            self._ready.append(entry)

    def blocking_gates(self, call: CallRecord, accesses: list[Access]) -> set[Latch]:
        """Gates of every indexed conflicting label, plus the preceding
        session gate. The index holds only unsuperseded labels, so these are
        the last writer and the readers since on each region accessed.

        Gates and edges are recorded in label registration order, then
        access order, as a scan over the indexed labels would record them. All
        of a call's gate and session edges are recorded here, once per
        (producer, kind), so de-duplication needs only this call's keys.
        """
        consumer = call.call_id
        overlapping = self.label_index.overlapping
        hits = [
            (label.seq, index, label)
            for index, access in enumerate(accesses)
            for label in overlapping(access)
            if label.owner != consumer and conflicts(label.access, access)
        ]
        hits.sort()  # (seq, index) pairs are unique: labels are never compared
        gates: set[Latch] = set()
        recorded: set[tuple[str, str]] = set()
        edges = self.edges
        for _, index, label in hits:
            gates.add(label.gate)
            key = (label.owner, _GATE_EDGE_KINDS[label.access.mode, accesses[index].mode])
            if key not in recorded:
                recorded.add(key)
                edges.append(DependencyEdge(key[0], consumer, key[1]))
        annotation = call.annotation
        if annotation is not None and (annotation.session_read or annotation.session_write):
            gate, producer = self.session.writes[-1]
            gates.add(gate)
            if producer and producer != consumer:
                kind = "session-raw" if annotation.session_read else "session-waw"
                edges.append(DependencyEdge(producer, consumer, kind))
        return gates

    # -- dispatch & release ------------------------------------------------------

    def _try_dispatch(self) -> None:
        """Dispatch, in admission order, the calls whose gates all became
        terminal since the last pass; calls readied meanwhile wait for the
        next pass."""
        if not self._ready:
            return
        ready, self._ready = self._ready, []
        ready.sort()  # admission seqs are unique: calls are never compared
        for call in [call for _, call in ready if not call.terminal]:
            self.on_dispatch(call)

    def _open(self, gate: Latch) -> None:
        """Open a gate, then run a pass if that readied a call: each gate
        is a step of its own, so the calls it readies dispatch before the
        next gate of the same release opens."""
        gate.open()
        if self._ready:
            self.pump()

    def release(self, call: CallRecord) -> None:
        """Open each of a terminal call's label gates, then drop the label if
        it is still indexed; a superseded label has already left the index.
        A gate that readies a call runs its own pass, so nothing is left for
        one here.

        A done session writer's result advances the session, and its version
        gate opens before its label gates; a failed or cancelled writer's
        opens after them."""
        if not call.terminal:
            raise NotTerminalError(f"{call.call_id} is {call.status}")
        if call.released:
            return
        call.released = True
        version = call.session_version
        if version is not None and call.status == DONE:
            self._end_session_write(version, call.result.state.value)
        index = self.label_index
        for label in call.labels:
            if not label.gate.done:
                self._open(label.gate)
            index.remove(label)
        if version is not None and call.status != DONE:
            self._end_session_write(version)

    def _end_session_write(self, version: int, result: Any = None) -> None:
        gate = self.session.complete_write(version, result)
        if not gate.done:
            self._open(gate)

    def unopened_gates(self) -> list[str]:
        """The label and session gates still shut, by owner and access; at
        drain time every one of them is a leak."""
        shut = [
            f"{label.owner} {label.access.mode} /{'/'.join(label.access.path)}"
            for call in self.calls.values()
            for label in call.labels
            if not label.gate.done
        ]
        for version, (gate, _) in enumerate(self.session.writes):
            if not gate.done:
                shut.append(f"session version {version}")
        return shut

    def drop_waiters(self) -> None:
        """Forget the waiters on every gate and future that never opened, as
        a run that raised leaves them: their callbacks hold this scheduler
        or its executor."""
        for call in self.calls.values():
            for label in call.labels:
                label.gate.waiters.clear()
        for gate, _ in self.session.writes:
            gate.waiters.clear()
        self.store.drop_waiters()

    # -- cancellation support ------------------------------------------------------

    def mark_cancelled(self, call: CallRecord, origin_call: str) -> None:
        """Terminal cancellation because ``origin_call`` failed: cancels the
        result future with that error and withdraws the call's labels at
        once; each label gate opens once the gates of the labels it
        superseded are open."""
        if call.terminal:
            return
        error = ErrorInfo(CANCELLED_DEPENDENCY, f"cancelled because {origin_call} failed", origin_call)
        self.store.cancel(call.result.fid, error)
        self._withdraw(call)

    def _withdraw(self, call: CallRecord) -> None:
        """Release a cancelled call's labels without letting later calls pass
        the labels they superseded.

        The call never writes, so its labels leave the index at once and the
        superseded labels whose owners have not released go back: calls
        admitted from now on gate on those directly. Calls admitted earlier
        wait on them only through this call's labels, so each label's gate,
        like the call's session version, opens once what it replaced is
        open. ``replaced`` is narrowed to those labels, so a later walk
        through this call takes one step.
        """
        call.released = True
        index = self.label_index
        back: dict[int, AccessLabel] = {}
        for label in call.labels:
            index.remove(label)
            found: dict[int, AccessLabel] = {}
            pending = list(label.replaced)
            while pending:
                old = pending.pop()
                owner = self.calls[old.owner]
                if owner.status == CANCELLED_STATUS:
                    pending.extend(old.replaced)
                elif not owner.released:
                    found[old.seq] = old
            label.replaced = list(found.values())
            back.update(found)
        index.restore(list(back.values()))
        for label in call.labels:
            when_all([old.gate for old in label.replaced], lambda gate=label.gate: self._open(gate))
        version = call.session_version
        if version is not None:
            previous = self.session.writes[version - 1][0]
            when_all([previous], lambda: self._end_session_write(version))
        self.pump()
