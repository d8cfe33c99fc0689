from __future__ import annotations

import itertools
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import futurecall.scheduler as scheduler_mod

from futurecall import (
    DependencyAnnotation,
    DependencyDag,
    FutureStore,
    VirtualClock,
    critical_path,
    effective_union,
    futurize_output_template,
    scan_future_refs,
    sequential_sum,
    substitute_resolved,
    transform_schema,
)
from futurecall.driver import await_detection_offset
from futurecall.errors import ErrorInfo
from futurecall.executor import Executor, StateStore, ToolBinding, ToolExecutionError
from futurecall.scheduler import (
    ADMITTED,
    DISPATCHED,
    EDGE_KINDS,
    PROPAGATING_EDGE_KINDS,
    READ,
    WRITE,
    Access,
    CallRecord,
    Scheduler,
    SessionState,
    conflicts,
    resolve_paths,
)
from futurecall.schema import AccessDecl, FunctionSchema, ParamSpec
from futurecall.trace import RunTrace

# -- interval properties ------------------------------------------------------

intervals = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 20)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=20,
)


@given(intervals)
def test_union_never_exceeds_sum(ivs):
    assert effective_union(ivs) <= sequential_sum(ivs) + 1e-9


@given(intervals, st.tuples(st.integers(0, 50), st.integers(0, 20)))
def test_union_and_sum_monotone(ivs, extra):
    start, width = extra
    bigger = ivs + [(start, start + width)]
    assert effective_union(bigger) >= effective_union(ivs)
    assert sequential_sum(bigger) >= sequential_sum(ivs)


@given(intervals)
def test_union_invariant_under_permutation(ivs):
    assert effective_union(ivs) == effective_union(list(reversed(ivs)))


# -- conflict predicate properties ------------------------------------------------

paths = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple)
accesses = st.builds(
    Access, path=paths, mode=st.sampled_from([READ, WRITE]), subtree=st.booleans()
)


@given(accesses, accesses)
def test_conflicts_symmetric(a, b):
    assert conflicts(a, b) == conflicts(b, a)


@given(accesses, accesses)
def test_read_read_never_conflicts(a, b):
    if a.mode == READ and b.mode == READ:
        assert not conflicts(a, b)


@given(accesses)
def test_write_self_conflicts(a):
    if a.mode == WRITE:
        assert conflicts(a, a)


@given(accesses)
def test_root_subtree_write_conflicts_with_everything(a):
    root_write = Access((), WRITE, True)
    assert conflicts(root_write, a)


# -- futurize and scan properties ---------------------------------------------------

# Literal strings shaped like future ids are excluded: exact-leaf matching
# makes them indistinguishable from real references by design.
json_value = st.recursive(
    st.one_of(
        st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
        st.text(max_size=6).filter(lambda s: not s.startswith("fut_")),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=4).filter(lambda s: "." not in s), children, max_size=3),
    ),
    max_leaves=12,
)


def shape(node):
    if isinstance(node, dict):
        return {k: shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [shape(v) for v in node]
    return "*"


@settings(max_examples=60)
@given(json_value)
def test_futurize_preserves_shape(template):
    store = FutureStore(VirtualClock())
    base = store.create()
    out = futurize_output_template(template, base, store)
    assert shape(out) == shape(template)


@settings(max_examples=60)
@given(json_value)
def test_substitute_after_resolution_reconstructs_template(template):
    store = FutureStore(VirtualClock())
    base = store.create()
    futurized = futurize_output_template(template, base, store)
    store.resolve(base, template)
    ids = set(scan_future_refs(futurized, store))
    assert substitute_resolved(futurized, store, ids) == template


@given(st.lists(st.integers(0, 1000), max_size=8))
def test_scan_never_reports_unregistered_ids(numbers):
    store = FutureStore(VirtualClock())
    registered = store.create()
    args = {"xs": [f"fut_{n + 1}" for n in numbers], "ok": registered}
    refs = scan_future_refs(args, store)
    assert all(fid == registered for fid in refs)


@settings(max_examples=40)
@given(json_value)
def test_scan_is_pure(args):
    store = FutureStore(VirtualClock())
    before = store.ids()
    scan_future_refs(args, store)
    assert store.ids() == before


# -- schema transformation property ---------------------------------------------------

param_types = st.sampled_from(["string", "number", "integer", "boolean", "array", "object"])


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5).filter(str.isidentifier),
        st.builds(ParamSpec, type=param_types, description=st.text(max_size=10)),
        max_size=4,
    )
)
def test_transform_idempotent_for_any_parameter_map(params):
    schema = FunctionSchema(name="tool", description="d", parameters=params)
    once = transform_schema(schema)
    assert transform_schema(once) == once
    assert all(p.accepts_future for p in once.parameters.values())


# -- version-chain gating against a scan of every unreleased label ----------------

# Segments spelled like an access mode or a missing key must behave as plain
# path segments.
index_paths = st.lists(st.sampled_from(["a", "b", "read", "write", "None"]), max_size=2)
index_accesses = st.lists(
    st.tuples(index_paths, st.sampled_from([READ, WRITE]), st.booleans()), min_size=1, max_size=3
)
# Admissions come three times as often as each other op, and paths are at
# most two deep, so that superseding writes and cancellations of them while
# the superseded calls still run are common.
admit_op = st.tuples(st.just("admit"), index_accesses)
index_ops = st.lists(
    st.one_of(
        admit_op,
        admit_op,
        admit_op,
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("finish"), st.integers(0, 30)),
    ),
    max_size=30,
)


def _scan_edge_kind(producer_mode: str, consumer_mode: str) -> str:
    if producer_mode == WRITE:
        return "gate-raw" if consumer_mode == READ else "gate-waw"
    return "gate-war"


def _covers(write: Access, label: Access) -> bool:
    """The label's region lies inside the write's region."""
    if write.mode != WRITE:
        return False
    if write.path == label.path:
        return write.subtree or not label.subtree
    depth = len(write.path)
    return write.subtree and depth < len(label.path) and label.path[:depth] == write.path


def _reach(edges, kinds) -> dict[str, set[str]]:
    """Consumers reachable from each producer over edges of the given kinds."""
    out: dict[str, set[str]] = {}
    for producer, consumer, kind in edges:
        if kind in kinds:
            out.setdefault(producer, set()).add(consumer)
    changed = True
    while changed:
        changed = False
        for targets in out.values():
            grown = set().union(targets, *(out.get(t, ()) for t in targets))
            if grown != targets:
                targets |= grown
                changed = True
    return out


def _checked_cancel(scheduler: Scheduler, cancel_transitive, failed_call_id: str) -> list[str]:
    """Run ``cancel_transitive(failed_call_id)`` and check its result
    against the walk it replaced: a producer -> consumers map rebuilt from
    every propagating edge in ``scheduler.edges`` when the walk starts,
    walked breadth first, which cancels each call it reaches still live.

    A cancellation can cancel more calls at once (a dispatched call
    awaiting the cancelled future). Each walk cancellation logs those, and
    the reference skips them, as the walk finds them terminal."""
    consumers: dict[str, list[str]] = {}
    for producer, consumer, kind in scheduler.edges:
        if kind in PROPAGATING_EDGE_KINDS:
            consumers.setdefault(producer, []).append(consumer)
    order, seen = [failed_call_id], {failed_call_id}
    for current in order:  # breadth first: the loop reads what it appends
        for consumer in consumers.get(current, []):
            if consumer not in seen:
                seen.add(consumer)
                order.append(consumer)
    reached = order[1:]
    live = {call_id for call_id in reached if not scheduler.calls[call_id].terminal}

    cancellations: list[list[str]] = []  # per walk cancellation, the calls it cancelled
    mark, depth = scheduler.mark_cancelled, [0]

    def logged(call: CallRecord, origin_call: str) -> None:
        if not depth[0]:
            cancellations.append([])
        if not call.terminal:
            cancellations[-1].append(call.call_id)
        depth[0] += 1
        try:
            mark(call, origin_call)
        finally:
            depth[0] -= 1

    scheduler.mark_cancelled = logged
    try:
        result = cancel_transitive(failed_call_id)
    finally:
        del scheduler.mark_cancelled
    expected: list[str] = []
    gone: set[str] = set()
    steps = iter(cancellations)
    for call_id in reached:
        if call_id in live and call_id not in gone:
            expected.append(call_id)
            gone.update(next(steps, ()))
    assert result == expected, (failed_call_id, result, expected)
    return result


@given(index_ops, st.lists(st.integers(0, 20), min_size=31, max_size=31))
@example(  # C1 supersedes C0's read and is cancelled while C0 runs; C2 waits on C1
    [
        ("admit", [(["a"], READ, False)]),
        ("admit", [(["a"], WRITE, False)]),
        ("admit", [(["a"], WRITE, False)]),
        ("cancel", 0),
    ],
    [1] * 31,
)
@example(  # C1 supersedes C0's write and is cancelled; C3 reads what C0 writes
    [
        ("admit", [(["a"], WRITE, False)]),
        ("admit", [(["a"], WRITE, False)]),
        ("cancel", 0),
        ("admit", [(["a"], READ, False)]),
    ],
    [1] * 31,
)
@settings(max_examples=200, deadline=None)
def test_blocking_gates_reduce_a_scan_of_unreleased_labels(ops, durations):
    """Gating on the last writer and the readers since keeps the happens-
    before order of gating on every conflicting label of a call that is not
    terminal: the same transitive closure over every edge kind and the same
    critical path. A call escapes a failure the scan would cancel it for
    only when a call that is not cancelled wrote in between.
    No call dispatches while an earlier conflicting call is not terminal.

    "cancel" cancels a live call, one not yet dispatched where there is
    one, and what depends on it, as a failure does; "finish" completes a
    dispatched call."""
    clock = VirtualClock()
    store = FutureStore(clock)
    session = SessionState()
    scheduler = Scheduler(store, session, clock)
    executor = Executor(store, scheduler, clock, {}, StateStore(), RunTrace(mode="async-parallel"))
    calls: list[CallRecord] = []

    def dispatch(call: CallRecord) -> None:
        for earlier in calls[: calls.index(call)] if call in calls else calls:
            assert earlier.terminal or not any(
                conflicts(a.access, b.access) for a in earlier.labels for b in call.labels
            ), (earlier.call_id, call.call_id)
        call.dispatched_at = clock.now()

    scheduler.on_dispatch = dispatch
    scan_edges: set[tuple[str, str, str]] = set()
    for n, (op, arg) in enumerate(ops):
        live = [c for c in calls if not c.terminal]
        if op == "cancel":
            pick = [c for c in live if c.status == ADMITTED] or live
            if pick:
                victim = pick[arg % len(pick)]
                scheduler.mark_cancelled(victim, "origin")
                _checked_cancel(scheduler, executor.cancel_transitive, victim.call_id)
            continue
        if op == "finish":
            running = [c for c in live if c.status == DISPATCHED]
            if running:
                call = running[arg % len(running)]
                store.resolve(call.result.fid, {})
                scheduler.release(call)
            continue
        decls = {READ: [], WRITE: []}
        for segments, mode, subtree in arg:
            decls[mode].append(AccessDecl("/" + "/".join(segments), subtree))
        annotation = DependencyAnnotation(reads=decls[READ], writes=decls[WRITE])
        call = CallRecord(call_id=f"C{n}", tool="t", args={}, annotation=annotation)
        accesses = resolve_paths(annotation, {}, session, store)

        # The reference: every label of a call that is not terminal.
        unreleased = [lab for c in calls if not c.terminal for lab in c.labels]
        gates: set[str] = set()
        edges: set[tuple[str, str, str]] = set()
        for label in unreleased:
            for access in accesses:
                if conflicts(label.access, access):
                    gates.add(label.gate)
                    edges.add((label.owner, call.call_id, _scan_edge_kind(label.access.mode, access.mode)))
        indexed = scheduler.live_labels
        assert [lab.seq for lab in indexed] == sorted(lab.seq for lab in indexed)
        assert {lab.seq for lab in indexed} <= {lab.seq for lab in unreleased}
        assert {lab.seq for lab in indexed} >= {
            lab.seq
            for lab in unreleased
            if not any(
                w.seq > lab.seq and w.owner != lab.owner and _covers(w.access, lab.access)
                for w in unreleased
            )
        }
        before = len(scheduler.edges)
        scheduler.submit(call)
        calls.append(call)
        assert call.blocking_gates <= gates
        assert set(scheduler.edges[before:]) <= edges
        scan_edges |= edges

    new_edges = [tuple(e) for e in scheduler.edges]
    new_all = _reach(new_edges, EDGE_KINDS)
    assert new_all == _reach(scan_edges, EDGE_KINDS)
    new_default = _reach(new_edges, PROPAGATING_EDGE_KINDS)
    scan_default = _reach(scan_edges, PROPAGATING_EDGE_KINDS)
    cancelled = {c.call_id for c in calls if c.status == "cancelled"}
    for producer, consumers in scan_default.items():
        assert new_default.get(producer, set()) <= consumers
        for escaped in consumers - new_default.get(producer, set()) - cancelled:
            # Some call ordered after the producer, never cancelled, wrote
            # what the escaped call reads.
            assert any(
                escaped in new_default.get(writer, ()) for writer in new_all[producer] - cancelled
            ), (producer, escaped)
    weights = {c.call_id: float(durations[int(c.call_id[1:])]) for c in calls}
    assert critical_path(DependencyDag(weights, [e[:2] for e in new_edges])) == critical_path(
        DependencyDag(weights, [e[:2] for e in scan_edges])
    )


# -- trace lines ----------------------------------------------------------------

any_text = st.text(st.characters(exclude_categories=()))  # lone surrogates too
event_times = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
)


@given(st.lists(st.tuples(event_times, event_times, any_text, any_text, st.integers()), max_size=8))
@example([(-0.0, 5e-324, "exec", '"\\\n\x00\ud800é', 3), (1e300, math.nan, "d", "", -1)])
@example([(math.inf, 7, "integrate", "b0", 10**30), (0, 1, "decode", "turn1", True)])
def test_event_lines_are_canonical_json(events):
    trace = RunTrace(mode="async-parallel")
    for t0, t1, kind, event_id, turn in events:
        trace.record(t0, t1, kind, event_id, turn)
    lines = trace.to_jsonl().split("\n")
    assert lines[: len(events)] == [
        json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) for e in trace.events
    ]


# -- await detection ---------------------------------------------------------------


def quadratic_await_detection_offset(tokens, decode_time):
    """The earlier form of ``await_detection_offset``, kept as the
    reference: it grows the text a token at a time and searches it again
    from the start after each one."""
    if not tokens:
        return decode_time
    text = ""
    for token, offset in tokens:
        text += token
        name_at = text.find("await_future")
        if name_at < 0:
            continue
        open_at = text.find("[", name_at)
        if open_at < 0:
            continue
        if text.find("]", open_at) >= 0:
            return min(offset, decode_time)
    return decode_time


@st.composite
def await_timelines(draw):
    """Token timelines cut at arbitrary points (tokens may be empty) from
    text that mostly holds the await name, ``[`` and ``]`` in that order,
    with noise around them that may repeat or split any of them."""
    noise = st.lists(st.sampled_from(["await_", "future", "[", "]", '"fut_0"', " "]), max_size=3)
    parts = ["".join(draw(noise))]
    for mark in ("await_future", "[", "]"):
        parts += [mark if draw(st.integers(0, 3)) else "", "".join(draw(noise))]
    text = "".join(parts)
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    tokens = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    steps = draw(st.lists(st.floats(0, 0.25), min_size=len(tokens), max_size=len(tokens)))
    return list(zip(tokens, itertools.accumulate(steps)))


@settings(max_examples=400)
@given(await_timelines(), st.floats(0.01, 3))
@example([("await_future([", 0.3)], 1.0)
@example([("]", 0.1), ("await_future", 0.2), ("[", 0.3), ("x]", 0.4)], 0.35)
def test_await_detection_offset_matches_the_token_by_token_search(tokens, decode_time):
    assert await_detection_offset(tokens, decode_time) == quadratic_await_detection_offset(tokens, decode_time)


# -- scheduler and executor as a state machine ------------------------------------------

_MACHINE_PATHS = ["/a", "/a/b", "/c", "/f/{name}", "$session/cwd/x"]


def _uses_session(call: CallRecord) -> bool:
    return call.annotation.session_read or call.annotation.session_write


class SchedulerMachine(RuleBasedStateMachine):
    """Calls submitted, run, failed and cancelled in any order, with path
    templates fed by pending futures and session reads behind writes.

    Every dispatch finds the call's gates open and no earlier call it
    conflicts with still live, on a path or on the session; a blocked head
    registers one waiter per pending input; outside a pass the queue head,
    if any, is blocked on an input still pending; at drain every call is
    terminal, every gate is open and no future is pending."""

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.store = FutureStore(self.clock)
        self.session = SessionState(bindings={"cwd": "/s"})
        self.scheduler = Scheduler(self.store, self.session, self.clock)
        self.doomed: set[str] = set()
        tool = ToolBinding(behavior=self._behave, latency=[1, 2, 1, 3, 2, 2, 1, 3])
        self.executor = Executor(
            self.store, self.scheduler, self.clock, {"t": tool}, StateStore(), RunTrace(mode="async-parallel")
        )
        # Every walk, from a failure or from the cancel rule, is checked.
        cancel = self.executor.cancel_transitive
        self.executor.cancel_transitive = lambda call_id: _checked_cancel(self.scheduler, cancel, call_id)
        dispatch = self.scheduler.on_dispatch

        def checked_dispatch(call: CallRecord) -> None:
            assert all(gate.done for gate in call.blocking_gates), call.call_id
            for earlier in self.calls[: self.calls.index(call)]:
                assert earlier.terminal or not (
                    any(conflicts(a.access, b.access) for a in earlier.labels for b in call.labels)
                    or (earlier.session_version is not None and _uses_session(call))
                ), (earlier.call_id, call.call_id)
            dispatch(call)

        self.scheduler.on_dispatch = checked_dispatch
        self.calls: list[CallRecord] = []
        self.external: list[str] = []  # futures no call produces
        self.head_waits: set[tuple[str, int]] = set()
        self._when_all = scheduler_mod.when_all
        scheduler_mod.when_all = self._record_when_all

    def _record_when_all(self, latches, callback, last=False):
        if last:  # the head's waiter on its pending input
            (latch,) = latches
            head = self.scheduler.queue[0].call_id
            assert not latch.done
            assert (head, id(latch)) not in self.head_waits, head
            self.head_waits.add((head, id(latch)))
        return self._when_all(latches, callback, last)

    def _behave(self, args, invocation, state):
        if args["who"] in self.doomed:
            raise ToolExecutionError("doomed")
        return {"id": f"v{invocation}", "cwd": f"/s{invocation}"}

    def teardown(self):
        try:
            for fid in self.external:
                if not self.store.state_of(fid).is_terminal:
                    self.store.resolve(fid, "late")
            self.clock.run_until(lambda: not self.clock.pending())
            self.drained_runs_leave_nothing_shut()
        finally:
            scheduler_mod.when_all = self._when_all

    @rule(
        reads=st.lists(st.sampled_from(_MACHINE_PATHS), max_size=2),
        writes=st.lists(st.sampled_from(_MACHINE_PATHS), max_size=2),
        subtree=st.booleans(),
        session_write=st.booleans(),
        name_from=st.integers(0, 40),
        arg_from=st.integers(0, 40),
    )
    def submit(self, reads, writes, subtree, session_write, name_from, arg_from):
        n = len(self.calls)
        sources = [c.result.fid for c in self.calls] + self.external
        args: dict = {"who": f"C{n}", "name": "lit"}
        if sources and name_from < 30:
            source = sources[name_from % len(sources)]
            if self.store.owner_of(source) is not None:
                source = self.store.create_field(source, "id")
            args["name"] = source
        if sources and arg_from < 15:
            args["x"] = sources[arg_from % len(sources)]
        paths = reads + writes
        annotation = DependencyAnnotation(
            reads=[AccessDecl(p, subtree) for p in reads],
            writes=[AccessDecl(p, subtree) for p in writes],
            session_read=any(p.startswith("$") for p in paths),
            session_write=session_write,
        )
        call = CallRecord(call_id=f"C{n}", tool="t", args=args, annotation=annotation, invocation_index=n)
        self.calls.append(call)
        self.scheduler.submit(call)

    @rule()
    def new_external(self):
        self.external.append(self.store.create())

    @rule(pick=st.integers(0, 40), fail=st.booleans())
    def settle_external(self, pick, fail):
        pending = [fid for fid in self.external if not self.store.state_of(fid).is_terminal]
        if pending:
            fid = pending[pick % len(pending)]
            if fail:
                self.store.fail(fid, ErrorInfo("execution-error", "external", None))
            else:
                self.store.resolve(fid, f"e{pick}")

    @rule()
    def step(self):
        if self.clock.pending():
            self.clock.advance()

    @rule(pick=st.integers(0, 40))
    def doom(self, pick):
        self.doomed.add(f"C{pick}")

    @rule(pick=st.integers(0, 40))
    def cancel(self, pick):
        live = [c for c in self.calls if not c.terminal]
        if live:
            victim = live[pick % len(live)]
            self.scheduler.mark_cancelled(victim, victim.call_id)
            self.executor.cancel_transitive(victim.call_id)

    @invariant()
    def head_is_blocked_on_a_pending_input(self):
        queue = self.scheduler.queue
        if queue and not queue[0].terminal:
            wait = self.scheduler._head_wait
            assert wait is not None and not wait.done
        assert self.scheduler._ready == []

    @invariant()
    def drained_runs_leave_nothing_shut(self):
        if self.clock.pending() or any(
            not self.store.state_of(fid).is_terminal for fid in self.external
        ):
            return
        assert all(c.terminal for c in self.calls), [c.call_id for c in self.calls if not c.terminal]
        assert self.scheduler.unopened_gates() == []
        assert self.store.pending_ids() == []


SchedulerMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
test_scheduler_state_machine = SchedulerMachine.TestCase


def test_scheduler_machine_fixed_run():
    """The machine's rules in one fixed order: C1 supersedes C0's read and
    is cancelled while C0 runs, so C2, which waits on C1 alone, must still
    wait for C0; H's path waits on C1's result, whose cancellation cancels
    H at the head of the queue."""
    machine = SchedulerMachine()
    try:
        machine.submit(reads=["/a"], writes=[], subtree=False, session_write=False, name_from=40, arg_from=40)
        machine.submit(reads=[], writes=["/a"], subtree=False, session_write=True, name_from=40, arg_from=40)
        machine.submit(reads=[], writes=["/a"], subtree=False, session_write=False, name_from=40, arg_from=40)
        machine.submit(reads=[], writes=["/f/{name}"], subtree=False, session_write=False, name_from=1, arg_from=40)
        machine.head_is_blocked_on_a_pending_input()
        machine.cancel(pick=1)
        c0, c1, c2, h = machine.calls
        assert (c1.status, c2.status, h.status) == ("cancelled", "admitted", "cancelled")
        machine.step()
        assert c0.status == "done" and c2.status != "admitted"
        machine.drained_runs_leave_nothing_shut()
    finally:
        machine.teardown()
