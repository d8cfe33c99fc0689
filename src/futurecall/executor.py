"""Workers that run dispatched calls and propagate failures.

Each dispatched call gets an independent worker. A call without argument
futures goes straight from dispatched to running, with no waiter, and hands
its tool behavior a plain copy of its arguments. Any other call first awaits
the argument futures the scheduler recorded at submission; that wait is
non-blocking, so a call parked on its arguments never delays other
dispatchable calls. Exactly the recorded ids are then substituted by their
values: a string leaf that only became a known future id after submission
stays literal text, as it does in a sync run. The behavior runs across its
latency interval, the result future is fulfilled (or failed), the call's
access labels are released, and the execution interval lands in the run
trace.

When a call fails, every call transitively dependent on it is cancelled, its
result future carrying an error that names the failed call, and independent
calls are left untouched. Cancellation follows argument-future and
read-after-write edges recorded before the failure's walk starts; a call the
walk's own cancellations admit is not reached. A blind overwrite of a failed
call's region does not consume the failed effect, and a serial run executes
it. A reader admitted after a later writer gates on that writer alone, so a
failed write's effect stops where the region was overwritten; a writer
cancelled before it ran overwrote nothing, and readers admitted after its
cancellation gate on the writers it superseded again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .errors import EXECUTION_ERROR, ErrorInfo, GatesPendingError
from .futures import FutureStore
from .scheduler import (
    DISPATCHED,
    DONE,
    FAILED as CALL_FAILED,
    PROPAGATING_EDGE_KINDS,
    RUNNING,
    CallRecord,
    Scheduler,
)
from .schema import DependencyAnnotation, FunctionSchema, copy_json, substitute_resolved


class ToolExecutionError(Exception):
    """Raised by a tool behavior to signal its own failure."""


class StateStore:
    """Mock backend state addressed by rendered resource paths."""

    def __init__(self, initial: dict[str, Any] | None = None):
        self._data: dict[str, Any] = dict(initial or {})

    def read(self, path: str, subtree: bool = False) -> Any:
        if not subtree:
            return self._data.get(path)
        prefix = path.rstrip("/")
        return {
            p: v
            for p, v in self._data.items()
            if p == path or p.startswith(prefix + "/") or prefix == ""
        }

    def write(self, path: str, value: Any) -> None:
        self._data[path] = value

    def snapshot(self) -> dict[str, Any]:
        return {p: self._data[p] for p in sorted(self._data)}


@dataclass
class ToolBinding:
    """A registered tool: schema, annotation, latency model and behavior.

    ``behavior(args, invocation_index, state)`` must be deterministic for a
    given argument set and invocation index; that is what makes replays exact.
    The latency model is either one fixed delay or a nonempty per-invocation
    list (the last entry repeats).
    """

    behavior: Callable[[dict, int, StateStore], Any]
    latency: float | list[float] = 0.0
    schema: FunctionSchema | None = None
    annotation: DependencyAnnotation | None = None
    invocations: int = 0

    def latency_for(self, invocation_index: int) -> float:
        if isinstance(self.latency, list):
            return float(self.latency[min(invocation_index, len(self.latency) - 1)])
        return float(self.latency)

    def next_invocation(self) -> int:
        index = self.invocations
        self.invocations += 1
        return index


class Executor:
    """Runs dispatched calls on logical workers and handles failure fallout.

    Building one binds its ``dispatch`` into ``scheduler.on_dispatch``.
    ``on_exec_interval(call)`` is the exec hook, called once a call's
    execution interval is stamped (done or failed); the driver passes a
    function of its trace, not of itself, so the executor holds no
    reference back to the driver.
    """

    def __init__(
        self,
        store: FutureStore,
        scheduler: Scheduler,
        clock,
        tools: dict[str, ToolBinding],
        state: StateStore,
        on_exec_interval: Callable[[CallRecord], None] | None = None,
    ):
        self.store = store
        self.scheduler = scheduler
        self.clock = clock
        self.tools = tools
        self.state = state
        self._consumers: dict[str, list[str]] = {}  # producer -> consumers in scheduler.edges[:_indexed]
        self._indexed = 0
        self.on_exec_interval = on_exec_interval or (lambda call: None)
        scheduler.on_dispatch = self.dispatch

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, call: CallRecord) -> None:
        """Dispatch a call whose gates are open. One without argument
        futures starts running at once, on a copy of its arguments."""
        if call.terminal:
            return
        shut = sum(1 for gate in call.blocking_gates if not gate.done)
        if shut:
            raise GatesPendingError(f"{call.call_id}: {shut} blocking gates still shut")
        call.advance_status(DISPATCHED)
        now = call.dispatched_at = self.clock.now()
        if call.argument_futures:
            self.store.add_waiter(sorted(call.argument_futures), lambda: self._on_arguments_ready(call))
        else:
            self._start(call, copy_json(call.args), now)

    def _on_arguments_ready(self, call: CallRecord) -> None:
        if call.terminal:
            return
        fids = call.argument_futures
        for fid in sorted(fids):
            error = self.store.state_of(fid).error
            if error is not None:
                # The producing call failed upstream; this call consumes it.
                self.scheduler.mark_cancelled(call, error.origin_call)
                return
        try:
            concrete = substitute_resolved(call.args, self.store, fids)
        except Exception as exc:  # substitution failure surfaces as the call's failure
            self._fail(call, ErrorInfo(EXECUTION_ERROR, str(exc), call.call_id))
            return
        self._start(call, concrete, self.clock.now())

    def _start(self, call: CallRecord, concrete: Any, now: float) -> None:
        """Run the call's behavior across its latency interval from ``now``."""
        call.advance_status(RUNNING)
        call.exec_start = now
        latency = self.tools[call.tool].latency_for(call.invocation_index)
        self.clock.schedule(latency, lambda: self._complete(call, concrete))

    def invoke(self, call: CallRecord, args: Any) -> tuple[Any, ErrorInfo | None]:
        """Run the call's tool behavior; any exception it raises becomes the
        call's execution error instead of escaping the run."""
        try:
            return self.tools[call.tool].behavior(args, call.invocation_index, self.state), None
        except ToolExecutionError as exc:
            return None, ErrorInfo(EXECUTION_ERROR, str(exc), call.call_id)
        except Exception as exc:
            return None, ErrorInfo(EXECUTION_ERROR, f"{type(exc).__name__}: {exc}", call.call_id)

    def _complete(self, call: CallRecord, concrete_args: dict) -> None:
        if call.terminal:
            return
        call.exec_end = self.clock.now()
        value, error = self.invoke(call, concrete_args)
        if error is not None:
            self._fail(call, error)
            return
        call.advance_status(DONE)
        self.on_exec_interval(call)
        self.store.resolve(call.result_future, value)
        self.scheduler.release(call)

    def _fail(self, call: CallRecord, error: ErrorInfo) -> None:
        call.advance_status(CALL_FAILED)
        if call.exec_end is None:
            call.exec_end = self.clock.now()
        self.on_exec_interval(call)
        self.store.fail(call.result_future, error)
        # Cancel dependents before releasing labels so nothing downstream of
        # the failed effect gets dispatched when the gates open.
        self.cancel_transitive(call.call_id)
        self.scheduler.release(call)

    # -- failure propagation -----------------------------------------------------

    def cancel_transitive(self, failed_call_id: str) -> list[str]:
        """Cancel every call transitively dependent on the failed one.

        Walks the propagating edges recorded before it starts, breadth first;
        each walk first indexes the edges recorded since the last, so each
        edge is indexed once. Returns cancelled call ids in cancellation order.
        """
        consumers, edges = self._consumers, self.scheduler.edges
        for producer, consumer, kind in edges[self._indexed :]:
            if kind in PROPAGATING_EDGE_KINDS:
                consumers.setdefault(producer, []).append(consumer)
        self._indexed = len(edges)
        cancelled: list[str] = []
        seen = {failed_call_id}
        frontier = deque([failed_call_id])
        while frontier:
            current = frontier.popleft()
            for consumer_id in consumers.get(current, []):
                if consumer_id in seen:
                    continue
                seen.add(consumer_id)
                victim = self.scheduler.calls[consumer_id]
                if not victim.terminal:
                    self.scheduler.mark_cancelled(victim, failed_call_id)
                    cancelled.append(consumer_id)
                frontier.append(consumer_id)
        return cancelled
