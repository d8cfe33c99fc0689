"""Span tracing for the benchmark's traced run, recorded from outside the program.

``traced(tracer)`` wraps each layer's entry points for the duration of a
``with`` block and restores the originals afterwards. A span has a name
(``<layer>.<entry point>``), a start, an end and a parent; spans nest per
thread. A span's self time is its duration minus the time its child spans
cover, so on one thread the self times of all spans under a root add up to
the root's duration exactly. Counters sit at the same boundaries where a span
per call would cost more than the work it measures. On the wall clock the
program runs its timer callbacks under its own guard lock, which serialises
the counters; span bookkeeping takes the tracer's lock, since the main
thread closes spans while it sleeps outside that guard.

Functions bound by module-level name are patched where they are looked up,
not where they are defined. ``Executor.dispatch`` is patched on the class
before any driver exists, since ``Executor.__init__`` binds it into
``scheduler.on_dispatch``; the store observer looks ``self.pump`` up at call
time, so wrapping ``Scheduler.pump`` on the class is enough.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import futurecall.analysis as analysis_mod
import futurecall.driver as driver_mod
import futurecall.executor as executor_mod
import futurecall.scheduler as scheduler_mod
from futurecall.clock import VirtualClock, WallClock
from futurecall.driver import TurnDriver
from futurecall.executor import Executor
from futurecall.futures import FutureStore
from futurecall.scheduler import Scheduler
from futurecall.trace import RunTrace

OBSERVED_COUNTS = (
    "created",
    "transitions",
    "edges",
    "gate_edges",
    "events",
    "turns",
    "integrations",
    "cancelled",
)
OBSERVED_WAITS = ("admit_wait", "gate_wait", "arg_wait")

LAYERS = (
    "clock",
    "futures",
    "scheduler",
    "executor",
    "driver",
    "schema",
    "workload",
    "trace",
    "analysis",
)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, t0, t1, parent, thread
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans of a name only
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self.drivers: list = []  # TurnDrivers of the conversation being traced
        self.observed: dict = {k: 0 for k in OBSERVED_COUNTS}
        self.observed.update({k: [] for k in OBSERVED_WAITS})
        self.keep_spans = True
        self._local = threading.local()
        # Wall-clock timer threads close spans while the main thread sleeps.
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        index = -1
        if self.keep_spans:
            parent = stack[-1][3] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
        frame = [name, 0.0, 0.0, index]  # name, start, child time, span index
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, index = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        outermost = not any(f[0] == name for f in stack)
        with self._lock:
            if index >= 0:
                _, _, _, parent, thread = self.spans[index]
                self.spans[index] = (name, start, end, parent, thread)
            self.self_s[name] += duration - child
            if outermost:
                self.total_s[name] += duration

    @contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observe(self, trace) -> None:
        """Fold in one finished conversation's counts and virtual waits.

        Waits come from each call's lifecycle stamps: admission (submitted to
        admitted), gates (admitted to dispatched) and arguments (dispatched
        to execution start).
        """
        obs = self.observed
        for drv in self.drivers:
            for call in drv.calls.values():
                if call.admitted_at is not None:
                    obs["admit_wait"].append(call.admitted_at - call.submitted_at)
                    if call.dispatched_at is not None:
                        obs["gate_wait"].append(call.dispatched_at - call.admitted_at)
                if call.dispatched_at is not None and call.exec_start is not None:
                    obs["arg_wait"].append(call.exec_start - call.dispatched_at)
            obs["created"] += len(drv.store.ids())
            obs["transitions"] += drv.store.terminal_count
            obs["edges"] += len(drv.scheduler.edges)
            obs["gate_edges"] += sum(1 for e in drv.scheduler.edges if e.kind.startswith("gate-"))
        self.drivers.clear()
        obs["events"] += len(trace.events)
        obs["turns"] += sum(1 for e in trace.events if e.kind == "decode")
        obs["integrations"] += sum(1 for e in trace.events if e.kind == "integrate")
        obs["cancelled"] += sum(1 for s in trace.call_status.values() if s == "cancelled")

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.partition(".")[0]] += seconds
        return out

    def write_jsonl(self, path: str) -> None:
        """One span per line: [name, start_us, end_us, parent index, thread]."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, thread in self.spans:
                fh.write(
                    json.dumps([name, round((t0 - origin) * 1e6, 3), round((t1 - origin) * 1e6, 3), parent, thread])
                )
                fh.write("\n")


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    t = tracer
    out = []

    def span(owner, attr, name):
        out.append((owner, attr, t.wrap(name, getattr(owner, attr))))

    # clock
    def sampled_schedule(fn, name):
        wrapped = t.wrap(name, fn)

        @functools.wraps(fn)
        def schedule(self, delay, callback):
            threads = threading.active_count()
            if threads > t.peaks["clock.wall_threads_peak"]:
                t.peaks["clock.wall_threads_peak"] = threads
            return wrapped(self, delay, callback)

        return schedule

    for clock in (VirtualClock, WallClock):
        out.append((clock, "schedule", sampled_schedule(clock.schedule, "clock.schedule")))
        span(clock, "run_until", "clock.run_until")
        span(clock, "run_until_time", "clock.run_until_time")
    out.append((VirtualClock, "advance", t.count("clock.events", t.wrap("clock.advance", VirtualClock.advance))))
    span(VirtualClock, "pending", "clock.pending")

    # futures
    for attr in ("create", "create_field", "resolve", "fail", "cancel", "add_waiter", "wait_for"):
        span(FutureStore, attr, f"futures.{attr}")
    out.append((FutureStore, "state_of", t.count("futures.state_of_calls", FutureStore.state_of)))

    # scheduler
    out.append((Scheduler, "pump", t.count("scheduler.pump_calls", t.wrap("scheduler.pump", Scheduler.pump))))
    for attr in ("submit", "try_admit", "release", "mark_cancelled"):
        span(Scheduler, attr, f"scheduler.{attr}")
    blocking = t.wrap("scheduler.blocking_gates", Scheduler.blocking_gates)

    @functools.wraps(Scheduler.blocking_gates)
    def blocking_gates(self, call, accesses):
        live = len(self.live_labels)
        if live > t.peaks["scheduler.live_labels_peak"]:
            t.peaks["scheduler.live_labels_peak"] = live
        return blocking(self, call, accesses)

    out.append((Scheduler, "blocking_gates", blocking_gates))
    out.append((scheduler_mod, "conflicts", t.count("scheduler.conflict_checks", scheduler_mod.conflicts)))

    # executor
    out.append((Executor, "dispatch", t.count("executor.dispatches", t.wrap("executor.dispatch", Executor.dispatch))))
    for attr in ("_on_arguments_ready", "_complete", "cancel_transitive"):
        span(Executor, attr, f"executor.{attr.lstrip('_')}")

    # driver
    init = t.wrap("driver.init", TurnDriver.__init__)
    run = t.wrap("driver.run", TurnDriver.run)

    @functools.wraps(TurnDriver.run)
    def driver_run(self):
        t.drivers.append(self)
        return run(self)

    out.append((TurnDriver, "__init__", init))
    out.append((TurnDriver, "run", driver_run))

    # schema, patched where the other layers look it up
    span(scheduler_mod, "scan_future_refs", "schema.scan")
    span(executor_mod, "substitute_resolved", "schema.substitute")
    span(driver_mod, "futurize_output_template", "schema.futurize")

    # workload: tool bindings are built per conversation
    span(driver_mod, "build_tool_bindings", "workload.bindings")

    # trace and analysis
    span(RunTrace, "to_jsonl", "trace.to_jsonl")
    span(analysis_mod, "trace_to_inputs", "analysis.trace_to_inputs")
    span(analysis_mod, "savings_decomposition", "analysis.savings_decomposition")
    span(analysis_mod, "critical_path", "analysis.critical_path")
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers; restore every original on exit."""
    patches = _patches(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
