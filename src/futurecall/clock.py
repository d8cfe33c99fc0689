"""Clocks driving a run: a deterministic virtual clock and a wall-clock twin.

Both fire one discrete-event queue in abstract time units, in (time, insertion
sequence) order, and run every handler on the thread that drives the clock, so
the runtime needs no locks. Time never decreases, and two virtual-clock runs
of one workload fire identical orderings, which makes traces byte-reproducible.
The clocks differ only where time moves: the virtual clock jumps to the next
event, the wall clock (one unit lasts ``delay_scale`` seconds) sleeps until the
event falls due.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, Callable, NamedTuple

from .errors import DeadlockError, EmptyQueueError


class ScheduledEvent(NamedTuple):
    fire_time: float
    seq: int  # unique, so ties on time fire in insertion order and fn is never compared
    fn: Callable[[], Any]


class VirtualClock:
    """Single-threaded discrete-event clock.

    ``schedule`` enqueues at ``now + delay``; ``advance`` pops the earliest
    event, moves time forward to its fire time, and executes it. Ties fire in
    insertion order. Scheduled events are never withdrawn, so every queued
    event is live and ``pending`` is a constant-time emptiness test.
    """

    is_virtual = True
    _now = 0.0  # set on the instance once time first moves

    def __init__(self):
        self._queue: list[ScheduledEvent] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    def _advance_to(self, target: float) -> None:
        """The one step where time moves: the virtual clock jumps."""
        if target < self._now:
            raise ValueError(f"cannot rewind clock from {self._now} to {target}")
        self._now = target

    def schedule(self, delay: float, fn: Callable[[], Any]) -> ScheduledEvent:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = ScheduledEvent(self._now + delay, next(self._seq), fn)
        heapq.heappush(self._queue, event)
        return event

    def pending(self) -> bool:
        return bool(self._queue)

    def advance(self) -> ScheduledEvent:
        """Fire the single earliest pending event."""
        if not self._queue:
            raise EmptyQueueError("advance() on an empty event queue")
        event = heapq.heappop(self._queue)
        self._advance_to(event.fire_time)
        event.fn()
        return event

    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Fire events until the predicate holds; the queue must not drain first."""
        while not predicate():
            if not self.pending():
                raise DeadlockError("waiting on a condition no queued event can satisfy")
            self.advance()

    def run_until_time(self, target: float) -> None:
        """Fire every event due at or before ``target``, then move time to it."""
        while self._queue and self._queue[0].fire_time <= target:
            self.advance()
        self._advance_to(target)

    def run_all(self) -> None:
        while self.pending():
            self.advance()


class WallClock(VirtualClock):
    """The virtual clock's queue, fired in real time.

    One abstract unit lasts ``delay_scale`` seconds and ``now`` reads real
    time in units. Where the virtual clock jumps, this clock sleeps until the
    event's wall time; an event already overdue fires at once, so the ordering
    is the virtual clock's. Every handler runs on the calling thread.
    """

    is_virtual = False

    # bench/tracing.py wraps these per class and restores them from the
    # class's own ``__dict__``, so they are named here, not only inherited.
    schedule = VirtualClock.schedule
    run_until = VirtualClock.run_until
    run_until_time = VirtualClock.run_until_time

    def __init__(self, delay_scale: float = 1.0):
        if not 0 < delay_scale < math.inf:  # nan fails both comparisons
            raise ValueError(f"delay_scale must be finite and positive, got {delay_scale!r}")
        super().__init__()
        self._scale = delay_scale
        self._epoch = time.monotonic()

    @property
    def _now(self) -> float:
        return (time.monotonic() - self._epoch) / self._scale

    def _advance_to(self, target: float) -> None:
        delay = (target - self._now) * self._scale
        if delay > 0:
            time.sleep(delay)

    def run_alongside(self, fn: Callable[[], Any]) -> Any:
        """Return ``fn()``, run on a helper thread while this thread fires
        events as they fall due, or re-raise what it raised. ``fn`` must touch
        no run state: handlers run on this thread only, so no lock is needed."""
        import threading

        outcome: list[tuple[Any, BaseException | None]] = []

        def work() -> None:
            try:
                outcome.append((fn(), None))
            except BaseException as exc:  # re-raised on the calling thread
                outcome.append((None, exc))

        helper = threading.Thread(target=work, daemon=True)
        helper.start()
        while helper.is_alive():
            due = self._queue[0].fire_time if self._queue else None
            if due is not None and due <= self._now:
                self.advance()
            else:
                helper.join(None if due is None else (due - self._now) * self._scale)
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    def shutdown(self) -> None:
        """Drop the queued events, which a run that raised leaves behind."""
        self._queue.clear()
