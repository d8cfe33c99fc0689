"""Clocks driving a run: a deterministic virtual clock and a wall-clock twin.

The virtual clock is a discrete-event queue in abstract time units. Events
fire in (time, insertion sequence) order, time never decreases, and two runs
of the same workload produce identical event orderings, which is what makes
traces byte-reproducible.

The wall clock keeps the same interface but maps one time unit to
``delay_scale`` seconds, fires scheduled work on timer threads, and reports
timestamps back in units so the two modes stay comparable.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable

from .errors import DeadlockError, EmptyQueueError


class ScheduledEvent:
    __slots__ = ("fire_time", "seq", "fn")

    def __init__(self, fire_time: float, seq: int, fn: Callable[[], Any]):
        self.fire_time = fire_time
        self.seq = seq
        self.fn = fn

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.fire_time, self.seq) < (other.fire_time, other.seq)


class VirtualClock:
    """Single-threaded discrete-event clock.

    ``schedule`` enqueues at ``now + delay``; ``advance`` pops the earliest
    event, moves time forward to its fire time, and executes it. Ties fire in
    insertion order. Scheduled events are never withdrawn, so every queued
    event is live and ``pending`` is a constant-time emptiness test.
    """

    is_virtual = True

    def __init__(self, start: float = 0.0):
        self._now = start
        self._queue: list[ScheduledEvent] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    def guard(self):
        return nullcontext()

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
        assert event.fire_time >= self._now
        self._now = event.fire_time
        event.fn()
        return event

    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Fire events until the predicate holds; the queue must not drain first."""
        while not predicate():
            if not self.pending():
                raise DeadlockError("waiting on a condition no queued event can satisfy")
            self.advance()

    def run_until_time(self, target: float) -> None:
        """Fire every event due at or before ``target``, then set now = target."""
        if target < self._now:
            raise ValueError(f"cannot rewind clock from {self._now} to {target}")
        while self._queue and self._queue[0].fire_time <= target:
            self.advance()
        self._now = target

    def run_all(self) -> None:
        while self.pending():
            self.advance()


class WallClock:
    """Real-time clock with the VirtualClock interface.

    One abstract unit lasts ``delay_scale`` seconds. Scheduled work runs on
    timer threads; every handler executes under the guard lock, so state
    mutations stay atomic exactly like in the single-threaded virtual mode.
    """

    is_virtual = False

    def __init__(self, delay_scale: float = 1.0, wait_timeout: float = 30.0):
        if delay_scale <= 0:
            raise ValueError("delay_scale must be positive")
        self._scale = delay_scale
        self._epoch = time.monotonic()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._wait_timeout = wait_timeout
        self._timers: list[threading.Timer] = []

    def now(self) -> float:
        return (time.monotonic() - self._epoch) / self._scale

    def guard(self):
        return self._lock

    def schedule(self, delay: float, fn: Callable[[], Any]) -> threading.Timer:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")

        def fire():
            with self._cond:
                fn()
                self._cond.notify_all()

        timer = threading.Timer(delay * self._scale, fire)
        timer.daemon = True
        self._timers.append(timer)
        timer.start()
        return timer

    def run_until(self, predicate: Callable[[], bool]) -> None:
        # Callers already hold the guard in wall mode; Condition reuses it.
        with self._cond:
            if not self._cond.wait_for(predicate, timeout=self._wait_timeout):
                raise DeadlockError(
                    f"condition not satisfied within {self._wait_timeout}s of wall time"
                )

    def run_until_time(self, target: float) -> None:
        remaining = (target - self.now()) * self._scale
        if remaining > 0:
            time.sleep(remaining)

    def shutdown(self) -> None:
        for timer in self._timers:
            timer.cancel()
