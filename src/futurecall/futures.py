"""Symbolic futures: string placeholders handed out while work is in flight.

A future is identified by ``fut_<n>``; addressing one field of a pending
structured result appends a dotted path, e.g. ``fut_3.fuelLevel``. Field
futures are registered lazily on first reference and resolve automatically by
path extraction once their base future resolves; a field of a failed or
cancelled base takes the base's state as it is.

The store holds only what the model can name: call results and their fields.
Waiting is one primitive, ``Latch``: a ``done`` flag plus waiters, each a
countdown over the latches it waits on that runs its callback when the last
one opens. A future record is a latch that opens on its terminal transition;
the scheduler's access-label and session-version gates are plain latches it
opens itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import (
    EXECUTION_ERROR,
    AlreadyTerminalError,
    ErrorInfo,
    UnknownFutureError,
)

PENDING = "pending"
RESOLVED = "resolved"
FAILED = "failed"
CANCELLED = "cancelled"

FUTURE_ID_RE = re.compile(r"fut_\d+(\.[^.\s]+)*")
_SEGMENT_RE = re.compile(r"[^.\s]+")


@dataclass(slots=True)
class FutureState:
    """Snapshot of a future: pending, or one of three final outcomes. A
    failed or cancelled future's ``error`` names the call that failed."""

    status: str
    value: Any = None
    error: ErrorInfo | None = None

    @property
    def is_terminal(self) -> bool:
        return self.status != PENDING


PENDING_STATE = FutureState(PENDING)


def split_future_id(fid: str) -> tuple[str, str | None]:
    """Split ``fut_3.a.b`` into (``fut_3``, ``a.b``); field part is None for bases."""
    if "." not in fid:
        return fid, None
    base, _, path = fid.partition(".")
    return base, path


def looks_like_future_id(text: str) -> bool:
    # The prefix test settles most strings without the regex.
    return text.startswith("fut_") and FUTURE_ID_RE.fullmatch(text) is not None


def valid_field_path(path: str) -> bool:
    """True when every dotted segment can appear inside a future identifier."""
    segments = path.split(".")
    return all(_SEGMENT_RE.fullmatch(seg) for seg in segments)


def extract_field(value: Any, path: str) -> tuple[bool, Any]:
    """Walk a dotted path through dicts and lists; returns (found, value)."""
    node = value
    for segment in path.split("."):
        if isinstance(node, dict):
            if segment not in node:
                return False, None
            node = node[segment]
        elif isinstance(node, list):
            if not segment.isdigit() or int(segment) >= len(node):
                return False, None
            node = node[int(segment)]
        else:
            return False, None
    return True, node


@dataclass(slots=True)
class _Waiter:
    remaining: int
    callback: Callable[[], None]
    last: bool


class Latch:
    """A one-shot event: ``done`` flips once, and the waiters registered
    before then count it down in registration order. A waiter registered
    with ``last`` runs after the others, when the opening is done."""

    __slots__ = ("done", "waiters")

    def __init__(self):
        self.done = False
        self.waiters: list[_Waiter] = []

    def open(self) -> None:
        if self.done:
            raise AlreadyTerminalError("latch is already open")
        self.done = True
        waiters, self.waiters = self.waiters, []
        late = []
        for waiter in waiters:
            waiter.remaining -= 1
            if waiter.remaining == 0:
                if waiter.last:
                    late.append(waiter.callback)
                else:
                    waiter.callback()
        for callback in late:
            callback()


def when_all(latches: Iterable[Latch], callback: Callable[[], None], last: bool = False) -> None:
    """Invoke ``callback`` exactly once, when every listed latch is open:
    at once if they all are already."""
    pending = [latch for latch in latches if not latch.done]
    if not pending:
        callback()
        return
    waiter = _Waiter(len(pending), callback, last)
    for latch in pending:
        latch.waiters.append(waiter)


class FutureRecord(Latch):
    """One future: a latch that opens on its terminal transition."""

    __slots__ = ("fid", "state", "owner_call")

    def __init__(self, fid: str, owner_call: str | None = None):
        super().__init__()
        self.fid = fid
        self.state = PENDING_STATE
        self.owner_call = owner_call


class FutureStore:
    """The result and field futures of one conversation run.

    Mutations are atomic with respect to each other because the whole runtime
    is single-threaded on either clock: every handler runs on the thread that
    drives the clock.

    ``settled_calls`` lists the owner call of each result future, in the
    order the futures turned terminal; field futures add nothing. A reader
    keeps its own position in it, as the driver's turn boundary does.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._records: dict[str, FutureRecord] = {}
        self._fields: dict[str, list[str]] = {}  # base id -> registered field ids
        self._counter = 0
        self.terminal_count = 0
        self.settled_calls: list[str] = []

    # -- bookkeeping -----------------------------------------------------

    def ids(self) -> list[str]:
        return list(self._records)

    def field_ids(self, base: str) -> list[str]:
        return list(self._fields.get(base, []))

    def pending_ids(self) -> list[str]:
        return [fid for fid, rec in self._records.items() if not rec.done]

    # -- creation --------------------------------------------------------

    def create(self, owner_call: str | None = None) -> str:
        fid = f"fut_{self._counter}"
        self._counter += 1
        self._records[fid] = FutureRecord(fid, owner_call)
        return fid

    def create_field(self, base: str, path: str) -> str:
        """Register (or fetch) the field future ``base.path``.

        The base must already exist. If the base is already terminal the field
        future is settled immediately from the base outcome.
        """
        base_rec = self._records.get(base)
        if base_rec is None:
            raise UnknownFutureError(f"unknown base future {base!r}")
        fid = f"{base}.{path}"
        if fid in self._records:
            return fid
        self._records[fid] = FutureRecord(fid, base_rec.owner_call)
        self._fields.setdefault(base, []).append(fid)
        if base_rec.state.is_terminal:
            self._settle_field(fid, base_rec)
        return fid

    def _settle_field(self, fid: str, base_rec: FutureRecord) -> None:
        _, path = split_future_id(fid)
        state = base_rec.state
        if state.status == RESOLVED:
            found, value = extract_field(state.value, path or "")
            if found:
                self.resolve(fid, value)
            else:
                self.fail(
                    fid,
                    ErrorInfo(
                        EXECUTION_ERROR,
                        f"path not found: {path!r} in result of {base_rec.fid}",
                        base_rec.owner_call,
                    ),
                )
        else:
            self._transition(fid, state)

    # -- lookup ----------------------------------------------------------

    def known(self, fid: str) -> bool:
        """True for registered ids and for field ids whose base is registered."""
        if fid in self._records:
            return True
        base, fpath = split_future_id(fid)
        return fpath is not None and base in self._records

    def owner_of(self, fid: str) -> str | None:
        rec = self._records.get(fid)
        if rec is None:
            base, _ = split_future_id(fid)
            rec = self._records.get(base)
        return rec.owner_call if rec else None

    def _require(self, fid: str) -> FutureRecord:
        rec = self._records.get(fid)
        if rec is None:
            # Lazily materialize field futures of a known base.
            base, fpath = split_future_id(fid)
            if fpath is not None and base in self._records:
                self.create_field(base, fpath)
                return self._records[fid]
            raise UnknownFutureError(f"unknown future {fid!r}")
        return rec

    def state_of(self, fid: str) -> FutureState:
        return self._require(fid).state

    def latch(self, fid: str) -> FutureRecord:
        """The future's record: a latch for ``when_all`` holding its state."""
        return self._require(fid)

    # -- terminal transitions ---------------------------------------------

    def _transition(self, fid: str, state: FutureState) -> None:
        rec = self._require(fid)
        if rec.done:
            raise AlreadyTerminalError(f"{fid} is already {rec.state.status}")
        rec.state = state
        self.terminal_count += 1
        if rec.owner_call is not None and "." not in fid:
            self.settled_calls.append(rec.owner_call)
        rec.open()
        for field_id in self._fields.get(fid, ()):
            if not self._records[field_id].done:
                self._settle_field(field_id, rec)

    def resolve(self, fid: str, value: Any) -> None:
        self._transition(fid, FutureState(RESOLVED, value=value))

    def fail(self, fid: str, error: ErrorInfo) -> None:
        self._transition(fid, FutureState(FAILED, error=error))

    def cancel(self, fid: str, error: ErrorInfo) -> None:
        """Cancel a pending future; ``error`` says which call's failure did."""
        self._transition(fid, FutureState(CANCELLED, error=error))

    # -- waiting -----------------------------------------------------------

    def add_waiter(self, fids: Iterable[str], callback: Callable[[], None]) -> None:
        """Invoke ``callback`` exactly once when every listed future is terminal."""
        records = self._records
        when_all([records.get(fid) or self._require(fid) for fid in fids], callback)

    def drop_waiters(self) -> None:
        """Forget every waiter on a future that never settled, as a run
        that raised leaves them."""
        for rec in self._records.values():
            rec.waiters.clear()

    def wait_for(self, fids: list[str]) -> dict[str, FutureState]:
        """Suspend until every id is terminal; other runnable work proceeds.

        Suspension pumps the clock, so queued executor and scheduler events keep
        firing while this caller waits.
        """
        records = {fid: self._require(fid) for fid in fids}
        if self._clock is not None:
            self._clock.run_until(lambda: all(rec.done for rec in records.values()))
        return {fid: rec.state for fid, rec in records.items()}
