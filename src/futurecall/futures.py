"""Symbolic futures: string placeholders handed out while work is in flight.

A future is identified by ``fut_<n>``; addressing one field of a pending
structured result appends a dotted path, e.g. ``fut_3.fuelLevel``. A field
resolves by path extraction once its base future resolves; a field of a
failed or cancelled base takes the base's status and its ``ErrorInfo``.
Records inside, ids parsed only from model or script text: every layer
passes on the ``FutureRecord`` it holds, and ``FutureStore.find`` reads an
id, registering a well-formed field of a registered base when first named.

The store holds only what the model can name: call results and their fields.
Waiting is one primitive, ``Latch``: a ``done`` flag plus waiters, each a
countdown over the latches it waits on that runs its callback when the last
one opens. A latch holds its waiters in a list only once something waits on
it; until then, and again once it opens, they are the shared empty tuple. A
future record is a latch that opens on its terminal transition and holds
the outcome, and a base's ``fields`` start as that tuple too. The
scheduler's access labels are latches themselves, and its session-version
gates plain latches; it opens both itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Iterable

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


def looks_like_future_id(text: str) -> bool:
    # The prefix test settles most strings without the regex.
    return text.startswith("fut_") and FUTURE_ID_RE.fullmatch(text) is not None


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
    with ``last`` runs after the others, when the opening is done.
    ``waiters`` is the shared empty tuple until the first waiter comes."""

    __slots__ = ("done", "waiters")

    def __init__(self):
        self.done = False
        self.waiters: list[_Waiter] | tuple[()] = ()

    def open(self) -> None:
        if self.done:
            raise AlreadyTerminalError("latch is already open")
        self.done = True
        waiters = self.waiters
        if not waiters:
            return
        self.waiters = ()
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
        if latch.waiters:
            latch.waiters.append(waiter)
        else:
            latch.waiters = [waiter]


class FutureRecord(Latch):
    """One future and its outcome: a latch that opens on its terminal
    transition. ``status`` is pending, with ``value`` and ``error`` None,
    until then; a failed or cancelled future's ``error`` names the call that
    failed. ``path`` is a field's dotted path, None for a base, and a base's
    ``fields`` are its registered field records in registration order: the
    shared empty tuple until the first one."""

    __slots__ = ("fid", "owner_call", "path", "status", "value", "error", "fields")

    def __init__(self, fid: str, owner_call: str | None = None, path: str | None = None):
        super().__init__()
        self.fid = fid
        self.owner_call = owner_call
        self.path = path
        self.status = PENDING
        self.value: Any = None
        self.error: ErrorInfo | None = None
        self.fields: list[FutureRecord] | tuple[()] = ()


class FutureStore:
    """The result and field futures of one conversation run, taken and
    returned as records; ``find`` is the one rule for what an id names.

    Mutations are atomic with respect to each other because the whole runtime
    is single-threaded on either clock: every handler runs on the thread that
    drives the clock.

    ``settled`` lists each result (base) record in the order it turned
    terminal; field futures add nothing, and a base's fields are in its
    ``fields``. A reader keeps its own position in it, as the driver's turn
    boundary does.
    """

    def __init__(self, clock):
        self._clock = clock
        self._records: dict[str, FutureRecord] = {}
        self._counter = 0
        self.terminal_count = 0
        self.settled: list[FutureRecord] = []

    # -- bookkeeping -----------------------------------------------------

    def ids(self) -> list[str]:
        return list(self._records)

    def pending_ids(self) -> list[str]:
        return [fid for fid, rec in self._records.items() if not rec.done]

    # -- creation --------------------------------------------------------

    def create(self, owner_call: str | None = None) -> FutureRecord:
        """A new pending result (base) future, its id the next ``fut_<n>``."""
        rec = FutureRecord(f"fut_{self._counter}", owner_call)
        self._counter += 1
        self._records[rec.fid] = rec
        return rec

    def create_field(self, base: FutureRecord, path: str) -> FutureRecord:
        """The field future ``path`` of ``base``, registered now if it is
        not yet (else the record already registered), and settled at once
        from the base's outcome if the base is."""
        fid = f"{base.fid}.{path}"
        field = self._records.get(fid)
        if field is not None:
            return field
        field = self._records[fid] = FutureRecord(fid, base.owner_call, path)
        if base.fields:
            base.fields.append(field)
        else:
            base.fields = [field]
        if base.done:
            self._settle_field(field, base)
        return field

    def _settle_field(self, field: FutureRecord, base: FutureRecord) -> None:
        status, value, error = base.status, None, base.error
        if status == RESOLVED:
            found, value = extract_field(base.value, field.path)
            if not found:
                message = f"path not found: {field.path!r} in result of {base.fid}"
                status, error = FAILED, ErrorInfo(EXECUTION_ERROR, message, base.owner_call)
        self._transition(field, status, value, error)

    # -- lookup ----------------------------------------------------------

    def find(self, fid: str, hidden: AbstractSet[str] = frozenset()) -> FutureRecord | None:
        """A registered id's record; for a well-formed field id of a
        registered base, the field, registered now if no layer named it
        before (``create_field``); None for anything else. An id of a
        future that a call in ``hidden`` owns is None as well, and a field
        of one is not registered."""
        rec = self._records.get(fid)
        if rec is None and looks_like_future_id(fid):
            base, dot, path = fid.partition(".")
            base_rec = self._records.get(base) if dot else None
            if base_rec is not None and base_rec.owner_call not in hidden:
                rec = self.create_field(base_rec, path)
        if rec is not None and rec.owner_call in hidden:
            return None
        return rec

    def state_of(self, fid: str) -> FutureRecord:
        """``find``'s record, also the latch that opens when the future
        settles, or UnknownFutureError for an id that names none. It is
        live, not a snapshot: a later transition shows in it."""
        rec = self.find(fid)
        if rec is None:
            raise UnknownFutureError(f"unknown future {fid!r}")
        return rec

    # -- terminal transitions ---------------------------------------------

    def _transition(self, rec: FutureRecord, status: str, value: Any, error: ErrorInfo | None) -> None:
        if rec.done:
            raise AlreadyTerminalError(f"{rec.fid} is already {rec.status}")
        rec.status, rec.value, rec.error = status, value, error
        self.terminal_count += 1
        if rec.path is None:
            self.settled.append(rec)
        rec.open()
        for field in rec.fields:
            self._settle_field(field, rec)

    def resolve(self, rec: FutureRecord, value: Any) -> None:
        self._transition(rec, RESOLVED, value, None)

    def fail(self, rec: FutureRecord, error: ErrorInfo) -> None:
        self._transition(rec, FAILED, None, error)

    def cancel(self, rec: FutureRecord, error: ErrorInfo) -> None:
        """Cancel a pending future; ``error`` says which call's failure did."""
        self._transition(rec, CANCELLED, None, error)

    # -- waiting -----------------------------------------------------------

    def add_waiter(self, records: Iterable[FutureRecord], callback: Callable[[], None]) -> None:
        """Invoke ``callback`` exactly once when every listed record is
        terminal; the caller already holds the records, so none is looked up."""
        when_all(records, callback)

    def drop_waiters(self) -> None:
        """Forget every waiter on a future that never settled, as a run
        that raised leaves them."""
        for rec in self._records.values():
            rec.waiters = ()

    def wait_for(self, records: list[FutureRecord]) -> None:
        """Suspend until every listed record is terminal (each is live, so
        its outcome is read from it); other runnable work proceeds.

        Suspension pumps the clock, so queued executor and scheduler events keep
        firing while this caller waits.
        """
        self._clock.run_until(lambda: all(rec.done for rec in records))
