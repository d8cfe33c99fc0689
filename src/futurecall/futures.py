"""Symbolic futures: string placeholders handed out while work is in flight.

A future is identified by ``fut_<n>``; addressing one field of a pending
structured result appends a dotted path, e.g. ``fut_3.fuelLevel``. Field
futures are registered lazily on first reference and resolve automatically by
path extraction once their base future resolves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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

_FULL_ID_RE = re.compile(r"fut_\d+(\.[^.\s]+)*")
_SEGMENT_RE = re.compile(r"[^.\s]+")


@dataclass(frozen=True)
class FutureState:
    """Snapshot of a future: pending, or one of three final outcomes."""

    status: str
    value: Any = None
    error: ErrorInfo | None = None
    cause: str | None = None

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
    return bool(_FULL_ID_RE.fullmatch(text))


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


@dataclass
class _Waiter:
    remaining: int
    callback: Callable[[], None]


@dataclass
class FutureRecord:
    fid: str
    kind: str
    state: FutureState = PENDING_STATE
    resolved_at: float | None = None
    owner_call: str | None = None
    waiters: list[_Waiter] = field(default_factory=list)


class FutureStore:
    """All futures of one conversation run, with waiter wakeups.

    Mutations are atomic with respect to each other because the whole runtime
    is single-threaded on either clock: every handler runs on the thread that
    drives the clock.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._records: dict[str, FutureRecord] = {}
        self._fields: dict[str, list[str]] = {}  # base id -> registered field ids
        self._counter = 0
        self._observers: list[Callable[[str], None]] = []
        self.terminal_count = 0

    # -- bookkeeping -----------------------------------------------------

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def add_observer(self, fn: Callable[[str], None]) -> None:
        """Register a hook fired after every terminal transition."""
        self._observers.append(fn)

    def ids(self) -> list[str]:
        return list(self._records)

    def field_ids(self, base: str) -> list[str]:
        return list(self._fields.get(base, []))

    def pending_ids(self) -> list[str]:
        return [fid for fid, rec in self._records.items() if not rec.state.is_terminal]

    # -- creation --------------------------------------------------------

    def create(self, kind: str = "result", owner_call: str | None = None) -> str:
        fid = f"fut_{self._counter}"
        self._counter += 1
        self._records[fid] = FutureRecord(fid=fid, kind=kind, owner_call=owner_call)
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
        self._records[fid] = FutureRecord(fid=fid, kind="field", owner_call=base_rec.owner_call)
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
        elif state.status == FAILED:
            self.fail(fid, state.error)
        else:
            self.cancel(fid, state.cause or base_rec.fid)

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

    def resolution_time(self, fid: str) -> float | None:
        return self._require(fid).resolved_at

    # -- terminal transitions ---------------------------------------------

    def _transition(self, fid: str, state: FutureState) -> None:
        rec = self._require(fid)
        if rec.state.is_terminal:
            raise AlreadyTerminalError(f"{fid} is already {rec.state.status}")
        rec.state = state
        rec.resolved_at = self._now()
        waiters, rec.waiters = rec.waiters, []
        self.terminal_count += 1
        for waiter in waiters:
            waiter.remaining -= 1
            if waiter.remaining == 0:
                waiter.callback()
        for base_rec in [rec] if rec.kind != "field" else []:
            for field_id in self._fields.get(base_rec.fid, []):
                if not self._records[field_id].state.is_terminal:
                    self._settle_field(field_id, base_rec)
        for observer in list(self._observers):
            observer(fid)

    def resolve(self, fid: str, value: Any) -> None:
        self._transition(fid, FutureState(RESOLVED, value=value))

    def fail(self, fid: str, error: ErrorInfo) -> None:
        self._transition(fid, FutureState(FAILED, error=error))

    def cancel(self, fid: str, cause: str) -> None:
        """Cancel a pending future, recording the failed ancestor's future id."""
        self._transition(fid, FutureState(CANCELLED, cause=cause))

    # -- waiting -----------------------------------------------------------

    def _pending_records(self, fids: Iterable[str]) -> list[FutureRecord]:
        """Records of the listed futures still pending, in the given order."""
        records = self._records
        out = []
        for fid in fids:
            rec = records.get(fid) or self._require(fid)
            if rec.state.status == PENDING:
                out.append(rec)
        return out

    def pending_among(self, fids: Iterable[str]) -> list[str]:
        """The listed futures that are still pending, in the given order."""
        return [rec.fid for rec in self._pending_records(fids)]

    def add_waiter(self, fids: Iterable[str], callback: Callable[[], None]) -> None:
        """Invoke ``callback`` exactly once when every listed future is terminal."""
        open_records = self._pending_records(fids)
        if not open_records:
            callback()
            return
        waiter = _Waiter(remaining=len(open_records), callback=callback)
        for rec in open_records:
            rec.waiters.append(waiter)

    def wait_for(self, fids: list[str]) -> dict[str, FutureState]:
        """Suspend until every id is terminal; other runnable work proceeds.

        Suspension pumps the clock, so queued executor and scheduler events keep
        firing while this caller waits.
        """
        records = {fid: self._require(fid) for fid in fids}
        if self._clock is not None:
            self._clock.run_until(
                lambda: all(rec.state.is_terminal for rec in records.values())
            )
        return {fid: rec.state for fid, rec in records.items()}
