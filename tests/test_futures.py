from __future__ import annotations

import pytest

from futurecall import FutureStore, VirtualClock
from futurecall.errors import AlreadyTerminalError, ErrorInfo, UnknownFutureError
from futurecall.futures import (
    CANCELLED,
    FAILED,
    PENDING,
    RESOLVED,
    extract_field,
    split_future_id,
)


def make_store():
    clock = VirtualClock()
    return FutureStore(clock), clock


def test_first_future_id_is_fut_0():
    store, _ = make_store()
    assert store.create() == "fut_0"
    assert store.state_of("fut_0").status == PENDING


def test_successive_ids_are_distinct():
    store, _ = make_store()
    assert store.create() == "fut_0"
    assert store.create() == "fut_1"


def test_hundred_futures_all_distinct():
    store, _ = make_store()
    ids = {store.create() for _ in range(100)}
    assert len(ids) == 100


def test_resolve_sets_terminal_state():
    store, _ = make_store()
    fid = store.create()
    store.resolve(fid, 42)
    state = store.state_of(fid)
    assert state.status == RESOLVED and state.value == 42


def test_field_future_lookup_after_resolve():
    store, _ = make_store()
    fid = store.create()
    store.resolve(fid, {"fuelLevel": 0.5})
    state = store.state_of(f"{fid}.fuelLevel")
    assert state.status == RESOLVED and state.value == 0.5


def test_double_resolve_raises():
    store, _ = make_store()
    fid = store.create()
    store.resolve(fid, 1)
    with pytest.raises(AlreadyTerminalError):
        store.resolve(fid, 2)


def test_fail_and_cancel_states():
    store, _ = make_store()
    f1 = store.create()
    f2 = store.create()
    store.fail(f1, ErrorInfo("execution-error", "timeout"))
    cancelled = ErrorInfo("cancelled-dependency", "cancelled because C1 failed", "C1")
    store.cancel(f2, cancelled)
    assert store.state_of(f1).status == FAILED
    assert store.state_of(f1).error.message == "timeout"
    assert store.state_of(f2).status == CANCELLED
    assert store.state_of(f2).error == cancelled


def test_cancel_on_resolved_raises():
    store, _ = make_store()
    fid = store.create()
    store.resolve(fid, "x")
    with pytest.raises(AlreadyTerminalError):
        store.cancel(fid, ErrorInfo("cancelled-dependency", "cancelled because C9 failed", "C9"))


def test_unknown_future_raises():
    store, _ = make_store()
    with pytest.raises(UnknownFutureError):
        store.state_of("fut_123")
    with pytest.raises(UnknownFutureError):
        store.resolve("fut_123", 1)


def test_wait_for_empty_returns_immediately():
    store, clock = make_store()
    assert store.wait_for([]) == {}
    assert clock.now() == 0.0


def test_wait_for_returns_at_resolution_time():
    store, clock = make_store()
    fid = store.create()
    clock.schedule(5, lambda: store.resolve(fid, "v"))
    states = store.wait_for([fid])
    assert clock.now() == 5.0
    assert states[fid].value == "v"


def test_wait_for_two_returns_at_max_time():
    store, clock = make_store()
    f0, f1 = store.create(), store.create()
    clock.schedule(3, lambda: store.resolve(f0, 0))
    clock.schedule(7, lambda: store.resolve(f1, 1))
    store.wait_for([f0])
    assert clock.now() == 3.0
    store.wait_for([f0, f1])
    assert clock.now() == 7.0


def test_waiters_woken_exactly_once():
    store, _ = make_store()
    f0, f1 = store.create(), store.create()
    calls = []
    store.add_waiter([f0, f1], lambda: calls.append("woke"))
    store.resolve(f0, 1)
    assert calls == []
    store.resolve(f1, 2)
    assert calls == ["woke"]


def test_field_future_registered_before_base_resolution():
    store, _ = make_store()
    fid = store.create()
    field_id = store.create_field(fid, "a.b")
    assert store.state_of(field_id).status == PENDING
    store.resolve(fid, {"a": {"b": 7}})
    assert store.state_of(field_id).value == 7


def test_field_future_missing_path_fails():
    store, _ = make_store()
    fid = store.create(owner_call="C1")
    store.resolve(fid, {"present": 1})
    state = store.state_of(f"{fid}.absent")
    assert state.status == FAILED
    assert "path not found" in state.error.message
    assert state.error.origin_call == "C1"


def test_field_future_of_failed_base_fails():
    store, _ = make_store()
    fid = store.create()
    field_id = store.create_field(fid, "x")
    store.fail(fid, ErrorInfo("execution-error", "bad"))
    assert store.state_of(field_id).status == FAILED


def test_field_future_of_cancelled_base_is_cancelled():
    store, _ = make_store()
    fid = store.create()
    field_id = store.create_field(fid, "x")
    store.cancel(fid, ErrorInfo("cancelled-dependency", "cancelled because C0 failed", "C0"))
    state = store.state_of(field_id)
    assert state.status == CANCELLED and state == store.state_of(fid)


def test_field_future_requires_known_base():
    store, _ = make_store()
    with pytest.raises(UnknownFutureError):
        store.create_field("fut_9", "x")


def test_split_and_extract_helpers():
    assert split_future_id("fut_3") == ("fut_3", None)
    assert split_future_id("fut_3.fuelLevel") == ("fut_3", "fuelLevel")
    assert extract_field({"a": [{"b": 5}]}, "a.0.b") == (True, 5)
    assert extract_field({"a": 1}, "a.b") == (False, None)
