from __future__ import annotations

import pytest

from futurecall import FutureStore, VirtualClock
from futurecall.errors import AlreadyTerminalError, ErrorInfo, UnknownFutureError
from futurecall.futures import (
    CANCELLED,
    FAILED,
    PENDING,
    RESOLVED,
    FutureRecord,
    Latch,
    extract_field,
    when_all,
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
    store.add_waiter([store.state_of(f0), store.state_of(f1)], lambda: calls.append("woke"))
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
    assert state.status == CANCELLED and state.error is store.state_of(fid).error


def test_field_future_requires_known_base():
    store, _ = make_store()
    with pytest.raises(UnknownFutureError):
        store.create_field("fut_9", "x")


def test_find_returns_a_registered_record():
    store, _ = make_store()
    fid = store.create(owner_call="C1")
    field_id = store.create_field(fid, "a")
    assert store.find(fid) is store.state_of(fid)
    assert store.find(fid).owner_call == "C1"
    assert store.find(field_id).path == "a"
    assert store.ids() == [fid, field_id]


def test_find_registers_a_well_formed_field_of_a_registered_base():
    store, _ = make_store()
    fid = store.create(owner_call="C1")
    field = store.find(f"{fid}.a.0")
    assert field.fid == f"{fid}.a.0" and field.path == "a.0" and field.owner_call == "C1"
    assert field.status == PENDING
    assert store.ids() == [fid, field.fid]
    assert store.find(field.fid) is field
    store.resolve(fid, {"a": [4]})
    assert field.value == 4


def test_find_settles_a_field_of_a_settled_base_at_once():
    store, _ = make_store()
    fid = store.create()
    store.resolve(fid, {"a": 1})
    field = store.find(f"{fid}.a")
    assert field.status == RESOLVED and field.value == 1
    assert store.ids() == [fid, field.fid]


@pytest.mark.parametrize("text", ["fut_0.a b", "fut_0..a", "fut_0.", "fut_0.a.", "fut_1.a", "fut_1", "plain", ""])
def test_find_refuses_what_names_no_record_and_registers_nothing(text):
    store, _ = make_store()
    store.create()
    assert store.find(text) is None
    assert store.ids() == ["fut_0"]
    with pytest.raises(UnknownFutureError):
        store.state_of(text)
    assert store.ids() == ["fut_0"]


def test_find_hides_the_futures_of_hidden_owners_and_registers_no_field_of_them():
    store, _ = make_store()
    mine, other = store.create(owner_call="A"), store.create(owner_call="B")
    assert store.find(mine, {"A"}) is None
    assert store.find(f"{mine}.a", {"A"}) is None
    assert store.find(f"{other}.a", {"A"}).owner_call == "B"
    assert store.ids() == [mine, other, f"{other}.a"]
    assert store.find(mine).owner_call == "A"


# -- lazy waiter and field lists ------------------------------------------------------


def test_a_fresh_latch_or_record_holds_the_shared_empty_tuple():
    record = FutureRecord("fut_0")
    assert Latch().waiters == ()
    assert record.waiters == () and record.fields == ()


def test_the_first_waiter_makes_a_list_and_opening_puts_the_tuple_back():
    latch, fired = Latch(), []
    when_all([latch], lambda: fired.append(1))
    assert isinstance(latch.waiters, list) and len(latch.waiters) == 1
    latch.open()
    assert fired == [1]
    assert latch.waiters == ()


def test_a_waiter_on_an_open_latch_makes_no_list():
    latch, fired = Latch(), []
    latch.open()
    when_all([latch], lambda: fired.append(1))
    assert fired == [1] and latch.waiters == ()


def test_the_first_field_makes_the_base_a_list_and_a_field_holds_none():
    store, _ = make_store()
    fid = store.create()
    field_id = store.create_field(fid, "a")
    base = store.state_of(fid)
    assert base.fields == [store.state_of(field_id)]
    assert store.state_of(field_id).fields == ()


def test_drop_waiters_leaves_the_empty_tuple():
    store, _ = make_store()
    fid = store.create()
    store.add_waiter([store.state_of(fid)], lambda: None)
    assert len(store.state_of(fid).waiters) == 1
    store.drop_waiters()
    assert store.state_of(fid).waiters == ()


def test_extract_field():
    assert extract_field({"a": [{"b": 5}]}, "a.0.b") == (True, 5)
    assert extract_field({"a": 1}, "a.b") == (False, None)
