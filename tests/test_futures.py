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
    assert store.create().fid == "fut_0"
    assert store.state_of("fut_0").status == PENDING


def test_successive_ids_are_distinct():
    store, _ = make_store()
    assert store.create().fid == "fut_0"
    assert store.create().fid == "fut_1"


def test_hundred_futures_all_distinct():
    store, _ = make_store()
    ids = {store.create().fid for _ in range(100)}
    assert len(ids) == 100


def test_create_returns_the_record_find_gives_for_its_id():
    store, _ = make_store()
    rec = store.create(owner_call="C1")
    assert isinstance(rec, FutureRecord)
    assert store.find(rec.fid) is rec
    assert rec.owner_call == "C1" and rec.path is None and rec.status == PENDING


def test_resolve_sets_terminal_state():
    store, _ = make_store()
    rec = store.create()
    store.resolve(rec, 42)
    state = store.state_of(rec.fid)
    assert state is rec
    assert state.status == RESOLVED and state.value == 42


def test_field_future_lookup_after_resolve():
    store, _ = make_store()
    rec = store.create()
    store.resolve(rec, {"fuelLevel": 0.5})
    state = store.state_of(f"{rec.fid}.fuelLevel")
    assert state.status == RESOLVED and state.value == 0.5


def test_double_resolve_raises():
    store, _ = make_store()
    rec = store.create()
    store.resolve(rec, 1)
    with pytest.raises(AlreadyTerminalError):
        store.resolve(rec, 2)


def test_fail_and_cancel_states():
    store, _ = make_store()
    f1 = store.create()
    f2 = store.create()
    store.fail(f1, ErrorInfo("execution-error", "timeout"))
    cancelled = ErrorInfo("cancelled-dependency", "cancelled because C1 failed", "C1")
    store.cancel(f2, cancelled)
    assert store.state_of(f1.fid).status == FAILED
    assert store.state_of(f1.fid).error.message == "timeout"
    assert store.state_of(f2.fid).status == CANCELLED
    assert store.state_of(f2.fid).error == cancelled


ERROR = ErrorInfo("execution-error", "boom", "C0")


@pytest.mark.parametrize(
    "transition, arg, status, value, field_value, error",
    [
        ("resolve", {"a": 3}, RESOLVED, {"a": 3}, 3, None),
        ("fail", ERROR, FAILED, None, None, ERROR),
        ("cancel", ERROR, CANCELLED, None, None, ERROR),
    ],
)
def test_each_transition_works_on_the_record_and_settles_its_fields(transition, arg, status, value, field_value, error):
    store, _ = make_store()
    base = store.create(owner_call="C0")
    field = store.create_field(base, "a")
    getattr(store, transition)(base, arg)
    assert (base.done, base.status, base.value, base.error) == (True, status, value, error)
    assert (field.done, field.status, field.value, field.error) == (True, status, field_value, error)
    assert store.settled == [base] and store.terminal_count == 2


def test_cancel_on_resolved_raises():
    store, _ = make_store()
    rec = store.create()
    store.resolve(rec, "x")
    with pytest.raises(AlreadyTerminalError):
        store.cancel(rec, ErrorInfo("cancelled-dependency", "cancelled because C9 failed", "C9"))


def test_unknown_future_raises():
    store, _ = make_store()
    with pytest.raises(UnknownFutureError):
        store.state_of("fut_123")
    assert store.find("fut_123") is None


def test_wait_for_empty_returns_immediately():
    store, clock = make_store()
    store.wait_for([])
    assert clock.now() == 0.0


def test_wait_for_returns_at_resolution_time():
    store, clock = make_store()
    rec = store.create()
    clock.schedule(5, lambda: store.resolve(rec, "v"))
    store.wait_for([rec])
    assert clock.now() == 5.0
    assert rec.value == "v"


def test_wait_for_two_returns_at_max_time():
    store, clock = make_store()
    f0, f1 = store.create(), store.create()
    clock.schedule(3, lambda: store.resolve(f0, 0))
    clock.schedule(7, lambda: store.resolve(f1, 1))
    store.wait_for([f0])
    assert clock.now() == 3.0
    store.wait_for([f0, f1])
    assert clock.now() == 7.0


def test_wait_for_takes_records_and_waits_on_a_field_and_a_repeat():
    store, clock = make_store()
    base, other = store.create(), store.create()
    field = store.create_field(base, "a")
    clock.schedule(2, lambda: store.resolve(other, "o"))
    clock.schedule(4, lambda: store.resolve(base, {"a": 9}))
    store.wait_for([other, field, field])
    assert clock.now() == 4.0
    assert (other.value, field.value) == ("o", 9)


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
    base = store.create()
    field = store.create_field(base, "a.b")
    assert field.fid == f"{base.fid}.a.b" and store.state_of(field.fid) is field
    assert field.status == PENDING
    store.resolve(base, {"a": {"b": 7}})
    assert field.value == 7


def test_create_field_of_a_settled_base_is_settled_and_registers_once():
    store, _ = make_store()
    base = store.create(owner_call="C1")
    store.resolve(base, {"a": 1})
    field = store.create_field(base, "a")
    assert field.status == RESOLVED and field.value == 1 and field.owner_call == "C1"
    assert store.create_field(base, "a") is field
    assert store.find(field.fid) is field
    assert base.fields == [field] and store.ids() == [base.fid, field.fid]


def test_field_future_missing_path_fails():
    store, _ = make_store()
    rec = store.create(owner_call="C1")
    store.resolve(rec, {"present": 1})
    state = store.state_of(f"{rec.fid}.absent")
    assert state.status == FAILED
    assert "path not found" in state.error.message
    assert state.error.origin_call == "C1"


def test_field_future_of_failed_base_fails():
    store, _ = make_store()
    base = store.create()
    field = store.create_field(base, "x")
    store.fail(base, ErrorInfo("execution-error", "bad"))
    assert store.state_of(field.fid).status == FAILED


def test_field_future_of_cancelled_base_is_cancelled():
    store, _ = make_store()
    base = store.create()
    field = store.create_field(base, "x")
    store.cancel(base, ErrorInfo("cancelled-dependency", "cancelled because C0 failed", "C0"))
    state = store.state_of(field.fid)
    assert state.status == CANCELLED and state.error is base.error


def test_find_on_a_field_id_of_an_unregistered_base_registers_nothing():
    store, _ = make_store()
    store.create()
    assert store.find("fut_9.x") is None
    assert store.ids() == ["fut_0"]


def test_find_returns_a_registered_record():
    store, _ = make_store()
    base = store.create(owner_call="C1")
    field = store.create_field(base, "a")
    assert store.find(base.fid) is store.state_of(base.fid) is base
    assert store.find(base.fid).owner_call == "C1"
    assert store.find(field.fid).path == "a"
    assert store.ids() == [base.fid, field.fid]


def test_find_registers_a_well_formed_field_of_a_registered_base():
    store, _ = make_store()
    base = store.create(owner_call="C1")
    fid = base.fid
    field = store.find(f"{fid}.a.0")
    assert field.fid == f"{fid}.a.0" and field.path == "a.0" and field.owner_call == "C1"
    assert field.status == PENDING
    assert store.ids() == [fid, field.fid]
    assert store.find(field.fid) is field
    store.resolve(base, {"a": [4]})
    assert field.value == 4


def test_find_settles_a_field_of_a_settled_base_at_once():
    store, _ = make_store()
    base = store.create()
    store.resolve(base, {"a": 1})
    field = store.find(f"{base.fid}.a")
    assert field.status == RESOLVED and field.value == 1
    assert store.ids() == [base.fid, field.fid]


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
    mine, other = store.create(owner_call="A").fid, store.create(owner_call="B").fid
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
    base = store.create()
    field = store.create_field(base, "a")
    assert base.fields == [field]
    assert field.fields == ()


def test_drop_waiters_leaves_the_empty_tuple():
    store, _ = make_store()
    rec = store.create()
    store.add_waiter([rec], lambda: None)
    assert len(rec.waiters) == 1
    store.drop_waiters()
    assert rec.waiters == ()


def test_extract_field():
    assert extract_field({"a": [{"b": 5}]}, "a.0.b") == (True, 5)
    assert extract_field({"a": 1}, "a.b") == (False, None)
