from __future__ import annotations

import pytest

from futurecall import (
    FunctionSchema,
    FutureStore,
    VirtualClock,
    await_future_schema,
    futurize_output_template,
    scan_future_refs,
    substitute_resolved,
    transform_schema,
)
from futurecall.errors import ErrorInfo, InvalidSchemaError, UnresolvedArgumentError
from futurecall.schema import ParamSpec


def start_engine_schema() -> FunctionSchema:
    return FunctionSchema(
        name="startEngine",
        description="Start the engine.",
        parameters={"ignitionMode": ParamSpec(type="string", description="mode")},
        outputs={"engineState": "", "fuelLevel": 0.0, "batteryVoltage": 0.0},
    )


def test_transform_widens_parameters_and_return():
    transformed = transform_schema(start_engine_schema())
    assert transformed.future_adapted
    param = transformed.parameters["ignitionMode"]
    assert param.accepts_future
    assert param.type == "string"  # base type kept, widened via union annotation
    assert "future identifier" in param.description
    assert "future" in transformed.returns_description.lower()
    rendered = param.to_json()
    assert {"type": "string"} in rendered["anyOf"]


def test_transform_zero_parameter_schema_changes_only_return():
    schema = FunctionSchema(name="ping", description="Ping.", parameters={})
    transformed = transform_schema(schema)
    assert transformed.parameters == {}
    assert transformed.returns_description


def test_transform_is_idempotent():
    once = transform_schema(start_engine_schema())
    twice = transform_schema(once)
    assert once == twice


def test_transform_rejects_invalid_schema():
    with pytest.raises(InvalidSchemaError):
        transform_schema(FunctionSchema(name="", description="x"))
    with pytest.raises(InvalidSchemaError):
        transform_schema(
            FunctionSchema(name="t", parameters={"p": ParamSpec(type="floaty")})
        )


def test_await_future_schema_shape():
    schema = await_future_schema()
    assert schema.name == "await_future"
    assert list(schema.parameters) == ["future_ids"]
    assert schema.parameters["future_ids"].required


def test_transform_keeps_await_ids_identifier_only():
    transformed = transform_schema(await_future_schema())
    assert not transformed.parameters["future_ids"].accepts_future


def store():
    return FutureStore(VirtualClock())


def test_futurize_flat_template():
    s = store()
    base = s.create().fid
    out = futurize_output_template(
        {"engineState": "", "fuelLevel": 0.0, "batteryVoltage": 0.0}, base, s
    )
    assert out == {
        "engineState": f"{base}.engineState",
        "fuelLevel": f"{base}.fuelLevel",
        "batteryVoltage": f"{base}.batteryVoltage",
    }


def test_futurize_without_template_returns_base_id():
    s = store()
    base = s.create().fid
    assert futurize_output_template(None, base, s) == base


def test_futurize_nested_template():
    s = store()
    base = s.create().fid
    assert futurize_output_template({"a": {"b": 1}}, base, s) == {"a": {"b": f"{base}.a.b"}}


def test_futurize_preserves_shape_and_keeps_empty_containers():
    s = store()
    base = s.create().fid
    template = {"xs": [1, 2], "empty": {}, "nested": {"k": "v"}, "none": None}
    out = futurize_output_template(template, base, s)
    assert out["empty"] == {}
    assert out["none"] is None
    assert out["xs"] == [f"{base}.xs.0", f"{base}.xs.1"]

    def shape(node):
        if isinstance(node, dict):
            return {k: shape(v) for k, v in node.items()}
        if isinstance(node, list):
            return [shape(v) for v in node]
        return "*"

    assert shape(out) == shape(template)


def test_scan_finds_registered_refs_only():
    s = store()
    field = s.create_field(s.create(), "engineState")
    refs = scan_future_refs({"mode": field.fid}, s)
    assert refs == [field]
    assert scan_future_refs({"mode": "eco"}, s) == []


def test_scan_filters_unregistered_ids():
    s = store()
    f0 = s.create()
    refs = scan_future_refs({"xs": [f0.fid, 3, "fut_9"]}, s)
    assert refs == [f0]


def test_scan_requires_exact_leaf_match():
    s = store()
    f0 = s.create().fid
    assert scan_future_refs({"note": f"please use {f0} here"}, s) == []


def found_in(args, s):
    """The records a call with these arguments would wait on, by id."""
    return {record.fid: record for record in scan_future_refs(args, s)}


def test_substitute_resolved_replaces_values():
    s = store()
    base = s.create()
    s.resolve(base, {"engineState": "running"})
    field = s.create_field(base, "engineState")
    out = substitute_resolved({"mode": field.fid}, {field.fid: field})
    assert out == {"mode": "running"}


def test_substitute_identity_without_refs():
    s = store()
    args = {"mode": "eco", "xs": [1, {"k": "v"}]}
    assert substitute_resolved(args, found_in(args, s)) == args


def test_substitute_rejects_unresolved():
    s = store()
    pending = s.create()
    with pytest.raises(UnresolvedArgumentError):
        substitute_resolved({"x": pending.fid}, {pending.fid: pending})
    cancelled = s.create()
    s.cancel(cancelled, ErrorInfo("cancelled-dependency", "cancelled because C0 failed", "C0"))
    with pytest.raises(UnresolvedArgumentError):
        substitute_resolved({"x": cancelled.fid}, {cancelled.fid: cancelled})


def test_substitute_after_futurize_reconstructs_value():
    s = store()
    base = s.create()
    template = {"a": {"b": 1}, "xs": [2, 3], "name": ""}
    futurized = futurize_output_template(template, base.fid, s)
    value = {"a": {"b": 10}, "xs": [20, 30], "name": "n"}
    s.resolve(base, value)
    assert substitute_resolved(futurized, found_in(futurized, s)) == value
