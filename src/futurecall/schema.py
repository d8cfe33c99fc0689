"""Schema adaptation: make synchronous tool schemas future-compatible.

Transforms parameter and return contracts so a tool may receive future
identifier strings in place of concrete values and returns a future
placeholder (or a futurized structure mirroring its example output). Also
provides the fixed ``await_future`` auxiliary schema and the argument
scanning / substitution helpers used by the scheduler and executor.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from types import NoneType
from typing import Any, Callable, Container

from .errors import (
    BadPathTemplateError,
    InvalidSchemaError,
    UnresolvedArgumentError,
    ValidationError,
)
from .futures import FUTURE_ID_RE, RESOLVED, FutureStore, looks_like_future_id, valid_field_path

PARAM_TYPES = {"string", "number", "integer", "boolean", "array", "object"}

AWAIT_FUTURE_NAME = "await_future"

# Fixed wording; stable across runs so traces stay reproducible.
FUTURE_PREAMBLE = (
    "Asynchronous tool: calling it returns a future identifier such as "
    '"fut_0" (or a structure of field futures) immediately, and the concrete '
    "result is delivered at a later turn boundary. Future identifiers may be "
    "passed as arguments to other tools. "
)
PARAM_FUTURE_NOTE = " Accepts either a concrete value of this type or a future identifier string."
FUTURE_RETURN_NOTE = "A future placeholder that resolves to this tool's result."


# JSON type names for parse errors; int and float are both a JSON number.
JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "a number",
              float: "a number", bool: "true or false", NoneType: "null"}


def json_fields(obj: Any, table: dict[str, Any], where: str) -> dict[str, Any]:
    """The keys of a JSON object that its table lists, each value checked.

    A table maps a key to the Python types of the JSON values it may hold,
    ``object`` for a value that a named rule checks later. The result leaves
    out an absent key, and a null where the table lists NoneType, so that
    the key takes its default; keys the table does not list are ignored.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"malformed {where}: expected a JSON object, got {obj!r}")
    out = {}
    for key, value in obj.items():
        if key in table:
            kinds = table[key]
            if not isinstance(value, kinds):
                kinds = kinds if isinstance(kinds, tuple) else (kinds,)
                names = dict.fromkeys(JSON_NAMES[kind] for kind in kinds)
                raise ValidationError(f"{where}: {key} must be {' or '.join(names)}, got {value!r}")
            if value is not None or kinds is object:
                out[key] = value
    return out


PARAMETER = {"type": object, "description": str, "required": bool}
SCHEMA = {"name": object, "description": str, "parameters": dict, "outputs": object}
ANNOTATION = {"reads": (list, NoneType), "writes": (list, NoneType), "session_read": bool,
              "session_write": bool, "outputs": object}
LABEL = {"path": str, "subtree": bool}


@dataclass
class ParamSpec:
    type: str = "string"
    description: str = ""
    required: bool = True
    accepts_future: bool = False

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "type": self.type,
            "description": self.description,
            "required": self.required,
        }
        if self.accepts_future:
            # Widen via a union annotation instead of replacing the base type.
            out["anyOf"] = [
                {"type": self.type},
                {"type": "string", "pattern": f"^{FUTURE_ID_RE.pattern}$"},
            ]
        return out


@dataclass
class FunctionSchema:
    name: str
    description: str = ""
    parameters: dict[str, ParamSpec] = field(default_factory=dict)
    outputs: Any = None
    returns_description: str = ""
    future_adapted: bool = False

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidSchemaError(f"schema name must be a nonempty string, got {self.name!r}")
        for pname, spec in self.parameters.items():
            if not pname:
                raise InvalidSchemaError(f"{self.name}: empty parameter name")
            if not (isinstance(spec.type, str) and spec.type in PARAM_TYPES):
                raise InvalidSchemaError(
                    f"{self.name}.{pname}: unknown parameter type {spec.type!r}"
                )

    @classmethod
    def from_json(cls, data: Any, where: str) -> "FunctionSchema":
        """Build from the JSON form; a malformed schema raises ValidationError."""
        raw = json_fields(data, SCHEMA, where)
        raw["parameters"] = {
            name: ParamSpec(**json_fields(spec, PARAMETER, f"{where}: parameter {name!r}"))
            for name, spec in raw.get("parameters", {}).items()
        }
        schema = cls(name=raw.pop("name", None), **raw)
        try:
            schema.validate()
        except InvalidSchemaError as exc:
            raise InvalidSchemaError(f"{where}: {exc}") from exc
        return schema


# A template rooted here names a session binding: ``$session/name/tail``.
SESSION_PREFIX = "$session/"

READ = "read"
WRITE = "write"


@dataclass(slots=True)
class Access:
    """One resolved region access: path, read/write mode, scope flag.

    The path is its tuple of segments, ``("a", "b")`` for ``/a/b``; the
    root is ``()``. An access is never changed once built, so one instance
    may serve many calls.
    """

    path: tuple[str, ...]
    mode: str
    subtree: bool


@dataclass
class AccessDecl:
    """One read or write label: a path template plus its scope flag.

    The template is parsed once, when the declaration is built. ``binding``
    is the session binding name of a ``$session/name/...`` template and None
    for a /-rooted one; ``segments`` are the rest of the path, empty segments
    dropped. A segment without braces is its literal text. One with
    ``{param}`` placeholders is a tuple alternating literal text and
    parameter names, starting and ending with literal text:
    ``"v{major}.{minor}"`` is ``("v", "major", ".", "minor", "")``. A
    template that is neither /-rooted nor session-relative, names no binding
    after ``$session/``, or opens a brace it does not close raises
    BadPathTemplateError.

    A literal template, with no binding and no placeholder, resolves to the
    same accesses for every call: ``literal`` maps each mode to its one
    ``Access``, built here. It is None for any other template.
    """

    path: str
    subtree: bool = False
    binding: str | None = field(init=False, repr=False)
    segments: tuple[str | tuple[str, ...], ...] = field(init=False, repr=False)
    literal: dict[str, Access] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        path = self.path
        binding = None
        if path.startswith(SESSION_PREFIX):
            binding, _, path = path[len(SESSION_PREFIX) :].partition("/")
            if not binding:
                raise BadPathTemplateError("$session/ needs a binding name")
        elif not path.startswith("/"):
            raise BadPathTemplateError(f"path template must be /-rooted: {path!r}")
        segments: list[str | tuple[str, ...]] = []
        for text in path.split("/"):
            if "{" not in text:
                if text:
                    segments.append(text)
                continue
            parts, rest = [], text
            while (start := rest.find("{")) >= 0:
                end = rest.find("}", start)
                if end < 0:
                    raise BadPathTemplateError(f"unbalanced braces in segment {text!r}")
                parts += [rest[:start], rest[start + 1 : end]]
                rest = rest[end + 1 :]
            parts.append(rest)
            segments.append(tuple(parts))
        self.binding, self.segments = binding, tuple(segments)
        self.literal = None
        if binding is None and "{" not in path:
            self.literal = {mode: Access(self.segments, mode, self.subtree) for mode in (READ, WRITE)}


@dataclass
class DependencyAnnotation:
    """Declared resource footprint of one tool.

    Path templates are absolute (``/a/b``), session-relative
    (``$session/name/...``) or argument-parameterized (segments containing
    ``{paramName}``); each ``AccessDecl`` holds its template parsed.
    Admission only fills them: a ``{param}`` takes the call's argument
    value (a future's once it resolves) and ``$session/name`` the binding's
    current path, and neither is read as a template again. A call whose
    templates cannot be filled (a missing argument, a value that is not a
    scalar, a binding that is missing or not a /-rooted string) gets the
    footprint of an unannotated tool: the whole tree, read and written.
    """

    reads: list[AccessDecl] = field(default_factory=list)
    writes: list[AccessDecl] = field(default_factory=list)
    session_read: bool = False
    session_write: bool = False
    outputs: Any = None

    @classmethod
    def from_json(cls, data: Any, where: str) -> "DependencyAnnotation":
        """Build from the JSON form. A malformed annotation, label or
        template raises ValidationError."""
        raw = json_fields(data, ANNOTATION, where)
        for key in ("reads", "writes"):
            raw[key] = [_label(x, f"{where}: {key}[{i}]") for i, x in enumerate(raw.get(key, ()))]
        return cls(**raw)


def _label(item: Any, where: str) -> AccessDecl:
    raw = json_fields(item, LABEL, where)
    if "path" not in raw:
        raise ValidationError(f"{where}: path is required")
    try:
        return AccessDecl(**raw)
    except BadPathTemplateError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def tool_from_json(
    entry: Any, schema: Any, where: str
) -> tuple[FunctionSchema, DependencyAnnotation | None]:
    """The schema and the ``annotation`` key of one tool entry: a workload
    tool, whose schema is its ``schema`` key, or a schema file's entry,
    which is the schema itself."""
    schema = FunctionSchema.from_json(schema, f"schema of {where}")
    annotation = entry.get("annotation")
    if annotation is not None:
        where = f"{where}: tool {schema.name!r} annotation"
        annotation = DependencyAnnotation.from_json(annotation, where)
    return schema, annotation


def transform_schema(schema: FunctionSchema) -> FunctionSchema:
    """Widen a schema so parameters and the return value admit futures.

    Idempotent: transforming an already-transformed schema returns an equal
    schema. The underlying tool implementation is never touched; only the
    descriptions and type contracts change.
    """
    schema.validate()
    params: dict[str, ParamSpec] = {}
    for pname, spec in schema.parameters.items():
        if schema.name == AWAIT_FUTURE_NAME and pname == "future_ids":
            # The await helper consumes identifiers only; widening it again
            # would suggest futures-of-futures.
            params[pname] = replace(spec)
            continue
        if spec.accepts_future:
            params[pname] = replace(spec)
            continue
        params[pname] = ParamSpec(
            type=spec.type,
            description=spec.description + PARAM_FUTURE_NOTE,
            required=spec.required,
            accepts_future=True,
        )
    description = schema.description
    if not schema.future_adapted:
        description = FUTURE_PREAMBLE + description
    return FunctionSchema(
        name=schema.name,
        description=description,
        parameters=params,
        outputs=copy_json(schema.outputs),
        returns_description=FUTURE_RETURN_NOTE,
        future_adapted=True,
    )


def await_future_schema() -> FunctionSchema:
    """The fixed auxiliary schema the model uses to resolve futures explicitly."""
    return FunctionSchema(
        name=AWAIT_FUTURE_NAME,
        description=(
            "Suspend until every listed future is resolved, then return a map "
            "from future identifier to its concrete value."
        ),
        parameters={
            "future_ids": ParamSpec(
                type="array",
                description="Future identifier strings to resolve.",
                required=True,
            )
        },
        returns_description="Map from future identifier to resolved value.",
    )


def map_leaves(node: Any, fn: Callable[[Any, tuple], Any], path: tuple = ()) -> Any:
    """Copy a JSON value with every leaf replaced by ``fn(leaf, key_path)``.

    Leaves are values other than dicts and lists; the key path holds the dict
    keys and list indices leading from the root to the leaf.
    """
    if isinstance(node, dict):
        return {key: map_leaves(val, fn, path + (key,)) for key, val in node.items()}
    if isinstance(node, list):
        return [map_leaves(val, fn, path + (i,)) for i, val in enumerate(node)]
    return fn(node, path)


def copy_json(node: Any) -> Any:
    """Copy a JSON value: new dicts and lists, the same leaves."""
    if isinstance(node, dict):
        return {key: copy_json(val) for key, val in node.items()}
    if isinstance(node, list):
        return [copy_json(val) for val in node]
    return node


def futurize_output_template(example: Any, base: str, store: FutureStore) -> Any:
    """Replace every scalar leaf of an example output with a field future id.

    The returned value has the same shape as the example; each registered
    field future resolves by path extraction once the base future resolves.
    Without a template the bare base identifier stands in for the whole value.
    """
    if example is None:
        return base

    def leaf(node: Any, path: tuple) -> Any:
        if not isinstance(node, (str, int, float, bool)):
            return node
        if not path:
            return base
        dotted = ".".join(str(key) for key in path)
        if not valid_field_path(dotted):
            # Keys that cannot appear in a dotted identifier (dots,
            # whitespace) keep their literal example value.
            return node
        return store.create_field(base, dotted)

    return map_leaves(example, leaf)


def scan_future_refs(args: Any, store: FutureStore) -> list[tuple[str, str]]:
    """Find every string leaf that is a registered future (or field) identifier.

    Matching is exact whole-leaf equality, never substring search, so prose
    arguments that merely mention an identifier are left alone. Each match
    comes with its location, such as ``xs[0]`` or ``a.b``.
    """
    refs: list[tuple[str, str]] = []

    def leaf(node: Any, path: tuple) -> Any:
        if isinstance(node, str) and looks_like_future_id(node) and store.known(node):
            loc = ""
            for key in path:
                if isinstance(key, int):
                    loc += f"[{key}]"
                else:
                    loc += f".{key}" if loc else str(key)
            refs.append((loc, node))
        return node

    map_leaves(args, leaf)
    return refs


def substitute_resolved(args: Any, store: FutureStore, only: Container[str]) -> Any:
    """Replace each string leaf that is an id in ``only`` with that future's
    resolved value; every other leaf is kept.

    Raises UnresolvedArgumentError when any such future is not in the
    Resolved state; callers wait on argument futures before substituting.
    """

    def leaf(node: Any, path: tuple) -> Any:
        if isinstance(node, str) and node in only:
            state = store.state_of(node)
            if state.status != RESOLVED:
                raise UnresolvedArgumentError(f"{node} is {state.status}, not resolved")
            return copy.deepcopy(state.value)
        return node

    return map_leaves(args, leaf)


def load_schema_file(path: str) -> list[tuple[FunctionSchema, DependencyAnnotation | None]]:
    """Read a ``{"tools": [...]}`` schema document with inline annotations."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read schema file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("tools"), list):
        raise ValidationError(f'{path}: expected a {{"tools": [...]}} document')
    out = []
    seen: set[str] = set()
    for i, entry in enumerate(data["tools"]):
        schema, annotation = tool_from_json(entry, entry, f"{path}: tools[{i}]")
        if schema.name in seen:
            raise ValidationError(f"{path}: duplicate tool name {schema.name!r}")
        seen.add(schema.name)
        out.append((schema, annotation))
    return out
