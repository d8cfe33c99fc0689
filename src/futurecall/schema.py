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


def _typed(value: Any, kind: type, what: str) -> Any:
    """Return value if it is an instance of kind."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


@dataclass
class ParamSpec:
    type: str
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
    def from_json(cls, data: dict) -> "FunctionSchema":
        try:
            params = {
                name: ParamSpec(
                    type=spec.get("type", "string"),
                    description=spec.get("description", ""),
                    required=_typed(spec.get("required", True), bool, f"parameter {name!r}: required"),
                )
                for name, spec in data.get("parameters", {}).items()
            }
            schema = cls(
                name=data["name"],
                description=data.get("description", ""),
                parameters=params,
                outputs=data.get("outputs"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidSchemaError(f"malformed schema: {exc}") from exc
        schema.validate()
        return schema


# A template rooted here names a session binding: ``$session/name/tail``.
SESSION_PREFIX = "$session/"


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
    """

    path: str
    subtree: bool = False
    binding: str | None = field(init=False, repr=False)
    segments: tuple[str | tuple[str, ...], ...] = field(init=False, repr=False)

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
    def from_json(cls, data: Any) -> "DependencyAnnotation":
        """Build from the JSON form. An annotation that is not an object,
        ``reads``/``writes`` that are not lists and a bad label or template
        raise ValidationError."""
        if not isinstance(data, dict):
            raise ValidationError(f"annotation must be an object, got {data!r}")

        def decls(key: str) -> list[AccessDecl]:
            items = data.get(key)
            if items is None:
                return []
            if not isinstance(items, list):
                raise ValidationError(f"annotation {key} must be a list, got {items!r}")
            out = []
            for item in items:
                if not isinstance(item, dict) or not isinstance(item.get("path"), str):
                    raise ValidationError(f"bad access label {item!r}")
                try:
                    subtree = _typed(item.get("subtree", False), bool, f"{item['path']!r}: subtree")
                    out.append(AccessDecl(path=item["path"], subtree=subtree))
                except BadPathTemplateError as exc:
                    raise ValidationError(str(exc)) from exc
            return out

        return cls(
            reads=decls("reads"),
            writes=decls("writes"),
            session_read=_typed(data.get("session_read", False), bool, "session_read"),
            session_write=_typed(data.get("session_write", False), bool, "session_write"),
            outputs=data.get("outputs"),
        )


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
        outputs=copy.deepcopy(schema.outputs),
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


def substitute_resolved(args: Any, store: FutureStore, only: Container[str] | None = None) -> Any:
    """Replace every future identifier leaf with its resolved value; with
    ``only``, just the leaves that are ids in it, every other leaf kept.

    Raises UnresolvedArgumentError when any referenced future is not in the
    Resolved state; callers wait on argument futures before substituting.
    """

    def named(node: str) -> bool:
        if only is not None:
            return node in only
        return looks_like_future_id(node) and store.known(node)

    def leaf(node: Any, path: tuple) -> Any:
        if isinstance(node, str) and named(node):
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
    for entry in data["tools"]:
        schema = FunctionSchema.from_json(entry)
        if schema.name in seen:
            raise ValidationError(f"{path}: duplicate tool name {schema.name!r}")
        seen.add(schema.name)
        annotation = None
        if entry.get("annotation") is not None:
            try:
                annotation = DependencyAnnotation.from_json(entry["annotation"])
            except ValidationError as exc:
                raise ValidationError(f"{path}: tool {schema.name!r}: {exc}") from exc
        out.append((schema, annotation))
    return out
