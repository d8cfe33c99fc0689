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
import re
from dataclasses import dataclass, field, replace
from types import NoneType
from typing import AbstractSet, Any, Callable, Mapping

from .errors import (
    BadPathTemplateError,
    InvalidSchemaError,
    UnresolvedArgumentError,
    ValidationError,
)
from .futures import FUTURE_ID_RE, RESOLVED, FutureRecord, FutureStore

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


# The deepest nesting of objects and arrays that JSON text from outside the
# program may have. Argument, output and result trees are walked by
# recursion, and about 500 levels take that past Python's default stack.
MAX_JSON_DEPTH = 100


def load_json(text: str | bytes) -> Any:
    """Parse JSON text from outside the program. Text that is not JSON, or
    that nests objects and arrays deeper than ``MAX_JSON_DEPTH``, raises
    ``ValueError``; so does text too deep for ``json`` itself to parse."""
    too_deep = f"it nests objects and arrays deeper than {MAX_JSON_DEPTH} levels"
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(too_deep) from None
    level = [data]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            child
            for node in level
            if isinstance(node, (dict, list))
            for child in (node.values() if isinstance(node, dict) else node)
        ]
    if any(isinstance(node, (dict, list)) for node in level):
        raise ValueError(too_deep)
    return data


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
              "session_write": bool}
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
DOT_PARTS = frozenset({".", ".."})
# A ``{param}`` placeholder; its name holds no "/".
PLACEHOLDER = re.compile(r"\{([^}/]*)\}")

READ = "read"
WRITE = "write"


def split_path(text: str) -> tuple[str, ...]:
    """The segments a path's text names: split at "/", empty parts dropped."""
    return tuple(filter(None, text.split("/")))


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


@dataclass(slots=True)
class AccessDecl:
    """One read or write label: a path template plus its scope flag.

    The template is parsed once, when the declaration is built. ``binding``
    is the session binding name of a ``$session/name/...`` template and None
    for a /-rooted one. ``parts`` alternate literal text and ``{param}``
    names over the rest of the template (after the binding's name and its
    "/"), starting and ending with literal text:
    ``"/ws/{dir}/{file}"`` is ``("/ws/", "dir", "/", "file", "")``. Every
    path is read by one rule: fill the text, then ``split_path`` it, so a
    "/" in a filled value separates segments as one in the template does. A
    template that is neither /-rooted nor session-relative, names no binding
    after ``$session/``, has a "." or ".." segment, or has a brace pair that
    is unclosed or spans a "/" raises BadPathTemplateError.

    A literal template, with no binding and no placeholder, resolves to the
    same accesses for every call: ``literal`` maps each mode to its one
    ``Access``, built here. It is None for any other template. ``prefix``
    is the subtree every filling of a template lies in: a literal
    template's own path, the whole segments of ``parts[0]`` before its last
    "/" for any other /-rooted one, so ``/a/x{p}`` has ``("a",)``, and the
    root for a session-relative one, whose binding is known only at
    admission.
    """

    path: str
    subtree: bool = False
    binding: str | None = field(init=False, repr=False)
    parts: tuple[str, ...] = field(init=False, repr=False)
    literal: dict[str, Access] | None = field(init=False, repr=False, compare=False)
    prefix: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rest, binding = self.path, None
        if rest.startswith(SESSION_PREFIX):
            binding, _, rest = rest[len(SESSION_PREFIX) :].partition("/")
            if not binding:
                raise BadPathTemplateError("$session/ needs a binding name")
        elif not rest.startswith("/"):
            raise BadPathTemplateError(f"path template must be /-rooted: {rest!r}")
        if not DOT_PARTS.isdisjoint(path := split_path(self.path)):
            raise BadPathTemplateError(f"'.' or '..' segment in path template {self.path!r}")
        parts = tuple(PLACEHOLDER.split(rest))
        if any("{" in text for text in parts[::2]):
            raise BadPathTemplateError(f"unbalanced braces in path template {self.path!r}")
        self.binding, self.parts, self.literal, self.prefix = binding, parts, None, ()
        if binding is None and len(parts) == 1:
            self.literal = {mode: Access(path, mode, self.subtree) for mode in (READ, WRITE)}
            self.prefix = path
        elif binding is None:
            self.prefix = split_path(parts[0].rpartition("/")[0])


@dataclass
class DependencyAnnotation:
    """Declared resource footprint of one tool.

    Path templates are absolute (``/a/b``), session-relative
    (``$session/name/...``) or argument-parameterized (segments containing
    ``{paramName}``); each ``AccessDecl`` holds its template parsed.
    Admission only fills them: a ``{param}`` takes the call's argument
    value (a future's once it resolves) and ``$session/name`` the binding's
    current path, and neither is read as a template again. The filled text
    is then split at "/", as a literal template is. A call whose templates
    cannot be filled (a missing argument, a value that is not a scalar, a
    binding that is missing or not a /-rooted string) or whose filled text
    has a "." or ".." segment gets the footprint of an unannotated tool: the
    whole tree, read and written.
    """

    reads: list[AccessDecl] = field(default_factory=list)
    writes: list[AccessDecl] = field(default_factory=list)
    session_read: bool = False
    session_write: bool = False

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

    The returned value has the same shape as the example; each leaf becomes
    the field ``store.find`` registers for its path, or keeps its example
    value where ``find`` refuses the id (a key with a dot or whitespace).
    Without a template the bare base identifier stands in for the whole value.
    """
    if example is None:
        return base

    def leaf(node: Any, path: tuple) -> Any:
        if not isinstance(node, (str, int, float, bool)):
            return node
        if not path:
            return base
        field = store.find(base + "." + ".".join(str(key) for key in path))
        return node if field is None else field.fid

    return map_leaves(example, leaf)


def scan_future_refs(args: Any, store: FutureStore, hidden: AbstractSet[str] = frozenset()) -> list[FutureRecord]:
    """The record ``store.find`` gives each string leaf that names a future;
    ``find`` registers a named field of a registered base if no layer did
    before. A leaf naming a future that a call in ``hidden`` owns, or a
    field of one, names none, and registers nothing.

    Matching is exact whole-leaf equality, never substring search, so prose
    arguments that merely mention an identifier are left alone. The records
    come in leaf order, once per leaf that names one.
    """
    refs: list[FutureRecord] = []

    def leaf(node: Any, path: tuple) -> Any:
        if isinstance(node, str):
            record = store.find(node, hidden)
            if record is not None:
                refs.append(record)
        return node

    map_leaves(args, leaf)
    return refs


def substitute_resolved(args: Any, found: Mapping[str, FutureRecord]) -> Any:
    """Replace each string leaf that is an id in ``found`` with the resolved
    value of the record it maps to; every other leaf is kept, literal text.

    Raises UnresolvedArgumentError when any such future is not in the
    Resolved state; callers wait on argument futures before substituting.
    """

    def leaf(node: Any, path: tuple) -> Any:
        if isinstance(node, str) and node in found:
            record = found[node]
            if record.status != RESOLVED:
                raise UnresolvedArgumentError(f"{node} is {record.status}, not resolved")
            return copy.deepcopy(record.value)
        return node

    return map_leaves(args, leaf)


def load_schema_file(path: str) -> list[tuple[FunctionSchema, DependencyAnnotation | None]]:
    """Read a ``{"tools": [...]}`` schema document with inline annotations."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = load_json(fh.read())
    except (OSError, ValueError) as exc:
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
