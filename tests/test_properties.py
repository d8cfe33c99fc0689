from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from futurecall import (
    DependencyAnnotation,
    FutureStore,
    VirtualClock,
    effective_union,
    futurize_output_template,
    scan_future_refs,
    sequential_sum,
    substitute_resolved,
    transform_schema,
)
from futurecall.scheduler import (
    READ,
    WRITE,
    Access,
    CallRecord,
    ResourcePath,
    Scheduler,
    SessionState,
    conflicts,
    resolve_paths,
)
from futurecall.schema import AccessDecl, FunctionSchema, ParamSpec

# -- interval properties ------------------------------------------------------

intervals = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 20)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=20,
)


@given(intervals)
def test_union_never_exceeds_sum(ivs):
    assert effective_union(ivs) <= sequential_sum(ivs) + 1e-9


@given(intervals, st.tuples(st.integers(0, 50), st.integers(0, 20)))
def test_union_and_sum_monotone(ivs, extra):
    start, width = extra
    bigger = ivs + [(start, start + width)]
    assert effective_union(bigger) >= effective_union(ivs)
    assert sequential_sum(bigger) >= sequential_sum(ivs)


@given(intervals)
def test_union_invariant_under_permutation(ivs):
    assert effective_union(ivs) == effective_union(list(reversed(ivs)))


# -- conflict predicate properties ------------------------------------------------

paths = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(
    lambda segs: ResourcePath(tuple(segs))
)
accesses = st.builds(
    Access, path=paths, mode=st.sampled_from([READ, WRITE]), subtree=st.booleans()
)


@given(accesses, accesses)
def test_conflicts_symmetric(a, b):
    assert conflicts(a, b) == conflicts(b, a)


@given(accesses, accesses)
def test_read_read_never_conflicts(a, b):
    if a.mode == READ and b.mode == READ:
        assert not conflicts(a, b)


@given(accesses)
def test_write_self_conflicts(a):
    if a.mode == WRITE:
        assert conflicts(a, a)


@given(accesses)
def test_root_subtree_write_conflicts_with_everything(a):
    root_write = Access(ResourcePath(()), WRITE, True)
    assert conflicts(root_write, a)


# -- futurize and scan properties ---------------------------------------------------

# Literal strings shaped like future ids are excluded: exact-leaf matching
# makes them indistinguishable from real references by design.
json_value = st.recursive(
    st.one_of(
        st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
        st.text(max_size=6).filter(lambda s: not s.startswith("fut_")),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=4).filter(lambda s: "." not in s), children, max_size=3),
    ),
    max_leaves=12,
)


def shape(node):
    if isinstance(node, dict):
        return {k: shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [shape(v) for v in node]
    return "*"


@settings(max_examples=60)
@given(json_value)
def test_futurize_preserves_shape(template):
    store = FutureStore(VirtualClock())
    base = store.create()
    out = futurize_output_template(template, base, store)
    assert shape(out) == shape(template)


@settings(max_examples=60)
@given(json_value)
def test_substitute_after_resolution_reconstructs_template(template):
    store = FutureStore(VirtualClock())
    base = store.create()
    futurized = futurize_output_template(template, base, store)
    store.resolve(base, template)
    assert substitute_resolved(futurized, store) == template


@given(st.lists(st.integers(0, 1000), max_size=8))
def test_scan_never_reports_unregistered_ids(numbers):
    store = FutureStore(VirtualClock())
    registered = store.create()
    args = {"xs": [f"fut_{n + 1}" for n in numbers], "ok": registered}
    refs = scan_future_refs(args, store)
    assert all(fid == registered for _, fid in refs)


@settings(max_examples=40)
@given(json_value)
def test_scan_is_pure(args):
    store = FutureStore(VirtualClock())
    before = store.ids()
    scan_future_refs(args, store)
    assert store.ids() == before


# -- schema transformation property ---------------------------------------------------

param_types = st.sampled_from(["string", "number", "integer", "boolean", "array", "object"])


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5).filter(str.isidentifier),
        st.builds(ParamSpec, type=param_types, description=st.text(max_size=10)),
        max_size=4,
    )
)
def test_transform_idempotent_for_any_parameter_map(params):
    schema = FunctionSchema(name="tool", description="d", parameters=params)
    once = transform_schema(schema)
    assert transform_schema(once) == once
    assert all(p.accepts_future for p in once.parameters.values())


# -- label index against a scan of every live label -----------------------------

# Segments spelled like an access mode or a missing key must behave as plain
# path segments.
index_paths = st.lists(st.sampled_from(["a", "b", "read", "write", "None"]), max_size=3)
index_accesses = st.lists(
    st.tuples(index_paths, st.sampled_from([READ, WRITE]), st.booleans()), min_size=1, max_size=3
)
index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), index_accesses),
        st.tuples(st.just("release"), st.integers(0, 30)),
    ),
    max_size=30,
)


def _scan_edge_kind(producer_mode: str, consumer_mode: str) -> str:
    if producer_mode == WRITE:
        return "gate-raw" if consumer_mode == READ else "gate-waw"
    return "gate-war"


@given(index_ops)
@settings(max_examples=200, deadline=None)
def test_blocking_gates_match_a_scan_of_live_labels(ops):
    clock = VirtualClock()
    store = FutureStore(clock)
    session = SessionState(store=store)
    scheduler = Scheduler(store, session, clock)
    calls: list[CallRecord] = []
    for n, (op, arg) in enumerate(ops):
        if op == "release":
            live = [c for c in calls if not c.terminal]
            if live:
                scheduler.mark_cancelled(live[arg % len(live)], "fut_cause", "origin")
            continue
        decls = {READ: [], WRITE: []}
        for segments, mode, subtree in arg:
            decls[mode].append(AccessDecl("/" + "/".join(segments), subtree))
        annotation = DependencyAnnotation(reads=decls[READ], writes=decls[WRITE])
        call = CallRecord(call_id=f"C{n}", tool="t", args={}, annotation=annotation)
        accesses = resolve_paths(annotation, {}, session, store)

        gates: set[str] = set()
        edges: list[tuple[str, str, str]] = []
        for label in scheduler.live_labels:
            for access in accesses:
                if conflicts(label.access, access):
                    gates.add(label.gate)
                    edge = (label.owner, call.call_id, _scan_edge_kind(label.access.mode, access.mode))
                    if edge not in edges:
                        edges.append(edge)
        before = len(scheduler.edges)
        scheduler.submit(call)
        calls.append(call)
        assert call.blocking_gates == gates
        assert [(e.producer, e.consumer, e.kind) for e in scheduler.edges[before:]] == edges
        assert scheduler.live_labels == [lab for c in calls if not c.terminal for lab in c.labels]
