from __future__ import annotations

import hashlib

import pytest

import futurecall.scheduler as scheduler_mod
from futurecall import DependencyAnnotation, FutureStore, VirtualClock, run_workload
from futurecall.errors import (
    BadPathTemplateError,
    DuplicateCallIdError,
    ErrorInfo,
    NotTerminalError,
)
from futurecall.schema import AccessDecl
from futurecall.workload import workload_from_json
from futurecall.scheduler import (
    NOT_YET_RESOLVABLE,
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


def rp(text: str) -> ResourcePath:
    return ResourcePath.parse(text)


class TestResourcePath:
    def test_parse_and_render(self):
        assert rp("/a/b/c").segments == ("a", "b", "c")
        assert rp("/a/b/c").render() == "/a/b/c"
        assert rp("/").segments == ()
        assert rp("/").render() == "/"

    def test_ancestor_is_proper_prefix(self):
        assert rp("/a").is_ancestor_of(rp("/a/b"))
        assert rp("/").is_ancestor_of(rp("/a"))
        assert not rp("/a").is_ancestor_of(rp("/a"))
        assert not rp("/a/b").is_ancestor_of(rp("/a"))
        assert not rp("/a").is_ancestor_of(rp("/ab"))

    def test_parse_rejects_unrooted(self):
        with pytest.raises(BadPathTemplateError):
            rp("a/b")


class TestConflicts:
    def test_write_read_same_path(self):
        a = Access(rp("/vehicle/drive"), WRITE, False)
        b = Access(rp("/vehicle/drive"), READ, False)
        assert conflicts(a, b)

    def test_reads_commute(self):
        a = Access(rp("/a"), READ, False)
        assert not conflicts(a, Access(rp("/a"), READ, False))

    def test_root_subtree_write_covers_everything(self):
        root_write = Access(rp("/"), WRITE, True)
        leaf_read = Access(rp("/vehicle/fuel"), READ, False)
        assert conflicts(root_write, leaf_read)

    def test_exact_ancestor_does_not_cover_descendant(self):
        a = Access(rp("/a"), WRITE, False)
        b = Access(rp("/a/b"), READ, False)
        assert not conflicts(a, b)
        assert conflicts(Access(rp("/a"), WRITE, True), b)

    def test_descendant_subtree_flag_is_irrelevant_upward(self):
        a = Access(rp("/a/b"), WRITE, True)
        b = Access(rp("/a"), READ, False)
        assert not conflicts(a, b)

    def test_symmetry(self):
        a = Access(rp("/a"), WRITE, True)
        b = Access(rp("/a/b/c"), READ, False)
        assert conflicts(a, b) == conflicts(b, a)


def make_scheduler():
    clock = VirtualClock()
    store = FutureStore(clock)
    session = SessionState(store=store)
    scheduler = Scheduler(store, session, clock)
    return scheduler, store, session, clock


def annotation(reads=(), writes=(), session_read=False, session_write=False):
    return DependencyAnnotation(
        reads=[AccessDecl(p, s) for p, s in reads],
        writes=[AccessDecl(p, s) for p, s in writes],
        session_read=session_read,
        session_write=session_write,
    )


def call(call_id, ann=None, args=None):
    return CallRecord(call_id=call_id, tool="t", args=args or {}, annotation=ann)


class TestResolvePaths:
    def test_parameter_substitution(self):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(writes=[("/files/{name}", False)])
        out = resolve_paths(ann, {"name": "a.txt"}, session, store)
        assert [a.path.render() for a in out] == ["/files/a.txt"]

    def test_plain_path_always_resolvable(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(annotation(reads=[("/x", False)]), {}, session, store)
        assert [a.path.render() for a in out] == ["/x"]

    def test_pending_future_defers(self):
        scheduler, store, session, _ = make_scheduler()
        fid = store.create()
        ann = annotation(writes=[("/files/{name}", False)])
        out = resolve_paths(ann, {"name": fid}, session, store)
        assert out is NOT_YET_RESOLVABLE
        store.resolve(fid, "a.txt")
        out = resolve_paths(ann, {"name": fid}, session, store)
        assert [a.path.render() for a in out] == ["/files/a.txt"]

    def test_unknown_parameter_raises(self):
        scheduler, store, session, _ = make_scheduler()
        with pytest.raises(BadPathTemplateError):
            resolve_paths(annotation(reads=[("/x/{nope}", False)]), {}, session, store)

    def test_non_scalar_substitution_raises(self):
        scheduler, store, session, _ = make_scheduler()
        with pytest.raises(BadPathTemplateError):
            resolve_paths(
                annotation(reads=[("/x/{v}", False)]), {"v": {"k": 1}}, session, store
            )

    def test_no_annotation_gets_root_fallback(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(None, {}, session, store)
        assert {(a.path.render(), a.mode, a.subtree) for a in out} == {
            ("/", READ, True),
            ("/", WRITE, True),
        }

    def test_session_path_resolves_against_bindings(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        ann = annotation(reads=[("$session/cwd/notes.txt", False)])
        out = resolve_paths(ann, {}, session, store)
        assert [a.path.render() for a in out] == ["/fs/home/notes.txt"]

    def test_session_path_defers_while_write_in_flight(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        session.reserve_write("W1")
        ann = annotation(reads=[("$session/cwd", False)])
        assert resolve_paths(ann, {}, session, store) is NOT_YET_RESOLVABLE
        session.complete_write(1, {"cwd": "/fs/other"}, None)
        out = resolve_paths(ann, {}, session, store)
        assert [a.path.render() for a in out] == ["/fs/other"]

    def test_unknown_session_binding_raises(self):
        scheduler, store, session, _ = make_scheduler()
        with pytest.raises(BadPathTemplateError):
            resolve_paths(annotation(reads=[("$session/nope", False)]), {}, session, store)


class TestAdmission:
    def test_submit_returns_future_immediately(self):
        scheduler, store, _, _ = make_scheduler()
        c = call("F1", annotation(writes=[("/a", False)]))
        fid = scheduler.submit(c)
        assert fid.startswith("fut_")
        assert c.status == "admitted" or c.status == "queued"

    def test_duplicate_call_id_rejected(self):
        scheduler, _, _, _ = make_scheduler()
        scheduler.submit(call("F1"))
        with pytest.raises(DuplicateCallIdError):
            scheduler.submit(call("F1"))

    def test_fifo_admission_both_heads_resolvable(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = call("F1", annotation(writes=[("/a", False)]))
        c2 = call("F2", annotation(reads=[("/b", False)]))
        scheduler.submit(c1)
        scheduler.submit(c2)
        assert c1.status == "admitted" and c2.status == "admitted"

    def test_blocked_head_blocks_rest_of_queue(self):
        scheduler, store, _, _ = make_scheduler()
        pending = store.create()
        c1 = call("F1", annotation(writes=[("/f/{n}", False)]), args={"n": pending})
        c2 = call("F2", annotation(reads=[("/b", False)]))
        scheduler.submit(c1)
        scheduler.submit(c2)
        assert c1.status == "queued"
        assert c2.status == "queued"  # behind the unresolvable head
        store.resolve(pending, "x")
        assert c1.status == "admitted" and c2.status == "admitted"

    def test_empty_queue_admits_nothing(self):
        scheduler, _, _, clock = make_scheduler()
        assert scheduler.try_admit(clock.now()) == []


class TestBlockingGates:
    def test_conflicting_write_read_creates_gate(self):
        scheduler, store, _, _ = make_scheduler()
        c1 = call("F1", annotation(writes=[("/a", False)]))
        c2 = call("F2", annotation(reads=[("/a", False)]))
        scheduler.submit(c1)
        scheduler.submit(c2)
        assert c2.blocking_gates == {c1.labels[0].gate}
        assert ("F1", "F2", "gate-raw") in [
            (e.producer, e.consumer, e.kind) for e in scheduler.edges
        ]

    def test_disjoint_paths_no_gates(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = call("F1", annotation(writes=[("/a", False)]))
        c2 = call("F2", annotation(reads=[("/b", False)]))
        scheduler.submit(c1)
        scheduler.submit(c2)
        assert c2.blocking_gates == set()

    def test_session_reader_blocks_on_version_gate_one(self):
        scheduler, store, session, _ = make_scheduler()
        writer = call("W1", annotation(session_write=True))
        reader = call("R1", annotation(session_read=True))
        scheduler.submit(writer)
        scheduler.submit(reader)
        assert reader.blocking_gates == {session.version_gates[1]}

    def test_session_readers_share_one_gate(self):
        scheduler, _, session, _ = make_scheduler()
        scheduler.submit(call("W1", annotation(session_write=True)))
        r1 = call("R1", annotation(session_read=True))
        r2 = call("R2", annotation(session_read=True))
        scheduler.submit(r1)
        scheduler.submit(r2)
        assert r1.blocking_gates == r2.blocking_gates == {session.version_gates[1]}


class TestRelease:
    def test_release_unblocks_dependent(self):
        scheduler, store, _, _ = make_scheduler()
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        c1 = call("F1", annotation(writes=[("/a", False)]))
        c2 = call("F2", annotation(reads=[("/a", False)]))
        scheduler.submit(c1)
        scheduler.submit(c2)
        assert dispatched == [c1]
        c1.advance_status("dispatched")
        c1.advance_status("running")
        c1.advance_status("done")
        store.resolve(c1.result_future, {})
        scheduler.release(c1)
        assert dispatched == [c1, c2]
        assert scheduler.live_labels == c2.labels

    def test_release_requires_terminal(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = call("F1")
        scheduler.submit(c1)
        with pytest.raises(NotTerminalError):
            scheduler.release(c1)

    def test_release_without_labels_is_bookkeeping_only(self):
        scheduler, store, _, _ = make_scheduler()
        c1 = call("F1", annotation())  # empty annotation: no labels
        scheduler.submit(c1)
        c1.advance_status("dispatched")
        c1.advance_status("running")
        c1.advance_status("done")
        store.resolve(c1.result_future, {})
        scheduler.release(c1)
        assert c1.released

    def test_cancelled_head_with_failed_path_dependency(self):
        scheduler, store, _, _ = make_scheduler()
        producer = store.create(owner_call="P")
        c1 = call("F1", annotation(writes=[("/f/{n}", False)]), args={"n": producer})
        scheduler.submit(c1)
        assert c1.status == "queued"
        store.fail(producer, ErrorInfo("execution-error", "boom", "P"))
        assert c1.status == "cancelled"
        assert store.state_of(c1.result_future).status == "cancelled"


class TestGateDag:
    def test_admission_order_never_violated(self):
        # A later call with resolvable paths is still not admitted past a
        # blocked head, even though its own paths are fine.
        scheduler, store, _, _ = make_scheduler()
        pending = store.create()
        head = call("H", annotation(reads=[("/f/{n}", False)]), args={"n": pending})
        later = call("L", annotation(reads=[("/elsewhere", False)]))
        scheduler.submit(head)
        scheduler.submit(later)
        assert later.status == "queued"


class TestWorkGrowth:
    """Scheduler work counted, not timed: it must grow with calls and
    edges, not with the square of the live calls."""

    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        """Count ``FutureStore.state_of`` and ``scheduler.conflicts`` calls."""
        counts = {"state_of": 0, "conflicts": 0}
        state_of, conflicts_fn = FutureStore.state_of, scheduler_mod.conflicts

        def counted_state_of(self, fid):
            counts["state_of"] += 1
            return state_of(self, fid)

        def counted_conflicts(a, b):
            counts["conflicts"] += 1
            return conflicts_fn(a, b)

        monkeypatch.setattr(FutureStore, "state_of", counted_state_of)
        monkeypatch.setattr(scheduler_mod, "conflicts", counted_conflicts)
        return counts

    def test_wide_turn_of_disjoint_writes_is_linear(self, monkeypatch):
        n = 400
        counts = self.count_calls(monkeypatch)
        ids = [f"C{k}" for k in range(n)]
        spec = workload_from_json(
            {
                "tools": [
                    {
                        "schema": {"name": "put", "description": "", "parameters": {}},
                        "annotation": {"writes": [{"path": "/items/{k}"}]},
                        "latency": 1,
                        "returns": [{}],
                    }
                ],
                "script": [
                    {"emit": [{"id": i, "name": "put", "args": {"k": k}} for k, i in enumerate(ids)]},
                    {"when": {"resolved": ids}, "final": "done"},
                ],
                "context_budget": 2 * n + 16,
            }
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert trace.edges == []
        assert counts["state_of"] <= 4 * n
        assert counts["conflicts"] == 0

    def test_burst_shaped_turn_costs_per_call_not_per_edge(self, monkeypatch):
        # Every 16th call rewrites the /catalog subtree, the rest read it and
        # write their own item: 16 writers, 240 readers and 3,960 edges.
        n = 256
        counts = self.count_calls(monkeypatch)
        ids = [f"C{k}" for k in range(n)]
        spec = workload_from_json(
            {
                "tools": [
                    {
                        "schema": {"name": "reindex", "description": "", "parameters": {}},
                        "annotation": {"writes": [{"path": "/catalog", "subtree": True}]},
                        "latency": 3,
                        "returns": [{}],
                    },
                    {
                        "schema": {"name": "stock", "description": "", "parameters": {}},
                        "annotation": {
                            "reads": [{"path": "/catalog", "subtree": True}],
                            "writes": [{"path": "/items/{k}"}],
                        },
                        "latency": 1,
                        "returns": [{}],
                    },
                ],
                "script": [
                    {
                        "emit": [
                            {"id": i, "name": "reindex", "args": {}}
                            if k % 16 == 0
                            else {"id": i, "name": "stock", "args": {"k": k}}
                            for k, i in enumerate(ids)
                        ]
                    },
                    {"when": {"resolved": ids}, "final": "done"},
                ],
                "context_budget": 2 * n + 16,
            }
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert len(trace.edges) == 3960
        # The edge list, order included, as recorded before the per-edge
        # cost was cut.
        assert hashlib.sha256(repr(trace.edges).encode()).hexdigest() == (
            "c53ba168ebc4ce6df51c9903cf1a30ab3c7b98811de6480208ae96a3f1973d8b"
        )
        # One pairwise check per candidate the index returns, and every
        # candidate here is a distinct edge.
        assert counts["conflicts"] == len(trace.edges)
        assert counts["state_of"] <= 4 * n
