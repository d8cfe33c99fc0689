from __future__ import annotations

from collections import Counter

import pytest

import futurecall.executor as executor_mod
import futurecall.futures as futures_mod
import futurecall.scheduler as scheduler_mod
from futurecall import DependencyAnnotation, FutureStore, TurnDriver, VirtualClock, run_workload
from futurecall.errors import (
    DuplicateCallIdError,
    ErrorInfo,
    LeakedFutureError,
    NotTerminalError,
)
from futurecall.schema import AccessDecl
from futurecall.workload import workload_from_json
from futurecall.scheduler import (
    READ,
    WRITE,
    Access,
    CallRecord,
    Scheduler,
    SessionState,
    conflicts,
    resolve_paths,
)


def rp(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split("/") if part)


class TestConflicts:
    def test_subtree_covers_a_proper_prefix_only(self):
        def covers(ancestor: str, path: str) -> bool:
            write, read = Access(rp(ancestor), WRITE, True), Access(rp(path), READ, False)
            assert conflicts(write, read) == conflicts(read, write)
            return conflicts(write, read)

        assert covers("/a", "/a/b")
        assert covers("/", "/a")
        assert covers("/a", "/a")
        assert not covers("/a/b", "/a")
        assert not covers("/a", "/ab")

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
    session = SessionState()
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
        assert ["/" + "/".join(a.path) for a in out] == ["/files/a.txt"]

    def test_plain_path_always_resolvable(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(annotation(reads=[("/x", False)]), {}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/x"]

    def test_pending_future_defers(self):
        scheduler, store, session, _ = make_scheduler()
        fid = store.create()
        ann = annotation(writes=[("/files/{name}", False)])
        out = resolve_paths(ann, {"name": fid}, session, store)
        assert out == fid
        store.resolve(fid, "a.txt")
        out = resolve_paths(ann, {"name": fid}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/files/a.txt"]

    def test_unknown_parameter_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(annotation(reads=[("/x/{nope}", False)]), {}, session, store)
        assert out == scheduler_mod.fallback_accesses()

    def test_non_scalar_substitution_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(
            annotation(reads=[("/x/{v}", False)]), {"v": {"k": 1}}, session, store
        )
        assert out == scheduler_mod.fallback_accesses()
        fid = store.create()
        ann = annotation(reads=[("/y", False)], writes=[("/x/{v}", False)])
        assert resolve_paths(ann, {"v": fid}, session, store) == fid
        store.resolve(fid, ["a", "b"])
        assert resolve_paths(ann, {"v": fid}, session, store) == scheduler_mod.fallback_accesses()

    def test_substituted_text_is_not_a_template(self):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(reads=[("/x/{v}-{w}", False)])
        out = resolve_paths(ann, {"v": "{w}", "w": "z"}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/x/{w}-z"]

    def test_no_annotation_gets_root_fallback(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(None, {}, session, store)
        assert {("/" + "/".join(a.path), a.mode, a.subtree) for a in out} == {
            ("/", READ, True),
            ("/", WRITE, True),
        }

    def test_session_path_resolves_against_bindings(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        ann = annotation(reads=[("$session/cwd/notes.txt", False)])
        out = resolve_paths(ann, {}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/fs/home/notes.txt"]

    def test_session_path_defers_while_write_in_flight(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        session.reserve_write("W1")
        ann = annotation(reads=[("$session/cwd", False)])
        assert resolve_paths(ann, {}, session, store) is session.writes[1][0]
        session.complete_write(1, {"cwd": "/fs/other"}).open()
        out = resolve_paths(ann, {}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/fs/other"]

    def test_unknown_session_binding_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings.update(cwd=["/fs"], rel="fs/home")
        for name in ("nope", "cwd", "rel"):
            out = resolve_paths(annotation(reads=[(f"$session/{name}/x", False)]), {}, session, store)
            assert out == scheduler_mod.fallback_accesses(), name

    def test_session_binding_is_a_literal_path(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/ws/{dir}"
        ann = annotation(reads=[("$session/cwd/{name}", False)])
        out = resolve_paths(ann, {"dir": "src", "name": "a.py"}, session, store)
        assert ["/" + "/".join(a.path) for a in out] == ["/ws/{dir}/a.py"]


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
        scheduler.try_admit(clock.now())
        assert scheduler.live_labels == [] and not scheduler.edges


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
        assert reader.blocking_gates == {session.writes[1][0]}

    def test_session_readers_share_one_gate(self):
        scheduler, _, session, _ = make_scheduler()
        scheduler.submit(call("W1", annotation(session_write=True)))
        r1 = call("R1", annotation(session_read=True))
        r2 = call("R2", annotation(session_read=True))
        scheduler.submit(r1)
        scheduler.submit(r2)
        assert r1.blocking_gates == r2.blocking_gates == {session.writes[1][0]}


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
        c1.dispatched_at = 0.0
        store.resolve(c1.result.fid, {})
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
        c1.dispatched_at = 0.0
        store.resolve(c1.result.fid, {})
        scheduler.release(c1)
        assert c1.released

    @pytest.mark.parametrize("status", ["done", "failed"])
    def test_session_writer_release_order(self, status):
        # A done writer advances the session and opens its version gate
        # before its label gates; a failed one opens it after them and
        # leaves the bindings as they are.
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/old"
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        w = call("W", annotation(writes=[("/a", False)], session_write=True))
        s = call("S", annotation(session_read=True))
        r = call("R", annotation(reads=[("/a", False)]))
        for c in (w, s, r):
            scheduler.submit(c)
        assert dispatched == [w]
        w.dispatched_at = 0.0
        if status == "done":
            store.resolve(w.result.fid, {"cwd": "/new"})
        else:
            store.fail(w.result.fid, ErrorInfo("execution-error", "boom", "W"))
        assert w.status == status
        scheduler.release(w)
        assert dispatched == ([w, s, r] if status == "done" else [w, r, s])
        assert session.bindings["cwd"] == ("/new" if status == "done" else "/old")
        assert not session.writes_in_flight

    def test_cancelled_session_writer_holds_its_version_behind_the_previous_one(self):
        # R1 reads the session behind W2 alone; W2 is cancelled before it
        # runs, and W1, the writer before it, is still running.
        scheduler, store, session, _ = make_scheduler()
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        w1 = call("W1", annotation(session_write=True))
        w2 = call("W2", annotation(session_write=True))
        r1 = call("R1", annotation(session_read=True))
        for c in (w1, w2, r1):
            scheduler.submit(c)
        assert r1.blocking_gates == {session.writes[2][0]}
        scheduler.mark_cancelled(w2, "origin")
        assert dispatched == [w1]
        assert session.writes_in_flight
        w1.dispatched_at = 0.0
        store.resolve(w1.result.fid, {})
        scheduler.release(w1)
        assert dispatched == [w1, r1]
        assert not session.writes_in_flight

    def test_cancelled_head_with_failed_path_dependency(self):
        scheduler, store, _, _ = make_scheduler()
        producer = store.create(owner_call="P")
        c1 = call("F1", annotation(writes=[("/f/{n}", False)]), args={"n": producer})
        scheduler.submit(c1)
        assert c1.status == "queued"
        store.fail(producer, ErrorInfo("execution-error", "boom", "P"))
        assert c1.status == "cancelled"
        assert store.state_of(c1.result.fid).status == "cancelled"


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

    @staticmethod
    def single_turn(tools: list[dict], emit: list[dict]):
        ids = [call["id"] for call in emit]
        return workload_from_json(
            {
                "tools": tools,
                "script": [{"emit": emit}, {"when": {"resolved": ids}, "final": "done"}],
                "context_budget": 2 * len(ids) + 16,
            }
        )

    def test_wide_turn_of_disjoint_writes_is_linear(self, monkeypatch):
        n = 400
        counts = self.count_calls(monkeypatch)
        ids = [f"C{k}" for k in range(n)]
        spec = self.single_turn(
            [
                {
                    "schema": {"name": "put", "description": "", "parameters": {}},
                    "annotation": {"writes": [{"path": "/items/{k}"}]},
                    "latency": 1,
                    "returns": [{}],
                }
            ],
            [{"id": i, "name": "put", "args": {"k": k}} for k, i in enumerate(ids)],
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert trace.edges == []
        assert counts["state_of"] <= 4 * n
        assert counts["conflicts"] == 0

    @classmethod
    def burst_turn(cls, ids: list[str]):
        """Every 16th call rewrites the /catalog subtree, the rest read it and
        write their own item; the final answer waits on every call."""
        return cls.single_turn(
            [
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
            [
                {"id": i, "name": "reindex", "args": {}}
                if k % 16 == 0
                else {"id": i, "name": "stock", "args": {"k": k}}
                for k, i in enumerate(ids)
            ],
        )

    def test_burst_shaped_turn_costs_per_call_not_per_edge(self, monkeypatch):
        # 16 writers and 240 readers. A reader waits on the last writer, a
        # writer on the last writer and the 15 readers since: 240 + 15 * 16 =
        # 480 edges, where gating on every live conflicting label recorded
        # 3,960.
        n = 256
        counts = self.count_calls(monkeypatch)
        ids = [f"C{k}" for k in range(n)]
        trace = run_workload(self.burst_turn(ids), "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        expected = []
        for k in range(1, n):
            writer = ids[k - k % 16]
            if k % 16:
                expected.append((writer, ids[k], "gate-raw"))
            else:
                expected.append((ids[k - 16], ids[k], "gate-waw"))
                expected.extend((ids[j], ids[k], "gate-war") for j in range(k - 15, k))
        assert trace.edges == expected
        assert len(trace.edges) == 480
        # One pairwise check per candidate the index returns, and every
        # candidate here is a distinct edge.
        assert counts["conflicts"] == len(trace.edges) <= 2 * n
        assert counts["state_of"] <= 4 * n

    @pytest.mark.parametrize("n", [64, 256])
    def test_trigger_wait_binds_every_outcome_at_one_boundary(self, n):
        # The calls settle at many instants while the final answer waits on
        # all of them; one boundary then binds every result, where binding
        # each completion as it settled left n messages and n INTEGRATE events.
        ids = [f"C{k}" for k in range(n)]
        trace = run_workload(self.burst_turn(ids), "async-parallel")
        assert len({end for _, end in trace.exec_intervals()}) > 1
        assert [e.kind for e in trace.events].count("integrate") == 1
        bindings = [
            m.content["resolved_futures"]
            for m in trace.messages
            if isinstance(m.content, dict) and "resolved_futures" in m.content
        ]
        assert len(bindings) == 1
        placeholders = [m.content for m in trace.messages if m.role == "tool"]
        assert len(placeholders) == n
        assert sorted(bindings[0]) == sorted(placeholders)
        # The assistant turn, n placeholders, the binding and the answer.
        assert len(trace.messages) == n + 3

    def test_writers_of_one_path_wait_on_the_last_writer_only(self, monkeypatch):
        n = 400
        counts = self.count_calls(monkeypatch)
        ids = [f"C{k}" for k in range(n)]
        spec = self.single_turn(
            [
                {
                    "schema": {"name": "put", "description": "", "parameters": {}},
                    "annotation": {"writes": [{"path": "/one"}]},
                    "latency": 1,
                    "returns": [{}],
                }
            ],
            [{"id": i, "name": "put", "args": {}} for i in ids],
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert trace.edges == [(ids[k - 1], ids[k], "gate-waw") for k in range(1, n)]
        assert counts["conflicts"] <= 2 * n
        assert counts["state_of"] <= 4 * n

    def test_many_failures_read_each_edge_once(self, monkeypatch):
        # failpairs: n writers of /items/{k} that all fail, each with one
        # reader of its path, so n failures over n edges. Rebuilding the
        # producer -> consumers map per failure read n * n edge entries.
        n = 400

        class CountedEdges(list):
            """An edge list counting the entries read during a walk."""

            walking = False
            read = 0

            def __iter__(self):
                for edge in super().__iter__():
                    self.read += self.walking
                    yield edge

            def __getitem__(self, index):
                got = super().__getitem__(index)
                self.read += self.walking * (len(got) if isinstance(index, slice) else 1)
                return got

        edges = CountedEdges()
        init, cancel = Scheduler.__init__, executor_mod.Executor.cancel_transitive

        def counted_init(self, *args):
            init(self, *args)
            self.edges = edges

        def counted_cancel(self, failed_call_id):
            edges.walking = True
            try:
                return cancel(self, failed_call_id)
            finally:
                edges.walking = False

        monkeypatch.setattr(Scheduler, "__init__", counted_init)
        monkeypatch.setattr(executor_mod.Executor, "cancel_transitive", counted_cancel)
        put = {
            "schema": {"name": "put", "description": "", "parameters": {}},
            "annotation": {"writes": [{"path": "/items/{k}"}]},
            "latency": 1,
            "returns": [{}],
            "error_at": {str(k): "boom" for k in range(n)},
        }
        get = {
            "schema": {"name": "get", "description": "", "parameters": {}},
            "annotation": {"reads": [{"path": "/items/{k}"}]},
            "latency": 1,
            "returns": [{}],
        }
        emit = [{"id": f"W{k}", "name": "put", "args": {"k": k}} for k in range(n)]
        emit += [{"id": f"R{k}", "name": "get", "args": {"k": k}} for k in range(n)]
        trace = run_workload(self.single_turn([put, get], emit), "async-parallel")
        assert Counter(trace.call_status.values()) == {"failed": n, "cancelled": n}
        assert trace.edges == [(f"W{k}", f"R{k}", "gate-raw") for k in range(n)]
        assert edges.read <= 2 * n


class TestBindingWork:
    """The driver's ``@Fk`` binding walks counted, not timed: one per call
    whose arguments hold a reference, none for any other call."""

    TOOL = {
        "schema": {"name": "t", "description": "", "parameters": {}},
        "annotation": {"reads": [{"path": "/catalog", "subtree": True}], "writes": []},
        "latency": 1,
        "returns": [{"id": "x"}],
    }

    @staticmethod
    def count_walks(monkeypatch) -> list:
        walks = []
        substitute = TurnDriver._substitute_refs

        def counted(self, args, bind):
            walks.append(args)
            return substitute(self, args, bind)

        monkeypatch.setattr(TurnDriver, "_substitute_refs", counted)
        return walks

    def two_turns(self, second: list[dict]):
        ids = [call["id"] for call in second]
        return workload_from_json(
            {
                "tools": [self.TOOL],
                "script": [
                    {"emit": [{"id": "A", "name": "t"}, {"id": "B", "name": "t"}]},
                    {"when": {"resolved": ["A", "B"]}, "emit": second},
                    {"when": {"resolved": ids}, "final": "done"},
                ],
            }
        )

    @pytest.mark.parametrize("mode", ["sync-parallel", "async-parallel"])
    def test_burst_shaped_turn_of_ref_free_calls_makes_none(self, monkeypatch, mode):
        walks = self.count_walks(monkeypatch)
        n = 256
        spec = TestWorkGrowth.single_turn(
            [self.TOOL], [{"id": f"C{k}", "name": "t", "args": {"k": k}} for k in range(n)]
        )
        trace = run_workload(spec, mode)
        assert set(trace.call_status.values()) == {"done"}
        assert walks == []

    @pytest.mark.parametrize("mode", ["sync-parallel", "async-parallel"])
    def test_one_walk_per_referencing_call(self, monkeypatch, mode):
        walks = self.count_walks(monkeypatch)
        spec = self.two_turns(
            [
                {"id": "C", "name": "t", "args": {"x": "@A"}},
                {"id": "D", "name": "t", "args": {"y": ["lit", "@B.id"]}},
                {"id": "E", "name": "t", "args": {"z": "A"}},
            ]
        )
        trace = run_workload(spec, mode)
        assert set(trace.call_status.values()) == {"done"}
        assert walks == [{"x": "@A"}, {"y": ["lit", "@B.id"]}]

    def test_literal_future_id_still_records_its_argument_edge(self, monkeypatch):
        walks = self.count_walks(monkeypatch)
        # A's result future is fut_0: the first one the run creates.
        spec = self.two_turns([{"id": "C", "name": "t", "args": {"x": "fut_0"}}])
        trace = run_workload(spec, "async-parallel")
        assert trace.call_status["C"] == "done"
        assert ("A", "C", "arg") in trace.edges
        assert walks == []


class TestArgumentWork:
    """Argument searches, substitutions and future waiters counted: a call
    whose arguments can hold no future id makes none of them."""

    @staticmethod
    def count_work(monkeypatch) -> Counter:
        counts: Counter = Counter()
        for owner, attr in (
            (scheduler_mod, "scan_future_refs"),
            (executor_mod, "substitute_resolved"),
            (FutureStore, "add_waiter"),
        ):

            def counted(*args, _original=getattr(owner, attr), _attr=attr, **kwargs):
                counts[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        return counts

    def test_burst_shaped_ref_free_turn_makes_none(self, monkeypatch):
        counts = self.count_work(monkeypatch)
        n = 256
        spec = TestWorkGrowth.single_turn(
            [
                TestAdmissionWork.tool("reindex", 3, writes=["/catalog"]),
                TestAdmissionWork.tool("stock", 1, reads=["/catalog"], writes=["/items/{k}"]),
            ],
            [
                {"id": f"C{k}", "name": "reindex", "args": {"note": "fut_ure"}}
                if k % 16 == 0
                else {"id": f"C{k}", "name": "stock", "args": {"k": k, "tags": ["a", "x@y"]}}
                for k in range(n)
            ],
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert len(trace.edges) > n
        assert counts == Counter()

    def test_calls_that_can_name_futures_still_make_them(self, monkeypatch):
        counts = self.count_work(monkeypatch)
        spec = TestBindingWork().two_turns(
            [
                {"id": "C", "name": "t", "args": {"x": "@A"}},
                {"id": "D", "name": "t", "args": {"y": ["fut_1"]}},
                {"id": "E", "name": "t", "args": {"z": "A"}},
            ]
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert [e for e in trace.edges if e[2] == "arg"] == [("A", "C", "arg"), ("B", "D", "arg")]
        assert counts == {"scan_future_refs": 2, "substitute_resolved": 2, "add_waiter": 2}


class TestAdmissionWork:
    """What a blocked head and the gates cost, counted: a head is resolved
    when it blocks and once per wake-up of its one waiter, and the store
    holds only the futures the model can see."""

    @staticmethod
    def tool(name, latency, reads=(), writes=(), **annotation):
        return {
            "schema": {"name": name, "description": "", "parameters": {}},
            "annotation": {
                "reads": [{"path": p} for p in reads],
                "writes": [{"path": p} for p in writes],
                **annotation,
            },
            "latency": latency,
            "returns": [{"id": f"{name}-out", "cwd": "/fs/next"}],
        }

    @staticmethod
    def count_resolves(monkeypatch, call_id) -> list:
        """One entry per ``resolve_paths`` call made for ``call_id``, with
        what it returned."""
        seen = []
        resolve = scheduler_mod.resolve_paths

        def counted(annotation, args, session, store):
            out = resolve(annotation, args, session, store)
            if args.get("who") == call_id:
                seen.append(out)
            return out

        monkeypatch.setattr(scheduler_mod, "resolve_paths", counted)
        return seen

    def two_turns(self, tools, first, second):
        ids = [c["id"] for c in first + second]
        return workload_from_json(
            {
                "tools": tools,
                "script": [
                    {"emit": first},
                    {"emit": second},
                    {"when": {"resolved": ids}, "final": "done"},
                ],
                "session_bindings": {"cwd": "/fs/home"},
            }
        )

    def test_blocked_head_resolves_once_per_wake_up(self, monkeypatch):
        # H needs F1.id (ready at 13) and F2.id (at 17); eight other calls
        # settle 8 futures while it waits. It blocks on F1.id, wakes and
        # blocks on F2.id, wakes and is admitted: three resolutions, not one
        # more per future settled meanwhile.
        seen = self.count_resolves(monkeypatch, "H")
        tools = [
            self.tool("slow", [12, 16], writes=["/slow/{k}"]),
            self.tool("fast", [3, 4, 5, 6, 7, 8, 9, 10], writes=["/fast/{k}"]),
            self.tool("save", 1, writes=["/files/{dir}/{name}"]),
        ]
        first = [
            {"id": "F1", "name": "slow", "args": {"k": 1}},
            {"id": "F2", "name": "slow", "args": {"k": 2}},
        ] + [{"id": f"G{k}", "name": "fast", "args": {"k": k}} for k in range(8)]
        second = [
            {"id": "H", "name": "save", "args": {"who": "H", "dir": "@F1.id", "name": "@F2.id"}},
            {"id": "L", "name": "fast", "args": {"k": 99}},
        ]
        driver = TurnDriver(self.two_turns(tools, first, second), "async-parallel")
        trace = driver.run()
        assert set(trace.call_status.values()) == {"done"}
        f1, f2 = driver.calls["F1"].result.fid, driver.calls["F2"].result.fid
        assert [out if isinstance(out, str) else "admitted" for out in seen] == [
            f"{f1}.id",
            f"{f2}.id",
            "admitted",
        ]
        # L waited behind H and was admitted right after it.
        assert driver.calls["L"].admitted_at == driver.calls["H"].admitted_at

    def test_session_read_behind_a_write_resolves_once_per_wake_up(self, monkeypatch):
        seen = self.count_resolves(monkeypatch, "R")
        tools = [
            self.tool("cd", 9, session_write=True),
            self.tool("fast", [3, 4, 5, 6, 7, 8, 9, 10], writes=["/fast/{k}"]),
            self.tool("cat", 1, reads=["$session/cwd/notes"], session_read=True),
        ]
        first = [{"id": "W", "name": "cd", "args": {}}] + [
            {"id": f"G{k}", "name": "fast", "args": {"k": k}} for k in range(8)
        ]
        second = [{"id": "R", "name": "cat", "args": {"who": "R"}}]
        driver = TurnDriver(self.two_turns(tools, first, second), "async-parallel")
        trace = driver.run()
        assert set(trace.call_status.values()) == {"done"}
        assert len(seen) == 2
        assert seen[0] is driver.session.writes[1][0]
        assert ["/" + "/".join(a.path) for a in seen[1]] == ["/fs/next/notes"]

    def test_woken_head_goes_after_the_inputs_consumers(self):
        # C reads /g behind F0 and takes F1.id as an argument; H's path needs
        # F1.id. C is dispatched at 4, after H blocked at 2, so C's waiter on
        # F1.id comes after H's. The head is woken after its input's other
        # waiters, so C is scheduled first and, both ending at 13, ends first.
        tools = [
            self.tool("lookup", 10),
            self.tool("block", 3, writes=["/g"]),
            self.tool("use", 2, reads=["/g"]),
            self.tool("save", 2, writes=["/files/{name}"]),
        ]
        spec = self.two_turns(
            tools,
            [{"id": "F1", "name": "lookup", "args": {}}, {"id": "F0", "name": "block", "args": {}}],
            [
                {"id": "C", "name": "use", "args": {"x": "@F1.id"}},
                {"id": "H", "name": "save", "args": {"name": "@F1.id"}},
            ],
        )
        trace = run_workload(spec, "async-parallel")
        execs = [(e.id, e.t0, e.t1) for e in trace.events if e.kind == "exec"]
        assert execs == [
            ("F0", 1.0, 4.0),
            ("F1", 1.0, 11.0),
            ("C", 11.0, 13.0),
            ("H", 11.0, 13.0),
        ]

    def test_store_has_no_observer_api(self):
        store = FutureStore()
        assert not hasattr(FutureStore, "add_observer")
        assert not hasattr(store, "_observers")

    def test_burst_shaped_turn_creates_one_future_per_call(self):
        n = 256
        spec = TestWorkGrowth.single_turn(
            [
                self.tool("reindex", 3, writes=["/catalog"]),
                self.tool("stock", 1, reads=["/catalog"], writes=["/items/{k}"]),
            ],
            [
                {"id": f"C{k}", "name": "reindex", "args": {}}
                if k % 16 == 0
                else {"id": f"C{k}", "name": "stock", "args": {"k": k}}
                for k in range(n)
            ],
        )
        driver = TurnDriver(spec, "async-parallel")
        trace = driver.run()
        assert set(trace.call_status.values()) == {"done"}
        assert len(trace.edges) > n  # the gates were there, and none is a future
        assert driver.store.ids() == [f"fut_{k}" for k in range(n)]

    def test_ready_calls_of_literal_writes_make_no_waiter_and_no_access(self, monkeypatch):
        # Each call writes its own literal path, so every gate it could
        # wait on is open at admission and its access was built at load.
        counts: Counter = Counter()

        def counting(owner, attr):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[attr] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        n = 256
        spec = TestWorkGrowth.single_turn(
            [self.tool(f"put{k}", 1 + k % 5, writes=[f"/items/{k}"]) for k in range(n)],
            [{"id": f"C{k}", "name": f"put{k}", "args": {}} for k in range(n)],
        )
        counting(futures_mod, "_Waiter")
        counting(Scheduler, "pump")
        counting(scheduler_mod, "Access")
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert trace.edges == []
        assert counts["_Waiter"] == 0
        assert counts["pump"] <= n + 2
        assert counts["Access"] == 0

    def test_a_gate_that_readies_no_call_runs_no_pass(self, monkeypatch):
        # R waits on the gates of A (done at 2) and B (done at 3): the
        # first gate to open leaves R waiting, so only the second runs a pass.
        pumps = []
        pump = Scheduler.pump

        def counted(self):
            pumps.append(self.clock.now())
            pump(self)

        monkeypatch.setattr(Scheduler, "pump", counted)
        spec = TestWorkGrowth.single_turn(
            [
                self.tool("wa", 1, writes=["/a"]),
                self.tool("wb", 2, writes=["/b"]),
                self.tool("r", 1, reads=["/a", "/b"]),
            ],
            [{"id": c, "name": name, "args": {}} for c, name in (("A", "wa"), ("B", "wb"), ("R", "r"))],
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert pumps == [1.0, 1.0, 1.0, 3.0]

    @pytest.mark.parametrize(
        "annotation,error_at,shut",
        [
            ({"writes": ["/x"]}, {}, "C0 write /x"),
            ({"session_write": True}, {"0": "boom"}, "session version 1"),
        ],
    )
    def test_a_gate_never_opened_is_a_leak(self, monkeypatch, annotation, error_at, shut):
        # A failed session writer's gate opens only through release.
        monkeypatch.setattr(Scheduler, "release", lambda self, call: None)
        tool = {**self.tool("t", 1, **annotation), "error_at": error_at}
        spec = TestWorkGrowth.single_turn([tool], [{"id": "C0", "name": "t", "args": {}}])
        with pytest.raises(LeakedFutureError, match=shut):
            run_workload(spec, "async-parallel")
