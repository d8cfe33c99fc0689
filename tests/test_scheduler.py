from __future__ import annotations

import gc
from collections import Counter

import pytest

import futurecall.executor as executor_mod
import futurecall.futures as futures_mod
import futurecall.scheduler as scheduler_mod
from futurecall import DependencyAnnotation, FutureStore, TurnDriver, VirtualClock, run_workload
from futurecall.errors import (
    AlreadyTerminalError,
    ErrorInfo,
    LeakedFutureError,
    NotTerminalError,
)
from futurecall.futures import Latch
from futurecall.schema import AccessDecl
from futurecall.workload import workload_from_json
from futurecall.scheduler import (
    READ,
    WRITE,
    Access,
    Scheduler,
    SessionState,
    conflicts,
    resolve_paths,
)

from conftest import capture_gates, new_call


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


class TestResolvePaths:
    def test_parameter_substitution(self):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(writes=[("/files/{name}", False)])
        out = resolve_paths(ann, {"name": "a.txt"}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/files/a.txt"]

    def test_plain_path_always_resolvable(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(annotation(reads=[("/x", False)]), {}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/x"]

    def test_pending_future_defers(self):
        scheduler, store, session, _ = make_scheduler()
        rec = store.create()
        fid = rec.fid
        found = {fid: rec}
        ann = annotation(writes=[("/files/{name}", False)])
        out = resolve_paths(ann, {"name": fid}, session, found)
        assert out is found[fid]
        store.resolve(rec, "a.txt")
        out = resolve_paths(ann, {"name": fid}, session, found)
        assert ["/" + "/".join(a.path) for a in out] == ["/files/a.txt"]

    def test_failed_future_returns_its_settled_record(self):
        scheduler, store, session, _ = make_scheduler()
        rec = store.create(owner_call="P")
        fid = rec.fid
        store.fail(rec, ErrorInfo("execution-error", "boom", "P"))
        found = {fid: rec}
        out = resolve_paths(annotation(writes=[("/files/{name}", False)]), {"name": fid}, session, found)
        assert out is found[fid]
        assert (out.status, out.error.origin_call) == ("failed", "P")

    def test_a_future_id_the_scan_did_not_record_is_literal_text(self):
        scheduler, store, session, _ = make_scheduler()
        rec = store.create(owner_call="P")
        fid = rec.fid
        store.resolve(rec, "a.txt")
        out = resolve_paths(annotation(writes=[("/files/{name}", False)]), {"name": fid}, session, {})
        assert [a.path for a in out] == [("files", fid)]

    def test_unknown_parameter_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(annotation(reads=[("/x/{nope}", False)]), {}, session, {})
        assert out == scheduler_mod.fallback_accesses()

    def test_non_scalar_substitution_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(
            annotation(reads=[("/x/{v}", False)]), {"v": {"k": 1}}, session, {}
        )
        assert out == scheduler_mod.fallback_accesses()
        rec = store.create()
        fid = rec.fid
        found = {fid: rec}
        ann = annotation(reads=[("/y", False)], writes=[("/x/{v}", False)])
        assert resolve_paths(ann, {"v": fid}, session, found) is found[fid]
        store.resolve(rec, ["a", "b"])
        assert resolve_paths(ann, {"v": fid}, session, found) == scheduler_mod.fallback_accesses()

    def test_substituted_text_is_not_a_template(self):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(reads=[("/x/{v}-{w}", False)])
        out = resolve_paths(ann, {"v": "{w}", "w": "z"}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/x/{w}-z"]

    def test_a_filled_value_is_split_at_slashes(self):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(writes=[("/fs/{path}", False)])
        out = resolve_paths(ann, {"path": "src//main.py/"}, session, {})
        assert [a.path for a in out] == [("fs", "src", "main.py")]

    @pytest.mark.parametrize("value", ["../etc", "./x"])
    def test_dot_segment_in_a_filled_value_falls_back(self, value):
        scheduler, store, session, _ = make_scheduler()
        ann = annotation(writes=[("/fs/{path}", False)])
        assert resolve_paths(ann, {"path": value}, session, {}) == scheduler_mod.fallback_accesses()

    def test_dot_segment_in_a_session_binding_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/ws/../x"
        out = resolve_paths(annotation(reads=[("$session/cwd/a", False)]), {}, session, {})
        assert out == scheduler_mod.fallback_accesses()

    def test_no_annotation_gets_root_fallback(self):
        scheduler, store, session, _ = make_scheduler()
        out = resolve_paths(None, {}, session, {})
        assert {("/" + "/".join(a.path), a.mode, a.subtree) for a in out} == {
            ("/", READ, True),
            ("/", WRITE, True),
        }

    def test_session_path_resolves_against_bindings(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        ann = annotation(reads=[("$session/cwd/notes.txt", False)])
        out = resolve_paths(ann, {}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/fs/home/notes.txt"]

    def test_session_path_defers_while_write_in_flight(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/fs/home"
        session.reserve_write("W1")
        ann = annotation(reads=[("$session/cwd", False)])
        assert resolve_paths(ann, {}, session, {}) is session.writes[1][0]
        scheduler._end_session_write(1, {"cwd": "/fs/other"})
        assert session.writes[1][0].done
        out = resolve_paths(ann, {}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/fs/other"]

    def test_unknown_session_binding_falls_back(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings.update(cwd=["/fs"], rel="fs/home")
        for name in ("nope", "cwd", "rel"):
            out = resolve_paths(annotation(reads=[(f"$session/{name}/x", False)]), {}, session, {})
            assert out == scheduler_mod.fallback_accesses(), name

    def test_session_binding_is_a_literal_path(self):
        scheduler, store, session, _ = make_scheduler()
        session.bindings["cwd"] = "/ws/{dir}"
        ann = annotation(reads=[("$session/cwd/{name}", False)])
        out = resolve_paths(ann, {"dir": "src", "name": "a.py"}, session, {})
        assert ["/" + "/".join(a.path) for a in out] == ["/ws/{dir}/a.py"]


class TestAdmission:
    def test_submit_returns_future_immediately(self):
        # Submission only enqueues and admits: the call is dispatched, and
        # its result future stays pending until the call runs.
        scheduler, store, _, _ = make_scheduler()
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        c = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        assert scheduler.submit([c], [True]) is None
        assert dispatched == [c] and c.status == "admitted"
        assert store.pending_ids() == [c.result.fid]

    def test_fifo_admission_both_heads_resolvable(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        c2 = new_call(scheduler, "F2", annotation(reads=[("/b", False)]))
        scheduler.submit([c1], [True])
        scheduler.submit([c2], [True])
        assert c1.status == "admitted" and c2.status == "admitted"

    def test_blocked_head_blocks_rest_of_queue(self):
        scheduler, store, _, _ = make_scheduler()
        pending = store.create()
        c1 = new_call(scheduler, "F1", annotation(writes=[("/f/{n}", False)]), args={"n": pending.fid})
        c2 = new_call(scheduler, "F2", annotation(reads=[("/b", False)]))
        scheduler.submit([c1], [True])
        scheduler.submit([c2], [True])
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
        gates = capture_gates(scheduler)
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        c2 = new_call(scheduler, "F2", annotation(reads=[("/a", False)]))
        scheduler.submit([c1], [True])
        scheduler.submit([c2], [True])
        assert gates["F2"] == {c1.labels[0]}
        assert ("F1", "F2", "gate-raw") in [
            (e.producer, e.consumer, e.kind) for e in scheduler.edges
        ]

    def test_disjoint_paths_no_gates(self):
        scheduler, _, _, _ = make_scheduler()
        gates = capture_gates(scheduler)
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        c2 = new_call(scheduler, "F2", annotation(reads=[("/b", False)]))
        scheduler.submit([c1], [True])
        scheduler.submit([c2], [True])
        assert gates["F2"] == set()

    def test_session_reader_blocks_on_version_gate_one(self):
        scheduler, store, session, _ = make_scheduler()
        gates = capture_gates(scheduler)
        writer = new_call(scheduler, "W1", annotation(session_write=True))
        reader = new_call(scheduler, "R1", annotation(session_read=True))
        scheduler.submit([writer], [True])
        scheduler.submit([reader], [True])
        assert gates["R1"] == {session.writes[1][0]}

    def test_session_readers_share_one_gate(self):
        scheduler, _, session, _ = make_scheduler()
        gates = capture_gates(scheduler)
        scheduler.submit([new_call(scheduler, "W1", annotation(session_write=True))], [True])
        scheduler.submit([new_call(scheduler, "R1", annotation(session_read=True))], [True])
        scheduler.submit([new_call(scheduler, "R2", annotation(session_read=True))], [True])
        assert gates["R1"] == gates["R2"] == {session.writes[1][0]}

    def test_gates_come_once_each_in_hit_order_with_the_session_gate_last(self):
        # C reads W's subtree and writes inside it, so W's label is hit
        # twice; its write of /b hits both readers.
        scheduler, _, session, _ = make_scheduler()
        gates = capture_gates(scheduler)
        w = new_call(scheduler, "W", annotation(writes=[("/a", True)]))
        r1 = new_call(scheduler, "R1", annotation(reads=[("/b", False)]))
        r2 = new_call(scheduler, "R2", annotation(reads=[("/b", False)]))
        sw = new_call(scheduler, "SW", annotation(session_write=True))
        c = new_call(
            scheduler, "C", annotation(reads=[("/a", False)], writes=[("/a/x", False), ("/b", False)], session_read=True)
        )
        for call in (w, r1, r2, sw, c):
            scheduler.submit([call], [True])
        assert list(gates["C"]) == [w.labels[0], r1.labels[0], r2.labels[0], session.writes[1][0]]


class TestRelease:
    def test_release_unblocks_dependent(self):
        scheduler, store, _, _ = make_scheduler()
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        c2 = new_call(scheduler, "F2", annotation(reads=[("/a", False)]))
        scheduler.submit([c1], [True])
        scheduler.submit([c2], [True])
        assert dispatched == [c1]
        c1.dispatched_at = 0.0
        store.resolve(c1.result, {})
        scheduler.release(c1)
        assert dispatched == [c1, c2]
        assert scheduler.live_labels == c2.labels

    def test_release_requires_terminal(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1")
        scheduler.submit([c1], [True])
        with pytest.raises(NotTerminalError):
            scheduler.release(c1)

    @pytest.mark.parametrize(
        "ann", [annotation(writes=[("/a", False)]), annotation(session_write=True)], ids=["label", "session-writer"]
    )
    def test_second_release_of_a_done_call_raises(self, ann):
        scheduler, store, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1", ann)
        scheduler.submit([c1], [True])
        store.resolve(c1.result, {})
        scheduler.release(c1)
        with pytest.raises(AlreadyTerminalError):
            scheduler.release(c1)

    def test_cancelling_a_terminal_call_raises(self):
        scheduler, store, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        scheduler.submit([c1], [True])
        store.resolve(c1.result, {})
        with pytest.raises(AlreadyTerminalError):
            scheduler.mark_cancelled(c1, "X")
        assert c1.status == "done"

    def test_release_without_labels_is_bookkeeping_only(self):
        scheduler, store, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1", annotation())  # empty annotation: no labels
        scheduler.submit([c1], [True])
        c1.dispatched_at = 0.0
        store.resolve(c1.result, {})
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
        w = new_call(scheduler, "W", annotation(writes=[("/a", False)], session_write=True))
        s = new_call(scheduler, "S", annotation(session_read=True))
        r = new_call(scheduler, "R", annotation(reads=[("/a", False)]))
        for c in (w, s, r):
            scheduler.submit([c], [True])
        assert dispatched == [w]
        w.dispatched_at = 0.0
        if status == "done":
            store.resolve(w.result, {"cwd": "/new"})
        else:
            store.fail(w.result, ErrorInfo("execution-error", "boom", "W"))
        assert w.status == status
        scheduler.release(w)
        assert dispatched == ([w, s, r] if status == "done" else [w, r, s])
        assert session.bindings["cwd"] == ("/new" if status == "done" else "/old")
        assert session.writes[-1][0].done

    def test_cancelled_session_writer_holds_its_version_behind_the_previous_one(self):
        # R1 reads the session behind W2 alone; W2 is cancelled before it
        # runs, and W1, the writer before it, is still running.
        scheduler, store, session, _ = make_scheduler()
        gates = capture_gates(scheduler)
        dispatched = []
        scheduler.on_dispatch = dispatched.append
        w1 = new_call(scheduler, "W1", annotation(session_write=True))
        w2 = new_call(scheduler, "W2", annotation(session_write=True))
        r1 = new_call(scheduler, "R1", annotation(session_read=True))
        for c in (w1, w2, r1):
            scheduler.submit([c], [True])
        assert gates["R1"] == {session.writes[2][0]}
        scheduler.mark_cancelled(w2, "origin")
        assert dispatched == [w1]
        assert not session.writes[-1][0].done
        w1.dispatched_at = 0.0
        store.resolve(w1.result, {})
        scheduler.release(w1)
        assert dispatched == [w1, r1]
        assert session.writes[-1][0].done

    def test_a_call_cancelled_by_an_earlier_dispatch_of_its_pass_is_not_dispatched(self):
        scheduler, _, _, _ = make_scheduler()
        c1 = new_call(scheduler, "F1", annotation(writes=[("/a", False)]))
        c2 = new_call(scheduler, "F2", annotation(writes=[("/b", False)]))
        dispatched = []

        def dispatch(c):
            dispatched.append(c)
            if c is c1:
                scheduler.mark_cancelled(c2, "F1")

        scheduler.on_dispatch = dispatch
        scheduler.submit([c1, c2], [True, True])
        assert dispatched == [c1]
        assert c2.status == "cancelled"

    def test_cancelled_head_with_failed_path_dependency(self):
        scheduler, store, _, _ = make_scheduler()
        producer = store.create(owner_call="P")
        c1 = new_call(scheduler, "F1", annotation(writes=[("/f/{n}", False)]), args={"n": producer.fid})
        scheduler.submit([c1], [True])
        assert c1.status == "queued"
        store.fail(producer, ErrorInfo("execution-error", "boom", "P"))
        assert c1.status == "cancelled"
        assert c1.result.status == "cancelled"


class TestGateDag:
    def test_admission_order_never_violated(self):
        # A later call with resolvable paths is still not admitted past a
        # blocked head, even though its own paths are fine.
        scheduler, store, _, _ = make_scheduler()
        pending = store.create()
        head = new_call(scheduler, "H", annotation(reads=[("/f/{n}", False)]), args={"n": pending.fid})
        later = new_call(scheduler, "L", annotation(reads=[("/elsewhere", False)]))
        scheduler.submit([head], [True])
        scheduler.submit([later], [True])
        assert later.status == "queued"

    def test_a_turn_blocked_partway_records_edges_and_dispatches_as_call_by_call(self, monkeypatch):
        # Turn 2's first call gates on W0 at once; its second call's path
        # needs F0.name, still pending, so it holds the head; the two
        # calls behind it carry @F refs. Edges and dispatches come in the
        # order that submitting the turn's calls one at a time gave.
        dispatched = []
        dispatch = executor_mod.Executor.dispatch

        def recorded(self, c):
            dispatched.append((c.call_id, self.clock.now()))
            dispatch(self, c)

        monkeypatch.setattr(executor_mod.Executor, "dispatch", recorded)

        def tool(name, latency, returns, **ann):
            params = {"x": {"type": "string", "description": "", "required": False}}
            schema = {"name": name, "description": "", "parameters": params}
            return {"schema": schema, "annotation": ann, "latency": latency, "returns": returns}

        spec = workload_from_json(
            {
                "tools": [
                    tool("find", 4, [{"name": "x.txt"}], reads=[{"path": "/index"}]),
                    tool("put", [3, 6], [{}], writes=[{"path": "/a"}]),
                    tool("save", 2, [{}], writes=[{"path": "/files/{x}"}]),
                    tool("show", 1, [{}], reads=[{"path": "/a"}]),
                    tool("note", 1, [{}], writes=[{"path": "/files/x.txt"}]),
                ],
                "script": [
                    {"emit": [{"id": "F0", "name": "find", "args": {}}, {"id": "W0", "name": "put", "args": {}}]},
                    {
                        "emit": [
                            {"id": "F1", "name": "put", "args": {}},
                            {"id": "F2", "name": "save", "args": {"x": "@F0.name"}},
                            {"id": "F3", "name": "show", "args": {"x": "@F0"}},
                            {"id": "F4", "name": "note", "args": {"x": "@F0.name"}},
                        ]
                    },
                    {"when": {"resolved": ["F1", "F2", "F3", "F4"]}, "final": "done"},
                ],
            }
        )
        trace = run_workload(spec, "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert trace.edges == [
            ("W0", "F1", "gate-waw"),
            ("F0", "F2", "arg"),
            ("F0", "F3", "arg"),
            ("F0", "F4", "arg"),
            ("F1", "F3", "gate-raw"),
            ("F2", "F4", "gate-waw"),
        ]
        assert dispatched == [("F0", 1.0), ("W0", 1.0), ("F1", 4.0), ("F2", 5.0), ("F4", 7.0), ("F3", 10.0)]


class TestWorkGrowth:
    """Scheduler work counted, not timed: it must grow with calls and
    edges, not with the square of the live calls."""

    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        """Count ``FutureStore.find``, ``FutureStore.state_of`` and
        ``scheduler.conflicts`` calls."""
        counts = {"find": 0, "state_of": 0, "conflicts": 0}
        find, state_of, conflicts_fn = FutureStore.find, FutureStore.state_of, scheduler_mod.conflicts

        def counted_find(self, fid, hidden=frozenset()):
            counts["find"] += 1
            return find(self, fid, hidden)

        def counted_state_of(self, fid):
            counts["state_of"] += 1
            return state_of(self, fid)

        def counted_conflicts(a, b):
            counts["conflicts"] += 1
            return conflicts_fn(a, b)

        monkeypatch.setattr(FutureStore, "find", counted_find)
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

    def test_a_failure_free_burst_turn_looks_up_no_future_by_id(self, monkeypatch):
        # Each layer passes on the record it made or was handed; ids are
        # parsed only from model or script text, and this turn names none.
        # Looking each result up again at creation and at resolution made
        # 512 of each.
        counts = self.count_calls(monkeypatch)
        trace = run_workload(self.burst_turn([f"C{k}" for k in range(256)]), "async-parallel")
        assert set(trace.call_status.values()) == {"done"}
        assert counts["find"] == counts["state_of"] == 0

    def test_a_drained_burst_turn_keeps_no_latch_but_its_labels_records_and_session_gates(self):
        # A label is its own gate, and a latch or record holds a list only
        # once a waiter or field comes: here none is left once all open.
        gc.collect()
        before = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, Latch)}
        driver = TurnDriver(self.burst_turn([f"C{k}" for k in range(256)]), "async-parallel")
        trace = driver.run()
        assert set(trace.call_status.values()) == {"done"}
        labels = [label for call in driver.scheduler.calls.values() for label in call.labels]
        records = [driver.store.state_of(fid) for fid in driver.store.ids()]
        session = [gate for gate, _ in driver.session.writes]
        kept = {id(latch) for latch in labels + records + session}
        alive = [obj for obj in gc.get_objects() if isinstance(obj, Latch) and id(obj) not in before]
        assert [type(obj).__name__ for obj in alive if id(obj) not in kept] == []
        assert len(labels) == 16 + 2 * 240 and len(records) == 256
        assert all(latch.waiters == () for latch in labels + records + session)
        assert all(record.fields == () for record in records)
        # A call keeps no set of its gates, and the context holds the
        # parsed specs themselves.
        held = [obj for call in driver.scheduler.calls.values() for obj in gc.get_referents(call)]
        assert not any(isinstance(obj, (set, frozenset)) for obj in held)
        (message,) = [m for m in driver.messages if m.tool_calls]
        assert all(a is b for a, b in zip(message.tool_calls, driver.workload.script[0].emit, strict=True))

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

    def test_an_argument_future_is_looked_up_once_by_the_scan(self, monkeypatch):
        # From the second turn's submission on, the argument futures fut_0
        # (C's "@A") and fut_1 (D's literal) are looked up only by the scan,
        # once per leaf: the edges, the waiter, the error check and the
        # substitution read the records it found.
        lookups, submitted = [], []
        submit, find, state_of = Scheduler.submit, FutureStore.find, FutureStore.state_of

        def counted_submit(self, calls, scan):
            submitted.extend(call.call_id for call in calls)
            submit(self, calls, scan)

        def counted(name, original):
            def lookup(self, fid, *rest):
                if "C" in submitted and fid in ("fut_0", "fut_1"):
                    lookups.append((name, fid))
                return original(self, fid, *rest)

            return lookup

        monkeypatch.setattr(Scheduler, "submit", counted_submit)
        monkeypatch.setattr(FutureStore, "find", counted("find", find))
        monkeypatch.setattr(FutureStore, "state_of", counted("state_of", state_of))
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
        assert lookups == [("find", "fut_0"), ("find", "fut_1")]


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

        def counted(annotation, args, session, found):
            out = resolve(annotation, args, session, found)
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
        assert ["admitted" if isinstance(out, list) else out.fid for out in seen] == [
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
        store = FutureStore(VirtualClock())
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
        assert counts["pump"] == 1  # the turn's one pass; no gate readies a call
        assert counts["Access"] == 0

    def test_a_gate_that_readies_no_call_runs_no_pass(self, monkeypatch):
        # The turn's submission at 1 runs one pass for its three calls. R
        # waits on the gates of A (done at 2) and B (done at 3): the first
        # gate to open leaves R waiting, so only the second runs a pass.
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
        assert pumps == [1.0, 3.0]

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
