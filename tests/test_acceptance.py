"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else."""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

from futurecall import (
    annotation_confusion,
    effective_union,
    ideal_speedup,
    lint_context,
    load_workload,
    make_latency_sweep,
    mcnemar,
    overhead_speedup,
    paired_log_speedup_test,
    run_workload,
    savings_decomposition,
    sequential_sum,
)
from futurecall.analysis import trace_to_inputs

from conftest import FIXTURE_NAMES, fixture_path, strip_annotations
from randgen import random_workload


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number} PASS - {description}")


def test_criterion_1_fig1_exact_schedules():
    with criterion(1, "fig1 virtual-clock schedules are exact (19 / 13 / 13)"):
        started = time.perf_counter()
        sync_seq = run_workload(load_workload(fixture_path("fig1")), "sync-sequential")
        sync_par = run_workload(load_workload(fixture_path("fig1")), "sync-parallel")
        async_seq = run_workload(load_workload(fixture_path("fig1")), "async-sequential")
        elapsed = time.perf_counter() - started

        assert sync_seq.end_to_end == 19.0
        assert sync_par.end_to_end == 13.0
        assert async_seq.end_to_end == 13.0

        assert sync_seq.decode_intervals() == [(0, 1), (6, 7), (12, 13), (18, 19)]
        assert sync_seq.exec_intervals_by_call() == {
            "F1": (1, 6),
            "F2": (7, 12),
            "F3": (13, 18),
        }
        assert sync_par.decode_intervals() == [(0, 1), (6, 7), (12, 13)]
        assert sync_par.exec_intervals_by_call() == {
            "F1": (1, 6),
            "F2": (1, 6),
            "F3": (7, 12),
        }
        assert async_seq.decode_intervals() == [(0, 1), (1, 2), (2, 3), (12, 13)]
        assert async_seq.exec_intervals_by_call() == {
            "F1": (1, 6),
            "F2": (2, 7),
            "F3": (7, 12),
        }
        assert elapsed < 1.0


def test_criterion_2_speedup_formulas():
    with criterion(2, "speedup bound and overhead-adjusted formulas"):
        assert ideal_speedup(10, 30, 10) == 4.0
        assert abs(overhead_speedup(10, 40, 20, 0.5) - 2.5) < 1e-12
        assert abs(overhead_speedup(10, 40, 10, 0.5) - 50 / 15) < 1e-12
        boundary = (1 + 0.5) * 10
        assert (
            abs(
                overhead_speedup(10, 40, boundary, 0.5)
                - (10 + 40) / boundary
            )
            < 1e-12
        )


def raster_union(intervals) -> float:
    cells = set()
    for start, end in intervals:
        cells.update(range(int(start), int(end)))
    return float(len(cells))


def test_criterion_3_decomposition_identity_on_random_traces():
    with criterion(3, "saving decomposition identity + union oracle, 1000 traces"):
        rng = random.Random(31415)
        for _ in range(1000):
            cursor = 0
            m = []
            for _ in range(rng.randint(0, 8)):
                cursor += rng.randint(0, 3)
                width = rng.randint(0, 4)
                m.append((cursor, cursor + width))
                cursor += width
            e = []
            for _ in range(rng.randint(0, 20)):
                start = rng.randint(0, 40)
                e.append((start, start + rng.randint(0, 8)))
            report = savings_decomposition(m, e)
            assert report.t_saving == report.delta_ff + report.delta_de  # exact
            assert effective_union(e) == raster_union(e)
            assert effective_union(m + e) == raster_union(m + e)


def test_criterion_4_scheduler_safety_oracle():
    with criterion(4, "async final state == sync-sequential on 500 random workloads"):
        rng = random.Random(27182)
        checked = 0
        while checked < 500:
            spec = random_workload(rng)
            reference = run_workload(spec, "sync-sequential")
            for mode in ("async-sequential", "async-parallel"):
                trace = run_workload(spec, mode)
                assert trace.final_state == reference.final_state, (
                    f"state diverged in {mode} (workload #{checked})"
                )
            stripped = strip_annotations(spec)
            bare = run_workload(stripped, "async-sequential")
            execs = sorted(bare.exec_intervals())
            for (s1, e1), (s2, e2) in zip(execs, execs[1:]):
                assert e1 <= s2, "root-fallback schedule overlapped executions"
            checked += 1


def test_criterion_5_failure_propagation():
    with criterion(5, "fail-chain cancels exactly {F3, F4} and reports origins"):
        trace = run_workload(load_workload(fixture_path("fail-chain")), "async-sequential")
        cancelled = {c for c, s in trace.call_status.items() if s == "cancelled"}
        assert cancelled == {"F3", "F4"}
        assert trace.call_status["F1"] == "done"
        assert trace.call_status["F2"] == "failed"
        failure_msgs = [
            m
            for m in trace.messages
            if m.role == "user"
            and isinstance(m.content, dict)
            and "failed_calls" in m.content
        ]
        assert len(failure_msgs) == 1
        entries = {f["call"]: f for f in failure_msgs[0].content["failed_calls"]}
        assert entries["F2"]["kind"] == "execution-error"
        assert entries["F3"]["kind"] == "cancelled-dependency"
        assert entries["F4"]["kind"] == "cancelled-dependency"
        assert entries["F3"]["origin_call"] == "F2"
        assert entries["F4"]["origin_call"] == "F2"


def test_criterion_6_latency_sweep_shape():
    with criterion(6, "sweep: delta_ff grows linearly, delta_de stays bounded"):
        base = load_workload(fixture_path("pairs"))
        delays = [1, 2, 5, 10, 20]
        reports = []
        for spec in make_latency_sweep(base, delays):
            trace = run_workload(spec, "async-parallel")
            _, _, _, m_ivs, e_ivs = trace_to_inputs(trace)
            reports.append(savings_decomposition(m_ivs, e_ivs))
        total_decode = reports[0].s_m
        ff = [r.delta_ff for r in reports]
        assert all(a < b for a, b in zip(ff, ff[1:])), "delta_ff must be strictly increasing"
        # Closed form for this fixture: three turn-pairs of width d joined at
        # unit decode offsets give S(E)=6d, D(E)=d+2.
        for delay, report in zip(delays, reports):
            assert report.delta_ff == 5 * delay - 2
            assert report.delta_de <= total_decode
        # Asymptotically linear: the per-delay slope approaches a constant.
        assert abs(ff[-1] / delays[-1] - ff[-2] / delays[-2]) < 0.5


def test_criterion_7_annotation_metrics():
    with criterion(7, "annotation confusion metrics at published scale"):
        universe = 1812
        predicted = {("pair", i) for i in range(330)}
        truth = {("pair", i) for i in range(261)} | {("only-truth", i) for i in range(69)}
        metrics = annotation_confusion(predicted, truth, universe)
        assert (metrics["tp"], metrics["fp"], metrics["fn"], metrics["tn"]) == (
            261,
            69,
            69,
            1413,
        )
        assert abs(metrics["accuracy"] - 0.925) <= 0.002
        assert abs(metrics["precision"] - 0.791) <= 0.002
        assert abs(metrics["recall"] - 0.791) <= 0.002
        assert abs(metrics["fp_rate"] - 0.038) <= 0.002
        assert abs(metrics["fn_rate"] - 0.038) <= 0.002


def test_criterion_8_statistics():
    with criterion(8, "mcnemar exact value and constant-ratio geomean"):
        assert mcnemar(8, 2)["chi2"] == 3.6
        result = paired_log_speedup_test([(15.0, 5.0)] * 4)
        assert abs(result.geomean_speedup - 3.0) < 1e-12


def test_criterion_9_protocol_preservation():
    with criterion(9, "zero protocol violations across fixtures, modes, random runs"):
        modes = ("sync-sequential", "sync-parallel", "async-sequential", "async-parallel")
        violations = []
        for name in FIXTURE_NAMES:
            for mode in modes:
                trace = run_workload(load_workload(fixture_path(name)), mode)
                violations.extend(lint_context(trace.messages))
        rng = random.Random(1618)
        for _ in range(50):
            spec = random_workload(rng)
            for mode in modes:
                trace = run_workload(spec, mode)
                violations.extend(lint_context(trace.messages))
        assert violations == []


def test_criterion_10_thinking_overlap():
    with criterion(10, "two delegated subqueries overlap, final answers identical"):
        sync = run_workload(load_workload(fixture_path("thinking")), "sync-sequential")
        async_trace = run_workload(load_workload(fixture_path("thinking")), "async-sequential")
        assert sync.end_to_end - async_trace.end_to_end >= 4.0
        assert sync.final_answer == async_trace.final_answer
        assert async_trace.call_status == {"T1": "done", "T2": "done"}


def test_eq1_lower_bound_never_violated_on_fixtures():
    # Async end-to-end latency can never beat max(decode total, critical path).
    for name in FIXTURE_NAMES:
        for mode in ("async-sequential", "async-parallel"):
            trace = run_workload(load_workload(fixture_path(name)), mode)
            t_llm, t_tool, t_cp, _, _ = trace_to_inputs(trace)
            assert trace.end_to_end >= max(t_llm, t_cp) - 1e-9


def test_measured_speedup_below_ideal_bound_on_fixtures():
    for name in FIXTURE_NAMES:
        baseline = run_workload(load_workload(fixture_path(name)), "sync-sequential")
        base_serial = sequential_sum(baseline.decode_intervals()) + sequential_sum(
            baseline.exec_intervals()
        )
        for mode in ("async-sequential", "async-parallel"):
            trace = run_workload(load_workload(fixture_path(name)), mode)
            t_llm, t_tool, t_cp, _, _ = trace_to_inputs(trace)
            measured = baseline.end_to_end / trace.end_to_end
            assert measured <= base_serial / max(t_llm, t_cp) + 1e-9
