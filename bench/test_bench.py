"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

assert run.use_program()

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from futurecall import workload_from_json  # noqa: E402
from futurecall.scheduler import Scheduler  # noqa: E402


def dumps(conversations) -> str:
    return json.dumps(conversations, sort_keys=True)


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_same_seed_gives_byte_identical_workloads(name):
    first = dumps(gen.GENERATORS[name](7))
    assert dumps(gen.GENERATORS[name](7)) == first
    assert dumps(gen.GENERATORS[name](8)) != first


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_every_state_operation_is_declared(name):
    # An undeclared state operation would make serial equivalence fail for
    # reasons that are the workload's fault, not the scheduler's.
    for conversation in gen.GENERATORS[name](3):
        for tool in conversation["tools"]:
            annotation = tool["annotation"]
            declared = {("read", d["path"], d["subtree"]) for d in annotation["reads"]}
            declared |= {("write", d["path"], d["subtree"]) for d in annotation["writes"]}
            state = tool.get("state", {})
            for op in state.get("reads", []):
                assert ("read", op["path"], op.get("subtree", False)) in declared, tool["schema"]["name"]
            for op in state.get("writes", []):
                assert ("write", op["path"], False) in declared or ("write", op["path"], True) in declared


def agent_conversation_runs(failure_free: bool):
    for conversation in gen.agent_mix(5, count=10, blocks=1):
        if checks.has_injected_failure(conversation) != failure_free:
            spec = workload_from_json(conversation)
            return conversation, {m: harness.driver.run_workload(spec, m) for m in harness.ALL_MODES}
    raise AssertionError("no such conversation")


def test_checks_pass_on_correct_runs():
    _, traces = agent_conversation_runs(failure_free=True)
    baseline = traces[harness.SYNC_SEQUENTIAL]
    for mode, trace in traces.items():
        assert checks.check_trace(trace, baseline) == [], mode
    assert checks.check_same_final_state(traces) == []


def test_checks_catch_a_swapped_final_state():
    _, traces = agent_conversation_runs(failure_free=True)
    other = harness.driver.run_workload(workload_from_json(gen.agent_mix(6, count=1, blocks=1)[0]), harness.ASYNC_PARALLEL)
    assert other.final_state != traces[harness.ASYNC_PARALLEL].final_state
    traces[harness.ASYNC_PARALLEL].final_state = other.final_state
    assert checks.check_same_final_state(traces) == [
        "final_state of async-parallel differs from sync-sequential"
    ]


def test_checks_catch_corrupted_traces():
    _, traces = agent_conversation_runs(failure_free=False)
    baseline = traces[harness.SYNC_SEQUENTIAL]

    open_call = copy.deepcopy(traces[harness.ASYNC_PARALLEL])
    open_call.call_status[next(iter(open_call.call_status))] = "running"
    assert any("not terminal" in p for p in checks.check_trace(open_call, baseline))

    dropped = copy.deepcopy(traces[harness.ASYNC_PARALLEL])
    dropped.messages = [m for m in dropped.messages if m.role != "tool"]
    assert any(p.startswith("protocol") for p in checks.check_trace(dropped, baseline))

    # Claiming a sync-sequential run took a tenth of its time beats the bound.
    too_fast = copy.deepcopy(baseline)
    too_fast.finished = too_fast.started + baseline.end_to_end / 10
    assert any("speedup" in p for p in checks.check_trace(too_fast, baseline))


def test_timed_runs_must_reproduce_the_check_pass():
    workload = harness.WORKLOADS["agent-mix"]
    conversations = gen.agent_mix(1, count=3, blocks=1)
    specs = [workload_from_json(c) for c in conversations]
    tally = harness.Tally()
    ref = harness.check_pass(workload, conversations, specs, tally)
    assert tally.failed == 0
    mode = harness.ASYNC_PARALLEL
    runs = [harness.run_conversation(spec, mode, False) for spec in specs[:2]]
    for index, (trace, text, _) in enumerate(runs):
        assert harness.verify(workload, ref, index, conversations[index], mode, trace, text) == []
    trace, text, _ = harness.run_conversation(specs[0], mode, False)
    assert harness.verify(workload, ref, 0, conversations[0], mode, trace, text) == []
    assert harness.verify(workload, ref, 1, conversations[1], mode, trace, text) != []


@pytest.mark.parametrize("name", ["burst", "agent-mix"])
def test_layer_self_times_and_remainder_sum_to_conversation_time(name):
    workload = harness.WORKLOADS[name]
    conversations = gen.GENERATORS[name](2)[:3]
    tracer = tracing.Tracer()
    original_pump = Scheduler.pump
    for conversation in conversations:
        spec = workload_from_json(conversation)
        for mode in workload.timed_modes:
            with tracing.traced(tracer), tracer.span("bench.conversation"):
                harness.run_conversation(spec, mode, False)
    assert Scheduler.pump is original_pump
    layers = tracer.layer_self_s()
    assert math.isclose(sum(layers.values()), tracer.total_s["bench.conversation"], rel_tol=1e-9)
    for layer in tracing.LAYERS:
        assert layers[layer] > 0, layer
    assert tracer.counts["scheduler.conflict_checks"] > 0


def test_refuses_to_run_without_the_program(tmp_path: Path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burst", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_wall_clock_runs_pass_their_checks():
    workload = dataclasses.replace(harness.WORKLOADS["wall"], timed=3)
    conversations = gen.wall(4, count=3)
    specs = [workload_from_json(c) for c in conversations]
    tally = harness.Tally()
    ref = harness.check_pass(workload, conversations, specs, tally)
    samples = harness.timed_passes(workload, conversations, specs, ref, tally, 0, time.perf_counter(), min_passes=1)
    assert tally.failed == 0, tally.problems
    assert len(samples) == 3
    assert all(s.scheduled_s > 0 for runs in samples.values() for s in runs)
