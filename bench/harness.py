"""The benchmark's phases: set-up, check pass, timed passes, traced passes.

A timed operation, "a conversation", is what ``futurecall run`` does minus
file I/O: run_workload, trace_to_inputs plus savings_decomposition, and
RunTrace.to_jsonl. One client runs conversations back to back in one process
and one thread (the wall clock adds its own timer threads).

1. Set-up, repeated SETUP_REPEATS times: import the package in a fresh
   interpreter, generate the seeded conversations, parse and validate them
   with workload_from_json. The import is timed inside that interpreter and
   not scaled to the reference speed: it waits on the file system as much
   as on the CPU, and it may run on the other CPU.
2. A check pass, untimed, on the virtual clock: each conversation's
   sync-sequential run (the baseline of every check), plus the runs the
   virtual metrics need that no timed mode gives. The virtual metrics take a
   workload's untimed conversations too, where it has any.
3. Timed passes over the timed conversations in each timed mode: at least
   MIN_PASSES whole passes, then on until the run's seconds are up. The first timed
   run of a conversation on the virtual clock is checked in full and fixes
   its JSONL; every later one must reproduce that JSONL byte for byte. Every
   wall-clock run is checked in full.
4. Traced passes (tracing.py) for the per-layer metrics.

Host times are reported at the reference machine speed (speed.py). A
conversation's time is the median of its timed runs, and percentiles are
taken over conversations: they describe the workload's mix of shapes.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import speed
import tracing
from futurecall import analysis, driver
from futurecall import workload as workload_mod
from futurecall.clock import WallClock

SYNC_SEQUENTIAL = "sync-sequential"
SYNC_PARALLEL = "sync-parallel"
ASYNC_PARALLEL = "async-parallel"
ALL_MODES = (SYNC_SEQUENTIAL, SYNC_PARALLEL, "async-sequential", ASYNC_PARALLEL)

SETUP_REPEATS = 3
MIN_PASSES = 2  # timed runs per conversation at least
SPAN_CAP = 100_000  # spans kept for output: whole conversations of the first pass
DEADLINE_S = 150.0  # start no run after this, to exit within 180 s

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import futurecall; print(time.perf_counter() - t)"
)


VIRTUAL_MODES = (SYNC_SEQUENTIAL, SYNC_PARALLEL, ASYNC_PARALLEL)


@dataclass(frozen=True)
class Workload:
    name: str
    timed_modes: tuple[str, ...]
    timed: int  # the generator's leading conversations that are timed
    wall_clock: bool = False

    def check_modes(self, index: int) -> tuple[str, ...]:
        """Virtual-clock runs of the check pass: the baseline, and the virtual
        metrics' modes where the timed passes do not run them on this clock."""
        if index >= self.timed or self.wall_clock:
            return VIRTUAL_MODES
        return tuple(m for m in VIRTUAL_MODES if m == SYNC_SEQUENTIAL or m not in self.timed_modes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("burst", timed_modes=(ASYNC_PARALLEL,), timed=100),
        Workload("agent-mix", timed_modes=ALL_MODES, timed=gen.AGENT_CONVERSATIONS * gen.AGENT_TIMED_BLOCKS),
        Workload("wall", timed_modes=(ASYNC_PARALLEL,), timed=100, wall_clock=True),
    )
}


@dataclass
class Tally:
    """Conversation runs attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")


@dataclass
class Sample:
    """One timed run, as measured."""

    calls: int
    conv_s: float  # wall time of the whole timed operation
    cpu_s: float
    overhead_s: float  # run_workload's wall time beyond the simulated schedule
    scheduled_s: float  # wall time the simulated schedule itself takes
    loop_s: float  # the speed loop's time just before
    factor: float = 1.0  # to the reference speed, set once the pass is over

    def at_reference(self) -> "Sample":
        """This run at the reference speed; the simulated schedule's sleeps
        do not scale."""
        f = self.factor
        return Sample(
            self.calls,
            self.scheduled_s + (self.conv_s - self.scheduled_s) * f,
            self.cpu_s * f,
            self.overhead_s * f,
            self.scheduled_s,
            self.loop_s,
        )


@dataclass
class Reference:
    """Per conversation: the baseline run, and per mode its virtual latency
    and the sha256 of its canonical JSONL."""

    baselines: dict = field(default_factory=dict)  # index -> sync-sequential trace
    virtual: dict = field(default_factory=dict)  # mode -> index -> end_to_end
    digests: dict = field(default_factory=dict)  # (index, mode) -> sha256

    def record(self, index: int, mode: str, trace, text: str) -> None:
        self.virtual.setdefault(mode, {})[index] = trace.end_to_end
        self.digests[index, mode] = hashlib.sha256(text.encode()).hexdigest()

    def digest(self) -> str:
        """sha256 over every conversation's JSONL in every mode, in order."""
        overall = hashlib.sha256()
        for (index, mode), digest in sorted(self.digests.items()):
            overall.update(f"{index} {mode} {digest}\n".encode())
        return overall.hexdigest()


# -- set-up --------------------------------------------------------------------------


def setup(workload: Workload, seed: int, src: Path):
    """Import, generate and parse SETUP_REPEATS times.

    Returns the conversations, their parsed specs, the median set-up seconds
    and the last repetition's parse seconds, at the reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        probe = [sys.executable, "-c", IMPORT_PROBE, str(src)]
        import_s = float(subprocess.run(probe, check=True, timeout=120, capture_output=True, text=True).stdout)
        factor = speed.REFERENCE_S / statistics.median(speed.measure() for _ in range(5))
        started = time.perf_counter()
        conversations = gen.GENERATORS[workload.name](seed)
        generated = time.perf_counter()
        specs = [workload_mod.workload_from_json(c) for c in conversations]
        finished = time.perf_counter()
        times.append(import_s + (finished - started) * factor)
    return conversations, specs, statistics.median(times), (finished - generated) * factor


# -- checking ----------------------------------------------------------------------------


def check_pass(workload: Workload, conversations, specs, tally: Tally) -> Reference:
    ref = Reference()
    for index, (conversation, spec) in enumerate(zip(conversations, specs)):
        for mode in workload.check_modes(index):
            what = f"conversation {index} {mode}"
            try:
                trace = driver.run_workload(spec, mode)
            except Exception as exc:  # a raising conversation is a failed one
                tally.record(what, [f"{type(exc).__name__}: {exc}"])
                continue
            if mode == SYNC_SEQUENTIAL:
                ref.baselines[index] = trace
                problems = checks.check_trace(trace)
            else:
                problems = _check_against_baseline(ref, index, conversation, mode, trace)
            tally.record(what, problems)
            ref.record(index, mode, trace, trace.to_jsonl())
    return ref


def _check_against_baseline(ref: Reference, index: int, conversation, mode, trace) -> list[str]:
    """Full checks; a failure-free conversation must also end in the
    baseline's state (serial equivalence)."""
    baseline = ref.baselines.get(index)
    if baseline is None:
        return ["no baseline run"]
    problems = checks.check_trace(trace, baseline)
    if not checks.has_injected_failure(conversation):
        problems += checks.check_same_final_state({SYNC_SEQUENTIAL: baseline, mode: trace})
    return problems


def verify(workload: Workload, ref: Reference, index: int, conversation, mode, trace, text) -> list[str]:
    """Problems with one timed run: a virtual-clock run seen before must
    reproduce its JSONL; any other run gets the full checks."""
    if not workload.wall_clock and (index, mode) in ref.digests:
        if hashlib.sha256(text.encode()).hexdigest() != ref.digests[index, mode]:
            return ["JSONL differs from this conversation's first run"]
        return []
    problems = _check_against_baseline(ref, index, conversation, mode, trace)
    if not workload.wall_clock:
        ref.record(index, mode, trace, text)
    return problems


# -- timed passes ---------------------------------------------------------------------------


def run_conversation(spec, mode: str, wall_clock: bool):
    """The timed operation: returns (trace, JSONL, (t0, t1, t2, cpu seconds))."""
    clock = WallClock(delay_scale=spec.delay_scale) if wall_clock else "virtual"
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        trace = driver.run_workload(spec, mode, clock=clock)
    finally:
        if wall_clock:
            clock.shutdown()
    t1 = time.perf_counter()
    _, _, _, m_ivs, e_ivs = analysis.trace_to_inputs(trace)
    analysis.savings_decomposition(m_ivs, e_ivs)
    text = trace.to_jsonl()
    t2 = time.perf_counter()
    return trace, text, (t0, t1, t2, time.process_time() - cpu0)


def timed_passes(workload, conversations, specs, ref, tally, seconds, started, tracer=None, min_passes=MIN_PASSES):
    """At least ``min_passes`` whole passes, then runs until ``seconds`` are up.

    Returns {(conversation index, mode): [Sample, ...]}, each sample's speed
    factor set from the speed loops around it. With a
    tracing.Tracer every run is traced inside a ``bench.conversation`` root
    span, and the tracer observes it.
    """
    samples: dict[tuple[int, str], list[Sample]] = {}
    in_order: list[Sample] = []
    begin = time.perf_counter()
    passes = 0

    def done() -> bool:
        now = time.perf_counter()
        return (passes >= min_passes and now - begin >= seconds) or now - started > DEADLINE_S

    while not done():
        for index in range(workload.timed):
            if done():
                break
            conversation, spec = conversations[index], specs[index]
            for mode in workload.timed_modes:
                what = f"conversation {index} {mode}"
                loop_s = speed.measure()
                try:
                    if tracer is None:
                        trace, text, (t0, t1, t2, cpu) = run_conversation(spec, mode, workload.wall_clock)
                    else:
                        tracer.drivers.clear()
                        with tracing.traced(tracer), tracer.span("bench.conversation"):
                            trace, text, (t0, t1, t2, cpu) = run_conversation(spec, mode, workload.wall_clock)
                except Exception as exc:  # a raising conversation is a failed one
                    tally.record(what, [f"{type(exc).__name__}: {exc}"])
                    continue
                tally.record(what, verify(workload, ref, index, conversation, mode, trace, text))
                # A virtual clock spends no wall time on the simulated
                # schedule, so all of run_workload's wall time is overhead.
                scheduled_s = ref.virtual[mode][index] * spec.delay_scale if workload.wall_clock else 0.0
                sample = Sample(len(trace.call_status), t2 - t0, cpu, (t1 - t0) - scheduled_s, scheduled_s, loop_s)
                samples.setdefault((index, mode), []).append(sample)
                in_order.append(sample)
                if tracer is not None:
                    tracer.observe(trace)
                    if len(tracer.spans) >= SPAN_CAP:
                        tracer.keep_spans = False
        passes += 1
        if tracer is not None:
            tracer.keep_spans = False
    for sample, factor in zip(in_order, speed.factors([s.loop_s for s in in_order])):
        sample.factor = factor
    return samples


# -- metrics ---------------------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def typical(samples: dict) -> list[Sample]:
    """Each conversation's median run at the reference speed."""
    out = []
    for runs in samples.values():
        ref = [s.at_reference() for s in runs]
        out.append(
            Sample(
                runs[0].calls,
                p50([s.conv_s for s in ref]),
                p50([s.cpu_s for s in ref]),
                p50([s.overhead_s for s in ref]),
                runs[0].scheduled_s,
                p50([s.loop_s for s in runs]),
                p50([s.factor for s in runs]),
            )
        )
    return out


def cost_exponent(runs: list[Sample]) -> float:
    """Least-squares slope of log(median time) against log(calls), per call count."""
    by_calls: dict[int, list[float]] = {}
    for s in runs:
        by_calls.setdefault(s.calls, []).append(s.conv_s)
    points = [(math.log(n), math.log(p50(v))) for n, v in by_calls.items() if n > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0


def end_to_end_metrics(samples: dict, ref: Reference, setup_s: float) -> dict:
    runs = typical(samples)
    conv_ms = [s.conv_s * 1e3 for s in runs]
    return {
        "calls_per_s": (sum(s.calls for s in runs) / sum(s.cpu_s for s in runs), "1/s"),
        "conv_ms_p50": (p50(conv_ms), "ms"),
        "conv_ms_p90": (p90(conv_ms), "ms"),
        "virtual_e2e_p50": (p50(ref.virtual[ASYNC_PARALLEL].values()), "units"),
        "sync_virtual_e2e_p50": (p50(ref.virtual[SYNC_PARALLEL].values()), "units"),
        "wall_overhead_ms_p50": (p50([s.overhead_s * 1e3 for s in runs]), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced: dict, untraced: dict, ref: Reference, parse_ms: float) -> dict:
    """Per-layer metrics; times and counts are means per traced conversation
    run, times at the reference speed of the traced passes' median factor."""
    n = sum(len(runs) for runs in traced.values())
    to_ms = 1e3 / n * p50([s.factor for runs in traced.values() for s in runs])
    obs = tracer.observed
    layer_ms = {k: v * to_ms for k, v in tracer.layer_self_s().items()}
    span_self_ms = {k: v * to_ms for k, v in tracer.self_s.items()}
    span_ms = {k: v * to_ms for k, v in tracer.total_s.items()}
    count = {k: v / n for k, v in tracer.counts.items()}
    conflict_checks = tracer.counts["scheduler.conflict_checks"]
    untraced_runs = typical(untraced)

    def wait(kind, stat):
        values = obs[kind]
        return stat(values) if values else 0.0

    return {
        "clock.events": (count.get("clock.events", 0.0), "count/conv"),
        "clock.self_ms": (layer_ms.get("clock", 0.0), "ms/conv"),
        "clock.wall_threads_peak": (tracer.peaks["clock.wall_threads_peak"], "count"),
        "futures.created": (obs["created"] / n, "count/conv"),
        "futures.transitions": (obs["transitions"] / n, "count/conv"),
        "futures.state_of_calls": (count.get("futures.state_of_calls", 0.0), "count/conv"),
        "futures.self_ms": (layer_ms.get("futures", 0.0), "ms/conv"),
        "scheduler.conflict_checks": (count.get("scheduler.conflict_checks", 0.0), "count/conv"),
        "scheduler.blocking_gates_ms": (span_ms.get("scheduler.blocking_gates", 0.0), "ms/conv"),
        "scheduler.live_labels_peak": (tracer.peaks["scheduler.live_labels_peak"], "count"),
        "scheduler.pump_calls": (count.get("scheduler.pump_calls", 0.0), "count/conv"),
        "scheduler.pump_self_ms": (span_self_ms.get("scheduler.pump", 0.0), "ms/conv"),
        "scheduler.self_ms": (layer_ms.get("scheduler", 0.0), "ms/conv"),
        "scheduler.conflict_yield": (obs["gate_edges"] / conflict_checks if conflict_checks else 0.0, "ratio"),
        "scheduler.edges": (obs["edges"] / n, "count/conv"),
        "scheduler.admit_wait_p50": (wait("admit_wait", p50), "units"),
        "scheduler.admit_wait_mean": (wait("admit_wait", statistics.fmean), "units"),
        "scheduler.gate_wait_p50": (wait("gate_wait", p50), "units"),
        "scheduler.gate_wait_mean": (wait("gate_wait", statistics.fmean), "units"),
        "executor.dispatches": (count.get("executor.dispatches", 0.0), "count/conv"),
        "executor.self_ms": (layer_ms.get("executor", 0.0), "ms/conv"),
        "executor.cancel_ms": (span_ms.get("executor.cancel_transitive", 0.0), "ms/conv"),
        "executor.cancelled": (obs["cancelled"] / n, "count/conv"),
        "executor.arg_wait_p50": (wait("arg_wait", p50), "units"),
        "executor.arg_wait_mean": (wait("arg_wait", statistics.fmean), "units"),
        "driver.turns": (obs["turns"] / n, "count/conv"),
        "driver.integrations": (obs["integrations"] / n, "count/conv"),
        "driver.self_ms": (layer_ms.get("driver", 0.0), "ms/conv"),
        "schema.scan_ms": (span_ms.get("schema.scan", 0.0), "ms/conv"),
        "schema.substitute_ms": (span_ms.get("schema.substitute", 0.0), "ms/conv"),
        "schema.futurize_ms": (span_ms.get("schema.futurize", 0.0), "ms/conv"),
        "workload.parse_ms": (parse_ms, "ms/conv"),
        "trace.events": (obs["events"] / n, "count/conv"),
        "trace.to_jsonl_ms": (span_ms.get("trace.to_jsonl", 0.0), "ms/conv"),
        "analysis.ms": (
            span_ms.get("analysis.trace_to_inputs", 0.0) + span_ms.get("analysis.savings_decomposition", 0.0),
            "ms/conv",
        ),
        "analysis.critical_path_ms": (span_ms.get("analysis.critical_path", 0.0), "ms/conv"),
        "bench.remainder_ms": (layer_ms.get("bench", 0.0), "ms/conv"),
        "cost_exponent": (cost_exponent(untraced_runs), "ratio"),
        "virtual_digest": (int(ref.digest()[:12], 16), "hash"),
        "trace_overhead": (
            p50([s.conv_s for s in typical(traced)]) / p50([s.conv_s for s in untraced_runs]),
            "ratio",
        ),
    }
