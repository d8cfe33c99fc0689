"""Quantitative analysis of run traces.

Interval arithmetic over decode and execution timelines, the savings
decomposition, critical-path speedup bounds with overhead sensitivity,
operating-regime classification, paired significance tests, and the
annotation-quality comparator. All functions are pure.

Notation used throughout: an interval is a (start, end) pair of times with
end >= start. For a set of intervals I, the sequential sum S(I) is the total
of the individual durations and the effective union D(I) is the measure of
their merged union. For a trace with decode intervals M and execution
intervals E, the total saving against a fully serialized baseline splits
exactly into inter-function parallelism and decode-execution overlap:

    t_saving = S(M) + S(E) - D(M u E)
             = [S(E) - D(E)] + [D(M) + D(E) - D(M u E)]
             = delta_ff      + delta_de
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from .errors import (
    CycleDetectedError,
    DegenerateInputError,
    DomainError,
    IncompleteTraceError,
    OverlappingDecodeError,
)
from .scheduler import TERMINAL_STATUSES
from .trace import RunTrace


def _checked(intervals: Iterable) -> list[tuple[float, float]]:
    """(start, end) pairs as float pairs; an end before its start is a
    DomainError."""
    out = []
    for start, end in intervals:
        start, end = float(start), float(end)
        if end < start:
            raise DomainError(f"interval end {end} before start {start}")
        out.append((start, end))
    return out


def _sum(ivs: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in ivs)


def _union(ivs: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(ivs):
        if start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def sequential_sum(intervals: Iterable) -> float:
    """S(I): cumulative duration, counting overlaps multiply."""
    return _sum(_checked(intervals))


def effective_union(intervals: Iterable) -> float:
    """D(I): measure of the merged union, by sweep-line merge.

    Intervals are treated as half-open for the measure; zero-length intervals
    contribute nothing.
    """
    return _union(_checked(intervals))


@dataclass(frozen=True)
class SavingsReport:
    """Latency-saving decomposition of one trace."""

    delta_ff: float  # inter-function parallelism: S(E) - D(E)
    delta_de: float  # decode-execution overlap: D(M) + D(E) - D(M u E)
    t_saving: float  # S(M) + S(E) - D(M u E); identically delta_ff + delta_de
    s_m: float
    s_e: float
    d_e: float
    d_union: float

    def to_json(self) -> dict:
        return asdict(self)


def savings_decomposition(m_intervals: Iterable, e_intervals: Iterable) -> SavingsReport:
    """Split total latency saving into its two sources.

    Decode intervals must be pairwise non-overlapping (decoding is sequential
    within one trace), so D(M) = S(M). The identity
    t_saving = delta_ff + delta_de holds exactly and is checked: a DomainError
    reports times whose float sums lose it (such as infinite ones).
    """
    m_ivs = _checked(m_intervals)
    e_ivs = _checked(e_intervals)
    s_m = _sum(m_ivs)
    d_m = _union(m_ivs)
    if abs(d_m - s_m) > 1e-9:
        raise OverlappingDecodeError(
            f"decode intervals overlap: S(M)={s_m} but D(M)={d_m}"
        )
    s_e = _sum(e_ivs)
    d_e = _union(e_ivs)
    d_union = _union(m_ivs + e_ivs)
    delta_ff = s_e - d_e
    delta_de = d_m + d_e - d_union
    t_saving = s_m + s_e - d_union
    if not abs(t_saving - (delta_ff + delta_de)) <= 1e-9:  # a nan fails too
        raise DomainError(
            f"t_saving {t_saving} != delta_ff {delta_ff} + delta_de {delta_de}"
        )
    return SavingsReport(
        delta_ff=delta_ff,
        delta_de=delta_de,
        t_saving=t_saving,
        s_m=s_m,
        s_e=s_e,
        d_e=d_e,
        d_union=d_union,
    )


@dataclass
class DependencyDag:
    """Call nodes weighted by execution duration, edges as causal constraints."""

    durations: dict[str, float] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)


def critical_path(dag: DependencyDag) -> float:
    """Longest node-weighted path; edges contribute precedence only.

    One topological (Kahn) pass: a node finishes at its latest producer's
    finish plus its own duration, and its consumers become ready once every
    producer has finished.
    """
    durations = dag.durations
    consumers: dict[str, list[str]] = {node: [] for node in durations}
    waiting = dict.fromkeys(durations, 0)  # unfinished producers, per edge
    for producer, consumer in dag.edges:
        if producer not in consumers or consumer not in consumers:
            raise DomainError(f"edge ({producer}, {consumer}) references unknown node")
        consumers[producer].append(consumer)
        waiting[consumer] += 1
    start = dict.fromkeys(durations, 0.0)
    finish: dict[str, float] = {}
    ready = [node for node, count in waiting.items() if count == 0]
    while ready:
        node = ready.pop()
        end = finish[node] = start[node] + durations[node]
        for consumer in consumers[node]:
            if end > start[consumer]:
                start[consumer] = end
            waiting[consumer] -= 1
            if waiting[consumer] == 0:
                ready.append(consumer)
    if len(finish) < len(durations):
        stuck = sorted(node for node in durations if node not in finish)
        raise CycleDetectedError(f"dependency cycle through or behind {stuck}")
    return max(finish.values(), default=0.0)


def ideal_speedup(t_llm: float, t_tool: float, t_cp: float) -> float:
    """Theoretical maximum speedup (T_llm + T_tool) / max(T_llm, T_cp)."""
    if t_llm < 0 or t_tool < 0 or t_cp < 0:
        raise DomainError("times must be non-negative")
    if t_cp > t_tool:
        raise DomainError(f"critical path {t_cp} exceeds total tool time {t_tool}")
    denominator = max(t_llm, t_cp)
    if denominator <= 0:
        raise DomainError("max(t_llm, t_cp) must be positive")
    return (t_llm + t_tool) / denominator


def overhead_speedup(t_llm: float, t_tool: float, t_cp: float, alpha: float) -> float:
    """Speedup ceiling with decode time inflated by a fractional overhead alpha.

    (t_llm + t_tool) / t_cp while the critical path still covers the inflated
    decode time, else (t_llm + t_tool) / ((1 + alpha) * t_llm); continuous at
    the branch boundary and non-increasing in alpha.
    """
    if alpha < 0:
        raise DomainError("alpha must be non-negative")
    ideal_speedup(t_llm, t_tool, t_cp)  # shared domain checks
    inflated = (1.0 + alpha) * t_llm
    if t_cp >= inflated:
        return (t_llm + t_tool) / t_cp
    return (t_llm + t_tool) / inflated


LITTLE = "little"
MODERATE = "moderate"
SWEET_SPOT = "sweet-spot"


# What counts as "much larger" (t_tool/t_cp) and "comparable" (t_llm/t_cp)
# for regime labels.
PARALLELISM_RATIO = 3.0
OVERLAP_LOW, OVERLAP_HIGH = 0.5, 2.0


def classify_regime(t_llm: float, t_tool: float, t_cp: float) -> str:
    """Label the operating regime from workload shape.

    The sweet spot needs both ample inter-function parallelism
    (t_tool/t_cp past the parallelism threshold) and balanced decode versus
    critical-path time; one of the two gives a moderate regime, neither
    gives little headroom.
    """
    if t_llm <= 0 or t_tool <= 0 or t_cp <= 0:
        raise DomainError("regime classification needs positive inputs")
    parallel = (t_tool / t_cp) >= PARALLELISM_RATIO
    balanced = OVERLAP_LOW <= (t_llm / t_cp) <= OVERLAP_HIGH
    if parallel and balanced:
        return SWEET_SPOT
    if parallel or balanced:
        return MODERATE
    return LITTLE


@dataclass(frozen=True)
class PairedTestResult:
    geomean_speedup: float
    t_stat: float
    p_value: float

    def to_json(self) -> dict:
        return asdict(self)


def paired_log_speedup_test(pairs: Sequence[tuple[float, float]]) -> PairedTestResult:
    """One-sided paired t-test on per-task log speedups.

    Each pair is (baseline latency, treated latency); the alternative is that
    the geometric mean speedup exceeds 1. Zero-variance inputs short-circuit
    to p = 0 when the mean log speedup is positive, else p = 1.
    """
    if len(pairs) < 2:
        raise DegenerateInputError("need at least 2 latency pairs")
    if any(b <= 0 or t <= 0 for b, t in pairs):
        raise DomainError("latencies must be positive")
    logs = [math.log(b / t) for b, t in pairs]
    n = len(logs)
    mean = sum(logs) / n
    var = sum((x - mean) ** 2 for x in logs) / (n - 1)
    geomean = math.exp(mean)
    if var == 0.0:
        if mean > 0:
            return PairedTestResult(geomean, math.inf, 0.0)
        if mean < 0:
            return PairedTestResult(geomean, -math.inf, 1.0)
        return PairedTestResult(geomean, 0.0, 1.0)
    from scipy import stats  # deferred: importing scipy costs about a second

    t_stat = mean / math.sqrt(var / n)
    p_value = float(stats.t.sf(t_stat, n - 1))
    return PairedTestResult(geomean, t_stat, p_value)


def mcnemar(b: int, c: int) -> dict:
    """McNemar's chi-squared test over discordant pair counts, no continuity
    correction; b = c = 0 is defined as no difference (p = 1)."""
    if b < 0 or c < 0:
        raise DomainError("discordant counts must be non-negative")
    if b + c == 0:
        return {"chi2": 0.0, "p": 1.0}
    from scipy import stats  # deferred: importing scipy costs about a second

    chi2 = (b - c) ** 2 / (b + c)
    return {"chi2": chi2, "p": float(stats.chi2.sf(chi2, 1))}


def annotation_confusion(
    predicted: set, truth: set, universe_size: int
) -> dict[str, float]:
    """Confusion metrics for predicted conflict pairs against ground truth.

    Rates use the full pair universe as denominator: fp_rate is the
    over-serialization share, fn_rate the missed-dependency share. Empty
    denominators report 0.
    """
    if universe_size < 0:
        raise DomainError("universe size must be non-negative")
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    tn = universe_size - tp - fp - fn
    if tn < 0:
        raise DomainError("predicted/truth sets exceed the pair universe")
    total = universe_size
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": tp / (tp + fp) if (tp + fp) else 0.0,
        "recall": tp / (tp + fn) if (tp + fn) else 0.0,
        "fp_rate": fp / total if total else 0.0,
        "fn_rate": fn / total if total else 0.0,
    }


def trace_dag(trace: RunTrace) -> DependencyDag:
    """Dependency DAG of a finished run, over the calls in ``call_status``
    and their recorded edges. A call weighs its EXEC event's duration, or
    0.0 if it never ran to an end (a cancelled call has no EXEC event)."""
    executed = {call_id: t1 - t0 for call_id, (t0, t1) in trace.exec_intervals_by_call().items()}
    durations = {call_id: executed.get(call_id, 0.0) for call_id in trace.call_status}
    edges = [
        (producer, consumer)
        for producer, consumer, _ in trace.edges
        if producer in durations and consumer in durations
    ]
    return DependencyDag(durations=durations, edges=edges)


def trace_to_inputs(trace: RunTrace):
    """Extract (t_llm, t_tool, t_cp, M, E) from a complete trace; M and E are
    lists of checked (start, end) float pairs, the form every function here
    takes."""
    non_terminal = [c for c, s in trace.call_status.items() if s not in TERMINAL_STATUSES]
    if non_terminal:
        raise IncompleteTraceError(f"calls not terminal: {sorted(non_terminal)}")
    m_intervals = _checked(trace.decode_intervals())
    e_intervals = _checked(trace.exec_intervals())
    t_llm = _sum(m_intervals)
    t_tool = _sum(e_intervals)
    t_cp = critical_path(trace_dag(trace))
    return t_llm, t_tool, t_cp, m_intervals, e_intervals
