"""Output checks applied to every conversation the benchmark runs.

A conversation counts as failed when it raises, or when any check here
reports a problem. Injected tool failures are intended outcomes: a failed or
cancelled call is terminal and passes.
"""

from __future__ import annotations

import json

from futurecall import lint_context, run_workload
from futurecall.analysis import savings_decomposition, trace_to_inputs
from futurecall.cli import _cell_report
from futurecall.errors import FuturecallError

TERMINAL_STATUSES = {"done", "failed", "cancelled"}
FIG1_END_TO_END = {"sync-sequential": 19.0, "sync-parallel": 13.0, "async-sequential": 13.0}


def check_trace(trace, baseline=None) -> list[str]:
    """Problems with one finished run; ``baseline`` is its sync-sequential run.

    Checks the call/return protocol, that every call is terminal, the
    t_saving = delta_ff + delta_de identity, and (given a baseline) that the
    measured speedup stays within the bound ``futurecall run`` reports.
    """
    problems = [f"protocol: {v}" for v in lint_context(trace.messages)]
    open_calls = sorted(c for c, s in trace.call_status.items() if s not in TERMINAL_STATUSES)
    if open_calls:
        problems.append(f"calls not terminal: {open_calls}")
    if problems:
        return problems
    _, _, _, m_ivs, e_ivs = trace_to_inputs(trace)
    savings = savings_decomposition(m_ivs, e_ivs)
    if abs(savings.t_saving - (savings.delta_ff + savings.delta_de)) > 1e-9:
        problems.append(f"t_saving {savings.t_saving} != delta_ff + delta_de")
    if baseline is not None:
        try:
            report = _cell_report(trace, baseline)
        except FuturecallError as exc:
            problems.append(f"speedup bound: {exc}")
        else:
            bound = report.get("speedup_bound")
            if bound is not None and report["speedup_vs_baseline"] > bound + 1e-9:
                problems.append(
                    f"speedup {report['speedup_vs_baseline']} exceeds bound {bound}"
                )
    return problems


def check_same_final_state(traces: dict) -> list[str]:
    """Serial equivalence: every run ends in the same mock backend state."""
    rendered = {mode: json.dumps(t.final_state, sort_keys=True) for mode, t in traces.items()}
    if len(set(rendered.values())) <= 1:
        return []
    reference_mode = next(iter(rendered))
    return [
        f"final_state of {mode} differs from {reference_mode}"
        for mode, text in rendered.items()
        if text != rendered[reference_mode]
    ]


def has_injected_failure(conversation: dict) -> bool:
    return any(tool.get("error_at") for tool in conversation["tools"])


def check_fig1(fig1_spec) -> list[str]:
    """The paper's figure-1 schedule still takes 19 / 13 / 13 units."""
    problems = []
    for mode, expected in FIG1_END_TO_END.items():
        got = run_workload(fig1_spec, mode).end_to_end
        if got != expected:
            problems.append(f"fig1 {mode}: end_to_end {got}, expected {expected}")
    return problems
