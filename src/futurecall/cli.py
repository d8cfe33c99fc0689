"""Command-line entry point.

Subcommands:
  run                   run one workload in one mode, write trace and report
  compare               run several modes (optionally over a latency sweep)
  validate-annotations  confusion metrics of predicted vs ground-truth labels

Exit codes: 0 success, 2 workload or input validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any

from . import analysis
from .driver import MODES, run_workload
from .errors import FuturecallError, ParseError, ValidationError
from .scheduler import READ, WRITE, Access, conflicts, fallback_accesses
from .schema import SESSION_PREFIX, DependencyAnnotation, load_schema_file
from .trace import RunTrace
from .workload import WorkloadSpec, _number, load_workload, make_latency_sweep


def _cell_report(trace: RunTrace, baseline: RunTrace | None) -> dict[str, Any]:
    t_llm, t_tool, t_cp, m_ivs, e_ivs = analysis.trace_to_inputs(trace)
    savings = analysis.savings_decomposition(m_ivs, e_ivs)
    report: dict[str, Any] = {
        "mode": trace.mode,
        "end_to_end": trace.end_to_end,
        "t_llm": t_llm,
        "t_tool": t_tool,
        "t_cp": t_cp,
        "savings": savings.to_json(),
    }
    if t_cp > 0 and max(t_llm, t_cp) > 0:
        report["ideal_speedup"] = analysis.ideal_speedup(t_llm, t_tool, t_cp)
        report["regime"] = analysis.classify_regime(t_llm, t_tool, t_cp)
    if baseline is not None:
        measured = (
            baseline.end_to_end / trace.end_to_end if trace.end_to_end > 0 else 1.0
        )
        report["speedup_vs_baseline"] = measured
        # Bound with the baseline's serialized work over this cell's floor;
        # the floor is what no schedule of this trace can beat.
        base_serial = sum(
            t1 - t0 for t0, t1 in baseline.decode_intervals() + baseline.exec_intervals()
        )
        floor = max(t_llm, t_cp)
        if floor > 0:
            bound = base_serial / floor
            report["speedup_bound"] = bound
            if measured > bound + 1e-9:
                raise FuturecallError(
                    f"measured speedup {measured} exceeds bound {bound}; "
                    "this indicates a scheduling or accounting bug"
                )
    return report


def _load(args: argparse.Namespace) -> WorkloadSpec:
    """The workload file, with ``--delay-scale`` checked like the file's own."""
    workload = load_workload(args.workload)
    if args.delay_scale is not None:
        workload.delay_scale = _number(args.delay_scale, "--delay-scale", positive=True)
    return workload


def cmd_run(args: argparse.Namespace) -> int:
    workload = _load(args)
    trace = run_workload(workload, args.mode, clock=args.clock)
    if args.out_trace:
        trace.write_jsonl(args.out_trace)
    report = _cell_report(trace, None)
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.dump_context:
        with open(args.dump_context, "w", encoding="utf-8") as fh:
            json.dump(trace.context_json(), fh, indent=2)
            fh.write("\n")
    print(json.dumps(report["savings"] | {
        "mode": trace.mode,
        "end_to_end": trace.end_to_end,
        "final_answer": trace.final_answer,
    }, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    modes = args.mode
    if len(modes) < 2:
        raise ValidationError("compare needs at least 2 modes")
    base_workload = _load(args)
    delays = args.sweep or [None]
    if args.sweep:
        workloads = make_latency_sweep(base_workload, args.sweep)
    else:
        workloads = [base_workload]

    cells = []
    series_rows = []
    for delay, workload in zip(delays, workloads):
        baseline_trace: RunTrace | None = None
        for mode in modes:
            trace = run_workload(workload, mode, clock=args.clock)
            cell = _cell_report(trace, baseline_trace)
            cell["delay"] = delay
            cells.append(cell)
            if baseline_trace is None:
                baseline_trace = trace
            savings = cell["savings"]
            series_rows.append(
                {
                    "delay": delay if delay is not None else "",
                    "mode": mode,
                    "end_to_end": trace.end_to_end,
                    "speedup_vs_baseline": cell.get("speedup_vs_baseline", 1.0),
                    "delta_ff": savings["delta_ff"],
                    "delta_de": savings["delta_de"],
                    "net_saving": savings["t_saving"],
                }
            )

    report = {"workload": args.workload, "modes": modes, "cells": cells}
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if args.sweep:
            csv_path = args.out_report.rsplit(".", 1)[0] + ".csv"
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(series_rows[0]))
                writer.writeheader()
                writer.writerows(series_rows)
    for row in series_rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def static_accesses(annotation: DependencyAnnotation | None) -> list[Access]:
    """Literal access set of an annotation for offline pair comparison.

    Path templates are compared textually: parameter placeholders and session
    prefixes stay as opaque segments. Unannotated tools get the root fallback.
    """
    if annotation is None:
        return fallback_accesses()
    out = []
    for mode, decls in ((READ, annotation.reads), (WRITE, annotation.writes)):
        for decl in decls:
            text = decl.path
            if text.startswith(SESSION_PREFIX):
                text = "/" + text
            out.append(Access(tuple(p for p in text.split("/") if p), mode, decl.subtree))
    return out


def annotations_conflict(
    a: DependencyAnnotation | None, b: DependencyAnnotation | None
) -> bool:
    """Would the scheduler ever serialize calls to these two tools?"""
    for access_a in static_accesses(a):
        for access_b in static_accesses(b):
            if conflicts(access_a, access_b):
                return True
    a_sw = a.session_write if a else False
    b_sw = b.session_write if b else False
    a_touch = a_sw or (a.session_read if a else False)
    b_touch = b_sw or (b.session_read if b else False)
    return (a_sw and b_touch) or (b_sw and a_touch)


def conflict_pairs(schemas: list) -> tuple[set, set]:
    names = [schema.name for schema, _ in schemas]
    by_name = {schema.name: annotation for schema, annotation in schemas}
    pairs = set()
    for a in names:
        for b in names:
            if a == b:
                continue
            if annotations_conflict(by_name[a], by_name[b]):
                pairs.add((a, b))
    universe = {(a, b) for a in names for b in names if a != b}
    return pairs, universe


def cmd_validate_annotations(args: argparse.Namespace) -> int:
    predicted = load_schema_file(args.predicted)
    truth = load_schema_file(args.truth)
    predicted_names = {schema.name for schema, _ in predicted}
    truth_names = {schema.name for schema, _ in truth}
    if predicted_names != truth_names:
        raise ValidationError(
            "tool universes differ: "
            f"only-predicted={sorted(predicted_names - truth_names)}, "
            f"only-truth={sorted(truth_names - predicted_names)}"
        )
    predicted_pairs, universe = conflict_pairs(predicted)
    truth_pairs, _ = conflict_pairs(truth)
    metrics = analysis.annotation_confusion(predicted_pairs, truth_pairs, len(universe))
    print(json.dumps(metrics, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="futurecall",
        description="Asynchronous tool-calling runtime and simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--workload", required=True, help="workload JSON file")
        p.add_argument("--clock", choices=("virtual", "wall"), default="virtual")
        p.add_argument("--delay-scale", type=float, default=None)
        p.add_argument("--out-trace", default=None, help="trace JSONL output path")
        p.add_argument("--out-report", default=None, help="report JSON output path")
        p.add_argument("--dump-context", default=None, help="full message list JSON path")

    run_p = sub.add_parser("run", help="run one workload in one mode")
    add_common(run_p)
    run_p.add_argument("--mode", choices=MODES, default="async-sequential")
    run_p.set_defaults(fn=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several modes and compare")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--mode",
        action="append",
        choices=MODES,
        required=True,
        help="repeat for each mode; the first is the speedup baseline",
    )
    cmp_p.add_argument(
        "--sweep",
        type=lambda s: [float(x) for x in s.split(",")],
        default=None,
        help="comma-separated per-tool delays to sweep",
    )
    cmp_p.set_defaults(fn=cmd_compare)

    val_p = sub.add_parser(
        "validate-annotations", help="compare predicted annotations against ground truth"
    )
    val_p.add_argument("--predicted", required=True)
    val_p.add_argument("--truth", required=True)
    val_p.set_defaults(fn=cmd_validate_annotations)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FuturecallError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
