#!/usr/bin/env python3
"""futurecall benchmark: seeded conversations run as a closed loop.

    python3 bench/run.py --workload {burst,agent-mix,wall} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and fig1 is read from ``fixtures/``. harness.py describes the
phases of a run, gen.py the workloads, checks.py the output checks,
speed.py how host times are scaled and tracing.py the traced run.

BENCHMARK.json lists burst and agent-mix. The wall workload runs the same way
but is left out of it: its figures are mostly timer-thread wake-ups on a
shared machine, and they spread too widely between runs to gate on.

With ``--trace 0`` the timed passes take all of ``--seconds`` and the
end-to-end metrics are reported. With ``--trace 1`` the timed passes take
half and traced passes the other half; the per-layer metrics are reported
and the spans of the first traced pass are written to
bench/out/spans-<workload>.jsonl.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (conversation runs, check-pass runs included)
and ``metrics``. The lines before it give sample counts, the failed fraction
and any problems found. BENCHMARK.json lists the metrics; predictions.json
says which end-to-end metric each per-layer metric should move, and where.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FIG1 = ROOT / "fixtures" / "fig1.json"
WORKLOAD_NAMES = ("burst", "agent-mix", "wall")


def use_program() -> bool:
    """Make ``import futurecall`` load this checkout's sources, if present."""
    if not (SRC / "futurecall" / "__init__.py").is_file() or not FIG1.is_file():
        return False
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description="futurecall benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not use_program():
        print(f"error: {SRC}/futurecall or {FIG1} missing; run from a source checkout", file=sys.stderr)
        return 2
    import checks
    import harness
    import tracing
    from futurecall import load_workload

    workload = harness.WORKLOADS[args.workload]
    tally = harness.Tally()
    tally.record("fig1", checks.check_fig1(load_workload(str(FIG1))))
    conversations, specs, setup_s, parse_s = harness.setup(workload, args.seed, SRC)
    ref = harness.check_pass(workload, conversations, specs, tally)
    # The corpus and references belong to the benchmark, not the program:
    # keep them out of the collector's way while timing.
    gc.collect()
    gc.freeze()

    seconds = args.seconds / 2 if args.trace else args.seconds
    samples = harness.timed_passes(workload, conversations, specs, ref, tally, seconds, started)
    runs = [s for r in samples.values() for s in r]
    print(f"{workload.name}: {workload.timed} conversations x {len(workload.timed_modes)} modes, "
          f"{len(runs)} timed runs; timings are p50 and p90 over the {len(samples)} conversation "
          f"medians; virtual latencies over {len(specs)} conversations; setup_s is a median "
          f"of {harness.SETUP_REPEATS}")
    print(f"speed factor to the reference machine: median {harness.p50([s.factor for s in runs]):.3f}, "
          f"range {min(s.factor for s in runs):.3f}-{max(s.factor for s in runs):.3f}; "
          f"raw conv_ms_p50 {harness.p50([s.conv_s for s in runs]) * 1e3:.4f} ms over all runs")
    if args.trace:
        tracer = tracing.Tracer()
        traced = harness.timed_passes(workload, conversations, specs, ref, tally, seconds, started, tracer, 1)
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(str(OUT / f"spans-{workload.name}.jsonl"))
        metrics = harness.per_layer_metrics(tracer, traced, samples, ref, parse_s * 1e3 / len(specs))
        print(f"traced runs: {sum(len(r) for r in traced.values())}; virtual digest {ref.digest()}")
    else:
        metrics = harness.end_to_end_metrics(samples, ref, setup_s)
    print(f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted})")
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
