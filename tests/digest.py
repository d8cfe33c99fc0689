"""One sha256 over every output of the fixtures and the bench workloads.

Run from anywhere: ``python tests/digest.py``. It runs the seven fixtures
(sorted by path), then every conversation that ``bench/gen.py`` generates
for burst and then for agent-mix at seeds 1, 5 and 7, each in every mode,
and prints ``runs raised sha256``. Each run adds its JSONL trace, its edges,
its context, its call statuses and its final state to the digest; a run
that raises adds its error's type and message instead. Two versions of the
program that print the same line behave the same on all of these runs.
pytest does not collect this file: its name does not start with ``test``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
from futurecall import MODES, load_workload, run_workload  # noqa: E402
from futurecall.workload import workload_from_json  # noqa: E402

SEEDS = (1, 5, 7)


def workloads():
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield load_workload(str(path))
    for name in ("burst", "agent-mix"):
        for seed in SEEDS:
            for data in gen.GENERATORS[name](seed):
                yield workload_from_json(data)


def main() -> None:
    digest = hashlib.sha256()
    runs = raised = 0
    for spec in workloads():
        for mode in MODES:
            runs += 1
            try:
                trace = run_workload(spec, mode)
            except Exception as exc:
                raised += 1
                parts = [f"{type(exc).__name__}:{exc}"]
            else:
                parts = [
                    trace.to_jsonl(),
                    repr(trace.edges),
                    json.dumps(trace.context_json()),
                    json.dumps(trace.call_status),
                    json.dumps(trace.final_state, sort_keys=True),
                ]
            for part in parts:
                digest.update(part.encode())
    print(runs, raised, digest.hexdigest())


if __name__ == "__main__":
    main()
