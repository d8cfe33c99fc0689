"""One sha256 over every output of the fixtures and the bench workloads.

Run from anywhere: ``python tests/digest.py``. It runs the seven fixtures
(sorted by path), then every conversation that ``bench/gen.py`` generates
for burst and then for agent-mix at seeds 1, 5 and 7, each in every mode,
and prints ``runs raised sha256``. Each run adds its JSONL trace, its edges,
its context, its call statuses and its final state to the digest; a run
that raises adds its error's type and message instead. Two versions of the
program that print the same first line behave the same on all of these runs.
It then prints one ``source runs raised sha256`` line for each of
``fixtures``, ``burst`` and ``agent-mix``, hashed the same way over that
source's runs alone, so a changed first line names the input that moved.
``tests/digest.txt`` pins the four lines; CI diffs the output against it,
and a change that alters outputs on purpose re-pins that file.
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
    """Yield (source, workload) pairs in digest order."""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield "fixtures", load_workload(str(path))
    for name in ("burst", "agent-mix"):
        for seed in SEEDS:
            for data in gen.GENERATORS[name](seed):
                yield name, workload_from_json(data)


class Tally:
    """The run count, the raised count and one sha256 over a set of runs."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.runs = self.raised = 0

    def add(self, parts: list[str], raised: bool) -> None:
        self.runs += 1
        self.raised += raised
        for part in parts:
            self.digest.update(part.encode())

    def line(self) -> str:
        return f"{self.runs} {self.raised} {self.digest.hexdigest()}"


def main() -> None:
    total, sources = Tally(), {}
    for source, spec in workloads():
        tallies = (total, sources.setdefault(source, Tally()))
        for mode in MODES:
            try:
                trace = run_workload(spec, mode)
            except Exception as exc:
                raised, parts = True, [f"{type(exc).__name__}:{exc}"]
            else:
                raised, parts = False, [
                    trace.to_jsonl(),
                    repr(trace.edges),
                    json.dumps(trace.context_json()),
                    json.dumps(trace.call_status),
                    json.dumps(trace.final_state, sort_keys=True),
                ]
            for tally in tallies:
                tally.add(parts, raised)
    print(total.line())
    for source, tally in sources.items():
        print(source, tally.line())


if __name__ == "__main__":
    main()
