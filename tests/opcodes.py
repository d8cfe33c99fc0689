"""Opcodes the runtime executes per tool call: a CPU cost that does not
depend on the machine or its load.

Run from anywhere: ``python tests/opcodes.py``. It runs the first 20 burst
and the first 100 agent-mix conversations that ``bench/gen.py`` generates
at seed 7, each in async-parallel and in sync-sequential, and prints one
``workload mode conversations calls opcodes/call`` line per pair. A
``sys.settrace`` hook with ``f_trace_opcodes`` counts every bytecode that
Python functions execute inside ``run_workload``; parsing each conversation
(afresh for every run, so no run reuses another's parse) is not counted,
and neither is time spent in C. The count is the same on every run of one
tree, under any ``PYTHONHASHSEED``. pytest does not collect this file: its
name does not start with ``test``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
from futurecall import run_workload  # noqa: E402
from futurecall.workload import workload_from_json  # noqa: E402

SEED = 7
CONVERSATIONS = {"burst": 20, "agent-mix": 100}
MODES = ("async-parallel", "sync-sequential")


class OpcodeCounter:
    """A ``sys.settrace`` hook that counts opcode events in every frame."""

    def __init__(self):
        self.count = 0

    def __call__(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.local

    def local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self.local


def opcodes_per_call(conversations: list[dict], mode: str) -> tuple[int, float]:
    """The calls the conversations make in ``mode``, and the opcodes
    ``run_workload`` executes per call."""
    counter, calls = OpcodeCounter(), 0
    for data in conversations:
        spec = workload_from_json(data)
        sys.settrace(counter)
        try:
            trace = run_workload(spec, mode)
        finally:
            sys.settrace(None)
        calls += len(trace.call_status)
    return calls, counter.count / calls


def main() -> None:
    for name, count in CONVERSATIONS.items():
        conversations = gen.GENERATORS[name](SEED)[:count]
        for mode in MODES:
            calls, per_call = opcodes_per_call(conversations, mode)
            print(f"{name} {mode} {count} {calls} {per_call:.1f}")


if __name__ == "__main__":
    main()
