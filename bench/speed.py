"""Machine speed, measured alongside every timing.

A shared virtual machine changes speed as other tenants come and go: on a
2-vCPU Xeon VM the same conversation took up to 1.7x longer for seconds or
minutes at a time, in CPU time as much as in wall time. So a fixed
pure-Python loop that does not touch the program is timed right before every
timed operation, and host times are reported at the reference speed:
measured time x REFERENCE_S / loop time, the loop time being taken from the
loops just before and just after the operation. Both slow together, so the
ratio tracks the program's cost while the raw time tracks the neighbours.
run.py prints the factors.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.00035  # the loop's time on that VM when it ran fast


def _loop() -> int:
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    return len(table)


def measure() -> float:
    """Seconds the reference loop takes now."""
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started


def factors(loop_times: list[float]) -> list[float]:
    """Per operation, REFERENCE_S over the median of the two loops before it
    and the two after it (each operation's loop runs just before it)."""
    return [
        REFERENCE_S / statistics.median(loop_times[max(0, i - 1) : i + 3])
        for i in range(len(loop_times))
    ]
