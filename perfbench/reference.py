"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a small VM on a shared machine, and its speed
drifts: the same pass can take twice as long an hour later with no code
change.  Medians over one run absorb single slow passes but not a slow
stretch, so raw host seconds from two sets of runs disagree by more than
any useful regression bound.

Every pass runs :func:`reference_seconds` in its own process right before
and right after its timed phase.  The pass's timings are scaled by
``NOMINAL_S / reference time`` (the mean of the two), giving seconds on a
host where the kernel takes ``NOMINAL_S``.  The kernel
is pure Python with the operations the reproduction spends its time on:
attribute and dict access, float arithmetic, JSON encode and decode, and
SHA-256.  It is part of the benchmark, never of the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Seconds the kernel took, median of many runs, on the 2-core x86_64 VM
#: with Python 3.11 where the numbers in README.md were taken.
NOMINAL_S = 0.20
#: Rounds of the kernel; sized so one call takes about ``NOMINAL_S``.
ROUNDS = 24


class _Point:
    __slots__ = ("frequency", "voltage", "power")

    def __init__(self, frequency: float, voltage: float) -> None:
        self.frequency = frequency
        self.voltage = voltage
        self.power = 0.0


def _kernel(rounds: int) -> int:
    checksum = 0
    for round_index in range(rounds):
        points = [_Point(0.4 + (i % 37) * 0.05, 0.6 + (i % 11) * 0.02) for i in range(1500)]
        table = {}
        for i, point in enumerate(points):
            point.power = 0.7 * point.voltage * point.voltage * point.frequency + 0.05 * point.voltage
            key = f"p{(i * 7 + round_index) % 997}"
            entry = table.setdefault(key, {"n": 0, "sum": 0.0, "max": 0.0})
            entry["n"] += 1
            entry["sum"] += point.power
            entry["max"] = max(entry["max"], point.power)
        text = json.dumps(table, sort_keys=True)
        decoded = json.loads(text)
        checksum += len(decoded) + hashlib.sha256(text.encode("utf-8")).digest()[0]
    return checksum


def reference_seconds() -> float:
    """Host seconds for one run of the kernel."""
    started = time.perf_counter()
    _kernel(ROUNDS)
    return time.perf_counter() - started


if __name__ == "__main__":
    print(f"{reference_seconds():.4f} s (nominal {NOMINAL_S} s)")
