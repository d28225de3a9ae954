"""Performance scalability with frequency.

Footnote 8 of the paper defines performance scalability of a workload with respect
to CPU frequency as "the performance improvement the workload experiences with unit
increase in frequency".  The paper uses it both to explain which SPEC workloads
benefit most from SysScale (Sec. 7.1) and to project the performance of the
MemScale-Redist / CoScale-Redist comparison points from their estimated power
savings (Sec. 6, step 3).

This module provides the two helpers the rest of the code base uses: the
duration-weighted scalability of a trace, and the Amdahl-style speedup obtained
when only the scalable fraction accelerates.
"""

from __future__ import annotations

from repro.workloads.trace import WorkloadTrace


def frequency_scalability(trace: WorkloadTrace, target: str = "cpu") -> float:
    """Duration-weighted performance scalability of ``trace`` with a frequency knob.

    ``target`` selects the knob: ``"cpu"`` for CPU core frequency, ``"gfx"`` for
    graphics frequency.  The result is in [0, 1]: 1 means performance scales 1:1
    with frequency, 0 means frequency changes have no effect.
    """
    target = target.lower()
    if target == "cpu":
        return trace.cpu_frequency_scalability
    if target == "gfx":
        return trace.gfx_frequency_scalability
    raise ValueError(f"unknown scalability target {target!r}; use 'cpu' or 'gfx'")


def amdahl_speedup(scalability: float, frequency_ratio: float) -> float:
    """Speedup when only the ``scalability`` fraction of time scales with frequency.

    ``frequency_ratio`` is new frequency / old frequency.  The non-scalable fraction
    of execution time is unchanged, the scalable fraction shrinks by the ratio:

    ``speedup = 1 / ((1 - s) + s / ratio)``
    """
    if not 0.0 <= scalability <= 1.0:
        raise ValueError("scalability must be in [0, 1]")
    if frequency_ratio <= 0:
        raise ValueError("frequency ratio must be positive")
    denominator = (1.0 - scalability) + scalability / frequency_ratio
    if denominator <= 0:
        raise ValueError("invalid speedup denominator")
    return 1.0 / denominator
