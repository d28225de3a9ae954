"""Composition operators over phase sequences.

Complex scenarios are built from primitive generators with five operators,
all pure functions from phase sequences to a new ``tuple`` of phases:

* :func:`concat` -- run sequences back to back;
* :func:`repeat` -- loop one sequence a fixed number of times;
* :func:`scale_duration` -- stretch or shrink a sequence in time;
* :func:`interleave` -- alternate phases from several sequences (round-robin);
* :func:`mix` -- overlay two sequences on a shared timeline, modelling two
  co-resident applications time-sharing the SoC: bottleneck mixes and
  bandwidth demands blend by a time-share weight.

Operators never mutate their inputs (phases are frozen) and always return
phases that satisfy the :class:`~repro.workloads.trace.Phase` invariants --
composition failures raise ``ValueError`` instead of producing a corrupt trace.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.numeric import ordered_sum
from repro.workloads.trace import Phase

#: Overlay segments shorter than this (seconds) are dropped by :func:`mix`;
#: they are far below the engine tick and only arise from float coincidences.
_MIN_SEGMENT = 1e-9


def _as_phases(sequence: Iterable[Phase], operator: str) -> Tuple[Phase, ...]:
    phases = tuple(sequence)
    if not phases:
        raise ValueError(f"{operator}() needs at least one phase per sequence")
    return phases


def concat(*sequences: Iterable[Phase]) -> Tuple[Phase, ...]:
    """Run ``sequences`` back to back."""
    if not sequences:
        raise ValueError("concat() needs at least one sequence")
    result: List[Phase] = []
    for sequence in sequences:
        result.extend(_as_phases(sequence, "concat"))
    return tuple(result)


def repeat(phases: Iterable[Phase], times: int) -> Tuple[Phase, ...]:
    """Loop ``phases`` ``times`` times, renaming each repetition."""
    phases = _as_phases(phases, "repeat")
    if times < 1:
        raise ValueError(f"repeat count must be at least 1, got {times}")
    if times == 1:
        return phases
    return tuple(
        phase.with_updates(name=f"{phase.name}~r{index}")
        for index in range(times)
        for phase in phases
    )


def scale_duration(phases: Iterable[Phase], factor: float) -> Tuple[Phase, ...]:
    """Stretch (``factor > 1``) or shrink (``factor < 1``) a sequence in time."""
    phases = _as_phases(phases, "scale_duration")
    if factor <= 0:
        raise ValueError(f"duration scale factor must be positive, got {factor}")
    return tuple(phase.scaled_duration(factor) for phase in phases)


def interleave(*sequences: Iterable[Phase]) -> Tuple[Phase, ...]:
    """Alternate phases from ``sequences`` round-robin until all are drained.

    Sequences need not be the same length; exhausted sequences drop out of the
    rotation.  Total duration is the sum of all input durations.
    """
    if len(sequences) < 2:
        raise ValueError("interleave() needs at least two sequences")
    pools = [list(_as_phases(sequence, "interleave")) for sequence in sequences]
    result: List[Phase] = []
    cursor = [0] * len(pools)
    while any(cursor[i] < len(pool) for i, pool in enumerate(pools)):
        for i, pool in enumerate(pools):
            if cursor[i] < len(pool):
                result.append(pool[cursor[i]])
                cursor[i] += 1
    return tuple(result)


def _phase_at(phases: Sequence[Phase], time: float) -> Phase:
    elapsed = 0.0
    for phase in phases:
        if time < elapsed + phase.duration:
            return phase
        elapsed += phase.duration
    return phases[-1]


def mix(
    a: Iterable[Phase],
    b: Iterable[Phase],
    weight: float = 0.5,
) -> Tuple[Phase, ...]:
    """Overlay two sequences on one timeline: two co-resident applications.

    ``weight`` is the time share of ``a`` (``1.0`` reduces to pure ``a``).
    The overlay is cut at every phase boundary of either input (up to the
    shorter total duration); in each segment the bottleneck fractions and the
    per-requester bandwidth demands blend ``weight * a + (1 - weight) * b``
    (fractions still sum to 1).
    """
    a = _as_phases(a, "mix")
    b = _as_phases(b, "mix")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"mix weight must be in [0, 1], got {weight}")
    total = min(ordered_sum(p.duration for p in a), ordered_sum(p.duration for p in b))

    boundaries = {0.0, total}
    for phases in (a, b):
        elapsed = 0.0
        for phase in phases:
            elapsed += phase.duration
            if elapsed < total:
                boundaries.add(elapsed)
    cuts = sorted(boundaries)

    result: List[Phase] = []
    for start, end in zip(cuts, cuts[1:]):
        if end - start <= _MIN_SEGMENT:
            continue
        midpoint = (start + end) / 2.0
        pa = _phase_at(a, midpoint)
        pb = _phase_at(b, midpoint)

        def blend(x: float, y: float) -> float:
            return weight * x + (1.0 - weight) * y

        fractions = [
            blend(x, y) for x, y in zip(pa.fraction_vector(), pb.fraction_vector())
        ]
        norm = ordered_sum(fractions)
        fractions = [f / norm for f in fractions]
        result.append(
            Phase(
                name=f"mix({pa.name}+{pb.name})",
                duration=end - start,
                compute_fraction=fractions[0],
                gfx_fraction=fractions[1],
                memory_latency_fraction=fractions[2],
                memory_bandwidth_fraction=fractions[3],
                io_fraction=fractions[4],
                other_fraction=fractions[5],
                cpu_bandwidth_demand=blend(pa.cpu_bandwidth_demand, pb.cpu_bandwidth_demand),
                gfx_bandwidth_demand=blend(pa.gfx_bandwidth_demand, pb.gfx_bandwidth_demand),
                io_bandwidth_demand=blend(pa.io_bandwidth_demand, pb.io_bandwidth_demand),
                cpu_activity=min(1.0, blend(pa.cpu_activity, pb.cpu_activity)),
                gfx_activity=min(1.0, blend(pa.gfx_activity, pb.gfx_activity)),
                io_activity=min(1.0, blend(pa.io_activity, pb.io_activity)),
                active_cores=max(pa.active_cores, pb.active_cores),
                residency=pa.residency if weight >= 0.5 else pb.residency,
            )
        )
    if not result:
        raise ValueError("mix() produced no overlapping segments")
    return tuple(result)
