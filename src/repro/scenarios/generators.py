"""Parameterized phase-pattern generators.

Every generator is a pure function of a ``numpy.random.Generator`` plus
JSON-scalar parameters, returning a valid :class:`~repro.workloads.trace.Phase`
sequence: same seed, same parameters -> bit-identical phases, in any process.
That purity is what lets :mod:`repro.scenarios.registry` hand a scenario to the
runtime as a declarative, content-hashed trace spec.

Generators come in two layers:

* **primitives** -- one demand pattern each (bursty, periodic, ramp,
  idle-heavy, memory-thrash, graphics-interference, io-streaming);
* **composites** -- built from primitives with the
  :mod:`repro.scenarios.compose` operators (burst-then-idle, sawtooth,
  graphics+streaming co-residency, interleaved thrash).

All demand figures are GB/s at the reference configuration; the dual-channel
LPDDR3-1600 interface sustains ~22 GB/s, so the bandwidth-bound fraction of a
phase grows as demand approaches that ceiling (same model as the Fig. 6
corpus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import config
from repro.numeric import ordered_sum
from repro.power.cstates import CState, CStateResidency
from repro.scenarios import compose
from repro.workloads.trace import PerformanceMetric, Phase, WorkloadClass

#: Achievable dual-channel LPDDR3-1600 bandwidth (GB/s); demand near this
#: ceiling forces a bandwidth-bound fraction.
CEILING_GBPS = 22.0

#: Bottleneck fractions a generator asks for are scaled into ``1 - _MIN_OTHER``
#: so every phase keeps a small uncontrollable ("other") fraction, as every
#: characterized workload in the repo does.
_MIN_OTHER = 0.02

#: Shortest phase a generator may emit (seconds); phases shorter than the
#: 1 ms engine tick would vanish from the simulation.
MIN_PHASE_DURATION = 0.01

PhaseGenerator = Callable[..., List[Phase]]


@dataclass(frozen=True)
class GeneratorInfo:
    """One registered generator plus the trace metadata it implies."""

    name: str
    fn: PhaseGenerator
    workload_class: WorkloadClass
    metric: PerformanceMetric
    summary: str


#: Name -> generator registry; :mod:`repro.scenarios.markov` adds ``markov``.
GENERATORS: Dict[str, GeneratorInfo] = {}


def register_generator(
    name: str,
    workload_class: WorkloadClass,
    metric: PerformanceMetric,
    summary: str,
) -> Callable[[PhaseGenerator], PhaseGenerator]:
    """Register a phase generator under ``name`` (decorator)."""

    def decorate(fn: PhaseGenerator) -> PhaseGenerator:
        if name in GENERATORS:
            raise ValueError(f"generator {name!r} is already registered")
        GENERATORS[name] = GeneratorInfo(
            name=name, fn=fn, workload_class=workload_class, metric=metric,
            summary=summary,
        )
        return fn

    return decorate


# ---------------------------------------------------------------------------
# Phase construction helpers
# ---------------------------------------------------------------------------


def make_phase(
    name: str,
    duration: float,
    *,
    compute: float = 0.0,
    gfx: float = 0.0,
    memory_latency: float = 0.0,
    memory_bandwidth: float = 0.0,
    io: float = 0.0,
    cpu_gbps: float = 0.0,
    gfx_gbps: float = 0.0,
    io_gbps: float = 0.0,
    cpu_activity: float = 0.9,
    gfx_activity: float = 0.0,
    io_activity: float = 0.2,
    active_cores: int = config.SKYLAKE_CORE_COUNT,
    residency: Optional[CStateResidency] = None,
) -> Phase:
    """Build a valid phase from bottleneck *weights* and GB/s demands.

    The five controllable fractions are scaled (if necessary) into the
    ``1 - _MIN_OTHER`` budget and the remainder becomes ``other_fraction``, so
    the result always satisfies the :class:`Phase` sum-to-1 invariant no matter
    what a generator's random draws produced.
    """
    weights = [compute, gfx, memory_latency, memory_bandwidth, io]
    if any(w < 0 for w in weights):
        raise ValueError(f"phase {name!r}: bottleneck weights must be non-negative")
    total = ordered_sum(weights)
    budget = 1.0 - _MIN_OTHER
    if total > budget:
        weights = [w * budget / total for w in weights]
        total = ordered_sum(weights)
    extra = {} if residency is None else {"residency": residency}
    return Phase(
        name=name,
        duration=duration,
        compute_fraction=weights[0],
        gfx_fraction=weights[1],
        memory_latency_fraction=weights[2],
        memory_bandwidth_fraction=weights[3],
        io_fraction=weights[4],
        other_fraction=1.0 - total,
        cpu_bandwidth_demand=config.gbps(cpu_gbps),
        gfx_bandwidth_demand=config.gbps(gfx_gbps),
        io_bandwidth_demand=config.gbps(io_gbps),
        cpu_activity=cpu_activity,
        gfx_activity=gfx_activity,
        io_activity=io_activity,
        active_cores=active_cores,
        **extra,
    )


def bandwidth_pressure(demand_gbps: float) -> float:
    """Bandwidth-bound fraction implied by a GB/s demand (corpus model)."""
    return min(0.6, max(0.0, demand_gbps / CEILING_GBPS - 0.3) * 1.2)


def _check_duration(duration: float, segments: int = 1) -> None:
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if segments < 1:
        raise ValueError(f"segment count must be at least 1, got {segments}")
    if duration / max(1, 2 * segments) < MIN_PHASE_DURATION:
        raise ValueError(
            f"duration {duration} s is too short for {segments} segment(s); "
            f"phases must be at least {MIN_PHASE_DURATION} s"
        )


def _jitter(rng: np.random.Generator, spread: float = 0.2) -> float:
    """A multiplicative jitter factor in ``[1 - spread, 1 + spread]``."""
    return float(rng.uniform(1.0 - spread, 1.0 + spread))


#: Deep-idle residency used by idle-heavy scenarios (video-playback shape,
#: Sec. 7.3: mostly package C8 with brief C0/C2 wakeups).
DEEP_IDLE_RESIDENCY = {CState.C0: 0.10, CState.C2: 0.08, CState.C8: 0.82}


# ---------------------------------------------------------------------------
# Primitive generators
# ---------------------------------------------------------------------------


@register_generator(
    "bursty", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "alternating high-demand memory bursts and compute-heavy quiet intervals",
)
def bursty(
    rng: np.random.Generator,
    duration: float = 1.0,
    segments: int = 8,
    burst_fraction: float = 0.35,
    burst_gbps: float = 16.0,
    quiet_gbps: float = 1.5,
) -> List[Phase]:
    """Bursty demand: short memory-bound spikes over a compute-bound floor."""
    _check_duration(duration, segments)
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError(f"burst fraction must be in (0, 1), got {burst_fraction}")
    if burst_gbps < 0 or quiet_gbps < 0:
        raise ValueError("demands must be non-negative")
    segment = duration / segments
    phases: List[Phase] = []
    for index in range(segments):
        share = min(0.9, max(0.1, burst_fraction * _jitter(rng, 0.4)))
        demand = burst_gbps * _jitter(rng)
        phases.append(
            make_phase(
                f"burst_{index}", segment * share,
                compute=0.3, memory_latency=0.15,
                memory_bandwidth=max(0.1, bandwidth_pressure(demand)),
                cpu_gbps=demand, cpu_activity=0.95,
            )
        )
        phases.append(
            make_phase(
                f"quiet_{index}", segment * (1.0 - share),
                compute=0.8, memory_latency=0.06, memory_bandwidth=0.02,
                cpu_gbps=quiet_gbps * _jitter(rng, 0.3), cpu_activity=0.85,
            )
        )
    return phases


@register_generator(
    "periodic", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "square-wave bandwidth demand with a fixed period and duty cycle",
)
def periodic(
    rng: np.random.Generator,
    duration: float = 1.0,
    period: float = 0.12,
    duty_cycle: float = 0.4,
    high_gbps: float = 14.0,
    low_gbps: float = 2.0,
) -> List[Phase]:
    """Periodic demand: the paper's evaluation-interval stressor (Sec. 5.1)."""
    _check_duration(duration)
    if period < 2 * MIN_PHASE_DURATION or period > duration:
        raise ValueError(
            f"period must be in [{2 * MIN_PHASE_DURATION}, duration], got {period}"
        )
    if not 0.0 < duty_cycle < 1.0:
        raise ValueError(f"duty cycle must be in (0, 1), got {duty_cycle}")
    if high_gbps < 0 or low_gbps < 0:
        raise ValueError("demands must be non-negative")
    phases: List[Phase] = []
    elapsed = 0.0
    index = 0
    while duration - elapsed > MIN_PHASE_DURATION:
        cycle = min(period, duration - elapsed)
        high_d = cycle * duty_cycle
        demand = high_gbps * _jitter(rng, 0.05)
        phases.append(
            make_phase(
                f"high_{index}", high_d,
                compute=0.35, memory_latency=0.1,
                memory_bandwidth=max(0.08, bandwidth_pressure(demand)),
                cpu_gbps=demand, cpu_activity=0.95,
            )
        )
        if cycle - high_d > MIN_PHASE_DURATION:
            phases.append(
                make_phase(
                    f"low_{index}", cycle - high_d,
                    compute=0.75, memory_latency=0.05, memory_bandwidth=0.02,
                    cpu_gbps=low_gbps * _jitter(rng, 0.05), cpu_activity=0.8,
                )
            )
        elapsed += cycle
        index += 1
    return phases


@register_generator(
    "ramp", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "bandwidth demand ramping linearly between two endpoints",
)
def ramp(
    rng: np.random.Generator,
    duration: float = 1.0,
    steps: int = 8,
    start_gbps: float = 1.0,
    end_gbps: float = 18.0,
) -> List[Phase]:
    """Monotonic ramp: demand sweeps the predictor's whole decision range."""
    _check_duration(duration, steps)
    if steps < 2:
        raise ValueError(f"a ramp needs at least 2 steps, got {steps}")
    if start_gbps < 0 or end_gbps < 0:
        raise ValueError("demands must be non-negative")
    step_d = duration / steps
    phases: List[Phase] = []
    for index in range(steps):
        frac = index / (steps - 1)
        demand = (start_gbps + (end_gbps - start_gbps) * frac) * _jitter(rng, 0.05)
        pressure = bandwidth_pressure(demand)
        phases.append(
            make_phase(
                f"ramp_{index}", step_d,
                compute=max(0.15, 0.75 - 0.55 * demand / CEILING_GBPS),
                memory_latency=0.08 + 0.1 * demand / CEILING_GBPS,
                memory_bandwidth=pressure,
                cpu_gbps=demand, cpu_activity=0.9,
            )
        )
    return phases


@register_generator(
    "idle_heavy", WorkloadClass.BATTERY_LIFE, PerformanceMetric.AVERAGE_POWER,
    "battery-life shape: brief active bursts between deep package-idle spans",
)
def idle_heavy(
    rng: np.random.Generator,
    duration: float = 2.0,
    segments: int = 6,
    active_fraction: float = 0.25,
    active_gbps: float = 3.0,
) -> List[Phase]:
    """Idle-heavy activity: the Sec. 7.3 battery-life residency structure."""
    _check_duration(duration, segments)
    if not 0.0 < active_fraction < 1.0:
        raise ValueError(f"active fraction must be in (0, 1), got {active_fraction}")
    if active_gbps < 0:
        raise ValueError("demands must be non-negative")
    segment = duration / segments
    phases: List[Phase] = []
    for index in range(segments):
        share = min(0.85, max(0.08, active_fraction * _jitter(rng, 0.35)))
        phases.append(
            make_phase(
                f"active_{index}", segment * share,
                compute=0.5, memory_latency=0.12, memory_bandwidth=0.05, io=0.08,
                cpu_gbps=active_gbps * _jitter(rng), io_gbps=0.4,
                cpu_activity=0.7, io_activity=0.3, active_cores=1,
            )
        )
        phases.append(
            make_phase(
                f"idle_{index}", segment * (1.0 - share),
                compute=0.08, io=0.05,
                cpu_gbps=0.2, io_gbps=0.3 * _jitter(rng, 0.3),
                cpu_activity=0.1, io_activity=0.15, active_cores=1,
                residency=CStateResidency(DEEP_IDLE_RESIDENCY),
            )
        )
    return phases


@register_generator(
    "memory_thrash", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "sustained near-ceiling bandwidth demand, latency- and bandwidth-bound",
)
def memory_thrash(
    rng: np.random.Generator,
    duration: float = 1.0,
    segments: int = 6,
    demand_gbps: float = 20.0,
) -> List[Phase]:
    """Memory thrash: the anti-SysScale adversary (never safe to scale down)."""
    _check_duration(duration, segments)
    if demand_gbps < 0:
        raise ValueError("demands must be non-negative")
    segment = duration / segments
    phases: List[Phase] = []
    for index in range(segments):
        demand = demand_gbps * _jitter(rng, 0.1)
        phases.append(
            make_phase(
                f"thrash_{index}", segment,
                compute=0.15, memory_latency=0.3,
                memory_bandwidth=max(0.35, bandwidth_pressure(demand)),
                cpu_gbps=demand, cpu_activity=0.98,
            )
        )
    return phases


@register_generator(
    "graphics_interference", WorkloadClass.GRAPHICS, PerformanceMetric.FRAMES_PER_SECOND,
    "render-bound frames with CPU bursts competing for memory bandwidth",
)
def graphics_interference(
    rng: np.random.Generator,
    duration: float = 1.0,
    segments: int = 5,
    gfx_gbps: float = 9.0,
    cpu_gbps: float = 5.0,
) -> List[Phase]:
    """Graphics + CPU co-interference: who wins the bandwidth predictor?"""
    _check_duration(duration, segments)
    if gfx_gbps < 0 or cpu_gbps < 0:
        raise ValueError("demands must be non-negative")
    segment = duration / segments
    phases: List[Phase] = []
    for index in range(segments):
        gfx_demand = gfx_gbps * _jitter(rng)
        cpu_demand = cpu_gbps * _jitter(rng)
        phases.append(
            make_phase(
                f"render_{index}", segment * 0.6,
                gfx=0.6, compute=0.12, memory_latency=0.06,
                memory_bandwidth=bandwidth_pressure(gfx_demand + 1.0),
                cpu_gbps=1.0, gfx_gbps=gfx_demand,
                cpu_activity=0.4, gfx_activity=0.95,
            )
        )
        phases.append(
            make_phase(
                f"contend_{index}", segment * 0.4,
                gfx=0.35, compute=0.3, memory_latency=0.1,
                memory_bandwidth=bandwidth_pressure(gfx_demand + cpu_demand),
                cpu_gbps=cpu_demand, gfx_gbps=gfx_demand * 0.8,
                cpu_activity=0.85, gfx_activity=0.8,
            )
        )
    return phases


@register_generator(
    "io_streaming", WorkloadClass.BATTERY_LIFE, PerformanceMetric.AVERAGE_POWER,
    "steady IO-agent streaming (camera/display-like) with a modest CPU load",
)
def io_streaming(
    rng: np.random.Generator,
    duration: float = 1.5,
    segments: int = 5,
    stream_gbps: float = 4.0,
    cpu_gbps: float = 1.0,
) -> List[Phase]:
    """IO streaming: constant isochronous demand the predictor must respect."""
    _check_duration(duration, segments)
    if stream_gbps < 0 or cpu_gbps < 0:
        raise ValueError("demands must be non-negative")
    segment = duration / segments
    phases: List[Phase] = []
    for index in range(segments):
        spike = rng.random() < 0.3
        io_demand = stream_gbps * (_jitter(rng, 0.05) + (0.6 if spike else 0.0))
        phases.append(
            make_phase(
                f"stream_{index}", segment,
                compute=0.3, memory_latency=0.06,
                memory_bandwidth=bandwidth_pressure(io_demand + cpu_gbps),
                io=0.18,
                cpu_gbps=cpu_gbps * _jitter(rng, 0.3), io_gbps=io_demand,
                cpu_activity=0.5, io_activity=0.8, active_cores=1,
            )
        )
    return phases


# ---------------------------------------------------------------------------
# Composite generators (built with repro.scenarios.compose)
# ---------------------------------------------------------------------------


@register_generator(
    "burst_then_idle", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "a bursty working span followed by an idle-heavy tail (concat)",
)
def burst_then_idle(
    rng: np.random.Generator,
    duration: float = 2.0,
    burst_share: float = 0.5,
) -> List[Phase]:
    """Race-to-idle: heavy bursts, then a long idle tail."""
    _check_duration(duration, 2)
    if not 0.0 < burst_share < 1.0:
        raise ValueError(f"burst share must be in (0, 1), got {burst_share}")
    head = bursty(rng, duration=duration * burst_share, segments=4)
    tail = idle_heavy(rng, duration=duration * (1.0 - burst_share), segments=3)
    return list(compose.concat(head, tail))


@register_generator(
    "sawtooth", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "a demand ramp repeated tooth after tooth (repeat)",
)
def sawtooth(
    rng: np.random.Generator,
    duration: float = 1.5,
    teeth: int = 3,
    low_gbps: float = 1.0,
    high_gbps: float = 16.0,
) -> List[Phase]:
    """Sawtooth demand: every tooth forces a fresh up/down transition pair."""
    if teeth < 1:
        raise ValueError(f"tooth count must be at least 1, got {teeth}")
    _check_duration(duration, 4 * teeth)
    tooth = ramp(
        rng, duration=duration / teeth, steps=4,
        start_gbps=low_gbps, end_gbps=high_gbps,
    )
    return list(compose.repeat(tooth, teeth))


@register_generator(
    "coresident_gfx_stream", WorkloadClass.GRAPHICS, PerformanceMetric.FRAMES_PER_SECOND,
    "graphics interference time-shared with IO streaming (mix)",
)
def coresident_gfx_stream(
    rng: np.random.Generator,
    duration: float = 1.2,
    weight: float = 0.6,
) -> List[Phase]:
    """Two co-resident apps: a render loop sharing the SoC with a streamer."""
    _check_duration(duration, 2)
    render = graphics_interference(rng, duration=duration, segments=4)
    stream = io_streaming(rng, duration=duration, segments=4)
    return list(compose.mix(render, stream, weight=weight))


@register_generator(
    "interleaved_thrash", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "periodic demand interleaved with memory-thrash slices (interleave)",
)
def interleaved_thrash(
    rng: np.random.Generator,
    duration: float = 1.2,
) -> List[Phase]:
    """Fast alternation between a predictable wave and worst-case thrash."""
    _check_duration(duration, 4)
    wave = periodic(rng, duration=duration / 2, period=duration / 8)
    thrash = memory_thrash(rng, duration=duration / 2, segments=4)
    return list(compose.interleave(wave, thrash))
