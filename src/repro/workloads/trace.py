"""Workload phase traces.

A workload is modelled as a sequence of :class:`Phase` objects.  Each phase carries
the characteristics that determine how the workload responds to multi-domain DVFS:

* a **bottleneck mix** -- what fraction of the phase's execution time is bound by
  CPU core frequency, graphics frequency, main-memory latency, main-memory
  bandwidth, IO, or nothing the SoC clocks control (Fig. 2(b));
* **memory bandwidth demand**, split by requester (CPU cores, graphics, IO
  agents), which is what Fig. 3 plots over time and what the demand predictor has
  to anticipate;
* **activity factors** used by the power model; and
* a **package C-state residency** profile for battery-life workloads (Sec. 7.3).

Traces are pure data: they know nothing about the SoC configuration they will be
run on.  The reference configuration at which the durations and demands were
characterised is recorded on the trace so the performance model can scale from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro import config
from repro.numeric import ordered_sum
from repro.power.cstates import CStateResidency


class WorkloadClass(str, enum.Enum):
    """The workload classes the paper evaluates (Sec. 6) plus the Fig. 4 microbenchmark."""

    CPU_SINGLE_THREAD = "cpu_single_thread"
    CPU_MULTI_THREAD = "cpu_multi_thread"
    GRAPHICS = "graphics"
    BATTERY_LIFE = "battery_life"
    MICROBENCHMARK = "microbenchmark"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PerformanceMetric(str, enum.Enum):
    """How performance is reported for a workload class (Sec. 6)."""

    BENCHMARK_SCORE = "benchmark_score"   # SPEC CPU2006
    FRAMES_PER_SECOND = "frames_per_second"  # 3DMark
    AVERAGE_POWER = "average_power"        # battery-life workloads
    BANDWIDTH = "bandwidth"                # microbenchmarks

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Phase:
    """One execution phase of a workload at the reference configuration.

    The five ``*_fraction`` fields plus ``other_fraction`` must sum to 1; they
    express what limits the phase at the reference configuration.  Bandwidth
    demands are bytes/second *at the reference configuration*.
    """

    name: str
    duration: float
    compute_fraction: float = 0.0
    gfx_fraction: float = 0.0
    memory_latency_fraction: float = 0.0
    memory_bandwidth_fraction: float = 0.0
    io_fraction: float = 0.0
    other_fraction: float = 0.0
    cpu_bandwidth_demand: float = 0.0
    gfx_bandwidth_demand: float = 0.0
    io_bandwidth_demand: float = 0.0
    cpu_activity: float = 1.0
    gfx_activity: float = 0.0
    io_activity: float = 0.3
    active_cores: int = config.SKYLAKE_CORE_COUNT
    residency: CStateResidency = field(default_factory=CStateResidency.active_only)

    #: The six bottleneck-fraction field names, in ``fraction_vector`` order.
    FRACTION_FIELDS = (
        "compute_fraction",
        "gfx_fraction",
        "memory_latency_fraction",
        "memory_bandwidth_fraction",
        "io_fraction",
        "other_fraction",
    )

    def __post_init__(self) -> None:
        # Validation names the offending field: synthesized phases (see
        # repro.scenarios) must fail loudly here, not corrupt a simulation.
        if self.duration <= 0:
            raise ValueError(
                f"phase {self.name!r}: duration must be positive, got {self.duration}"
            )
        for field_name in self.FRACTION_FIELDS:
            if getattr(self, field_name) < -1e-12:
                raise ValueError(
                    f"phase {self.name!r}: {field_name} must be non-negative, "
                    f"got {getattr(self, field_name)}"
                )
        total = ordered_sum(self.fraction_vector())
        if abs(total - 1.0) > 1e-6:
            detail = ", ".join(
                f"{field_name}={getattr(self, field_name):.6f}"
                for field_name in self.FRACTION_FIELDS
            )
            raise ValueError(
                f"phase {self.name!r}: bottleneck fractions must sum to 1, "
                f"got {total:.6f} ({detail})"
            )
        for field_name in (
            "cpu_bandwidth_demand", "gfx_bandwidth_demand", "io_bandwidth_demand"
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(
                    f"phase {self.name!r}: {field_name} must be non-negative, "
                    f"got {getattr(self, field_name)}"
                )
        for field_name in ("cpu_activity", "gfx_activity", "io_activity"):
            if not 0.0 <= getattr(self, field_name) <= 1.0:
                raise ValueError(
                    f"phase {self.name!r}: {field_name} must be in [0, 1], "
                    f"got {getattr(self, field_name)}"
                )
        if self.active_cores < 0:
            raise ValueError(
                f"phase {self.name!r}: active_cores must be non-negative, "
                f"got {self.active_cores}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def fraction_vector(self) -> Tuple[float, ...]:
        """The six bottleneck fractions in a fixed order."""
        return (
            self.compute_fraction,
            self.gfx_fraction,
            self.memory_latency_fraction,
            self.memory_bandwidth_fraction,
            self.io_fraction,
            self.other_fraction,
        )

    @property
    def memory_bandwidth_demand(self) -> float:
        """Total main-memory bandwidth demand (bytes/s) at the reference configuration."""
        return self.cpu_bandwidth_demand + self.gfx_bandwidth_demand + self.io_bandwidth_demand

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of the phase bound by main memory (latency + bandwidth)."""
        return self.memory_latency_fraction + self.memory_bandwidth_fraction

    @property
    def scalability_with_cpu_frequency(self) -> float:
        """Performance scalability with CPU frequency (Sec. 6, footnote 8).

        A phase entirely bound by the CPU cores scales 1:1 with core frequency; a
        memory-bound phase does not scale at all.
        """
        return self.compute_fraction

    @property
    def scalability_with_gfx_frequency(self) -> float:
        """Performance scalability with graphics frequency."""
        return self.gfx_fraction

    def with_updates(self, **changes) -> "Phase":
        """Return a copy of the phase with the given fields replaced."""
        return replace(self, **changes)

    def scaled_duration(self, factor: float) -> "Phase":
        """Return a copy with the duration multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("duration scale factor must be positive")
        return self.with_updates(duration=self.duration * factor)


@dataclass(frozen=True)
class WorkloadTrace:
    """A named sequence of phases plus the metadata the harness needs."""

    name: str
    workload_class: WorkloadClass
    phases: Tuple[Phase, ...]
    metric: PerformanceMetric = PerformanceMetric.BENCHMARK_SCORE
    reference_cpu_frequency: float = config.SKYLAKE_CPU_BASE_FREQUENCY
    reference_gfx_frequency: float = config.SKYLAKE_GFX_BASE_FREQUENCY
    reference_dram_frequency: float = config.LPDDR3_FREQUENCY_BINS[0]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"workload {self.name!r}: needs at least one phase")
        for field_name in (
            "reference_cpu_frequency",
            "reference_gfx_frequency",
            "reference_dram_frequency",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(
                    f"workload {self.name!r}: {field_name} must be positive, "
                    f"got {getattr(self, field_name)}"
                )

    # ------------------------------------------------------------------
    # Aggregate characteristics
    # ------------------------------------------------------------------
    @property
    def total_duration(self) -> float:
        """Total duration (seconds) at the reference configuration."""
        return ordered_sum(phase.duration for phase in self.phases)

    def _weighted(self, selector) -> float:
        total = self.total_duration
        return ordered_sum(selector(phase) * phase.duration for phase in self.phases) / total

    @property
    def average_bandwidth_demand(self) -> float:
        """Duration-weighted average memory bandwidth demand (bytes/s)."""
        return self._weighted(lambda p: p.memory_bandwidth_demand)

    @property
    def peak_bandwidth_demand(self) -> float:
        """Highest per-phase memory bandwidth demand (bytes/s)."""
        return max(phase.memory_bandwidth_demand for phase in self.phases)

    @property
    def average_memory_bound_fraction(self) -> float:
        """Duration-weighted average memory-bound (latency + bandwidth) fraction."""
        return self._weighted(lambda p: p.memory_bound_fraction)

    @property
    def cpu_frequency_scalability(self) -> float:
        """Duration-weighted performance scalability with CPU frequency."""
        return self._weighted(lambda p: p.scalability_with_cpu_frequency)

    @property
    def gfx_frequency_scalability(self) -> float:
        """Duration-weighted performance scalability with graphics frequency."""
        return self._weighted(lambda p: p.scalability_with_gfx_frequency)

    @property
    def is_graphics_centric(self) -> bool:
        """True when the graphics engine is the dominant compute consumer."""
        return self.workload_class is WorkloadClass.GRAPHICS

    @property
    def has_fixed_performance_demand(self) -> bool:
        """True for battery-life workloads, whose performance demand is fixed (Sec. 7.3)."""
        return self.workload_class is WorkloadClass.BATTERY_LIFE

    # ------------------------------------------------------------------
    # Time series (Fig. 3(a))
    # ------------------------------------------------------------------
    def bandwidth_timeline(self, sample_interval: float = config.ms(100)) -> List[Tuple[float, float]]:
        """(time, bandwidth demand) samples across the trace at the reference config."""
        if sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        samples: List[Tuple[float, float]] = []
        elapsed = 0.0
        for phase in self.phases:
            t = 0.0
            while t < phase.duration - 1e-12:
                samples.append((elapsed + t, phase.memory_bandwidth_demand))
                t += sample_interval
            elapsed += phase.duration
        return samples


def uniform_phase_trace(
    name: str,
    workload_class: WorkloadClass,
    phase: Phase,
    repetitions: int = 1,
    metric: PerformanceMetric = PerformanceMetric.BENCHMARK_SCORE,
    description: str = "",
) -> WorkloadTrace:
    """Build a trace that repeats one phase ``repetitions`` times.

    Useful for microbenchmarks and for the threshold calibration's boundary probes.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    phases = tuple(
        phase.with_updates(name=f"{phase.name}_{index}") for index in range(repetitions)
    )
    return WorkloadTrace(
        name=name,
        workload_class=workload_class,
        phases=phases,
        metric=metric,
        description=description,
    )
