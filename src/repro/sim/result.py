"""Simulation results and per-domain energy accounting.

A :class:`SimulationResult` records everything the experiment harness needs to
build the paper's tables and figures: execution time, total and per-domain energy,
average power, EDP, DVFS-transition statistics, operating-point residency, and the
frequencies the PBM actually granted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import config
from repro.numeric import ordered_sum
from repro.power.energy import EnergyMetrics


@dataclass(frozen=True)
class EngineRunStats:
    """Loop statistics of one ``SimulationEngine.run`` (diagnostics only).

    Exposed as ``SimulationEngine.last_run_stats`` and consumed by the
    runtime's engine counters and the parity/regression tests; deliberately
    *not* part of :class:`SimulationResult`, so serialized results (and their
    content-addressed cache entries) are identical no matter which loop
    produced them.

    ``segments`` counts how many stretches of ticks shared one model
    evaluation; ``model_evaluations`` counts the distinct segment models the
    run used (``segments - memo_hits`` for the segment loop, one per tick
    for the reference loop).  A model that an earlier run of the same trace
    built, and the run read from its segment table, counts too, so every
    count is a function of the run alone.
    """

    ticks: int
    segments: int
    model_evaluations: int
    memo_hits: int
    evaluations: int
    transitions: int

    @property
    def ticks_per_evaluation(self) -> float:
        """Average ticks amortized per model-stack evaluation."""
        if self.model_evaluations == 0:
            return float(self.ticks)
        return self.ticks / self.model_evaluations

    def as_dict(self) -> Dict[str, int]:
        return {
            "ticks": self.ticks,
            "segments": self.segments,
            "model_evaluations": self.model_evaluations,
            "memo_hits": self.memo_hits,
            "evaluations": self.evaluations,
            "transitions": self.transitions,
        }


@dataclass
class DomainEnergyBreakdown:
    """Energy (joules) accumulated per domain over a run."""

    compute: float = 0.0
    io: float = 0.0
    memory: float = 0.0
    platform_fixed: float = 0.0

    def add(self, compute: float, io: float, memory: float, platform_fixed: float) -> None:
        """Accumulate one tick's energy contributions."""
        for name, value in (
            ("compute", compute),
            ("io", io),
            ("memory", memory),
            ("platform_fixed", platform_fixed),
        ):
            if value < 0:
                raise ValueError(f"{name} energy contribution must be non-negative")
        self.compute += compute
        self.io += io
        self.memory += memory
        self.platform_fixed += platform_fixed

    @property
    def total(self) -> float:
        """Total energy (joules)."""
        return self.compute + self.io + self.memory + self.platform_fixed

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view including the total."""
        return {
            "compute_j": self.compute,
            "io_j": self.io,
            "memory_j": self.memory,
            "platform_fixed_j": self.platform_fixed,
            "total_j": self.total,
        }

    # ------------------------------------------------------------------
    # Serialization (round-trip exact; used by the runtime result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, float]:
        """Raw per-domain fields; ``from_dict`` restores an equal breakdown."""
        return {
            "compute": self.compute,
            "io": self.io,
            "memory": self.memory,
            "platform_fixed": self.platform_fixed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "DomainEnergyBreakdown":
        """Rebuild a breakdown serialized with :meth:`to_dict`."""
        return cls(
            compute=data["compute"],
            io=data["io"],
            memory=data["memory"],
            platform_fixed=data["platform_fixed"],
        )


@dataclass
class SimulationResult:
    """The outcome of running one workload under one policy on one platform."""

    workload: str
    policy: str
    execution_time: float
    energy: DomainEnergyBreakdown
    transitions: int = 0
    transition_time: float = 0.0
    low_point_time: float = 0.0
    evaluation_count: int = 0
    average_cpu_frequency: float = 0.0
    average_gfx_frequency: float = 0.0
    average_dram_frequency: float = 0.0
    achieved_bandwidth_samples: List[float] = field(default_factory=list)
    notes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.execution_time <= 0:
            raise ValueError("execution time must be positive")
        if self.transitions < 0 or self.transition_time < 0 or self.low_point_time < 0:
            raise ValueError("transition statistics must be non-negative")

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> EnergyMetrics:
        """Energy metrics (average power, EDP, relative comparisons)."""
        return EnergyMetrics(
            energy_joules=self.energy.total,
            execution_time_seconds=self.execution_time,
        )

    @property
    def average_power(self) -> float:
        """Average package power (watts)."""
        return self.metrics.average_power

    @property
    def edp(self) -> float:
        """Energy-delay product (joule-seconds)."""
        return self.metrics.edp

    @property
    def low_point_residency(self) -> float:
        """Fraction of execution time spent at a reduced IO/memory operating point."""
        return min(1.0, self.low_point_time / self.execution_time)

    @property
    def average_achieved_bandwidth(self) -> float:
        """Average achieved memory bandwidth (bytes/s) over the run."""
        if not self.achieved_bandwidth_samples:
            return 0.0
        return ordered_sum(self.achieved_bandwidth_samples) / len(self.achieved_bandwidth_samples)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def performance_improvement_over(self, baseline: "SimulationResult") -> float:
        """Fractional performance improvement over ``baseline`` (0.092 = +9.2 %)."""
        return self.metrics.performance_improvement_over(baseline.metrics)

    def power_reduction_vs(self, baseline: "SimulationResult") -> float:
        """Fractional average-power reduction vs. ``baseline``."""
        return self.metrics.power_reduction_vs(baseline.metrics)

    def energy_reduction_vs(self, baseline: "SimulationResult") -> float:
        """Fractional energy reduction vs. ``baseline``."""
        return self.metrics.energy_reduction_vs(baseline.metrics)

    def edp_improvement_over(self, baseline: "SimulationResult") -> float:
        """Fractional EDP improvement over ``baseline``."""
        return self.metrics.edp_improvement_over(baseline.metrics)

    # ------------------------------------------------------------------
    # Serialization (round-trip exact; used by the runtime result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Every field, verbatim, so ``from_dict`` restores an equal result.

        Unlike :meth:`as_dict` (a flat *summary* with derived metrics for result
        tables), this is a faithful serialization: all floats pass through JSON
        unchanged (``repr`` round-trip), so a cached result is bit-identical to
        the freshly simulated one.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "execution_time": self.execution_time,
            "energy": self.energy.to_dict(),
            "transitions": self.transitions,
            "transition_time": self.transition_time,
            "low_point_time": self.low_point_time,
            "evaluation_count": self.evaluation_count,
            "average_cpu_frequency": self.average_cpu_frequency,
            "average_gfx_frequency": self.average_gfx_frequency,
            "average_dram_frequency": self.average_dram_frequency,
            "achieved_bandwidth_samples": list(self.achieved_bandwidth_samples),
            "notes": dict(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            execution_time=data["execution_time"],
            energy=DomainEnergyBreakdown.from_dict(data["energy"]),
            transitions=data["transitions"],
            transition_time=data["transition_time"],
            low_point_time=data["low_point_time"],
            evaluation_count=data["evaluation_count"],
            average_cpu_frequency=data["average_cpu_frequency"],
            average_gfx_frequency=data["average_gfx_frequency"],
            average_dram_frequency=data["average_dram_frequency"],
            achieved_bandwidth_samples=list(data["achieved_bandwidth_samples"]),
            notes=dict(data["notes"]),
        )

    def as_dict(self) -> dict:
        """Flat summary for result tables."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "time_s": self.execution_time,
            "average_power_w": self.average_power,
            "energy_j": self.energy.total,
            "edp_js": self.edp,
            "transitions": self.transitions,
            "low_point_residency": self.low_point_residency,
            "average_cpu_frequency_ghz": self.average_cpu_frequency / config.GHZ,
            "average_gfx_frequency_mhz": self.average_gfx_frequency / config.MHZ,
            "average_dram_frequency_ghz": self.average_dram_frequency / config.GHZ,
            **{f"note_{key}": value for key, value in self.notes.items()},
        }
