"""Analytic phase performance model.

The model converts a workload phase (characterised at the reference configuration)
and an arbitrary SoC state into a *slowdown factor*: how much longer the phase
takes under that state than it did at the reference.  The decomposition follows
the bottleneck mix of the phase (DESIGN.md Sec. 4):

``slowdown = f_compute * (f_cpu_ref / f_cpu)
           + f_gfx     * (f_gfx_ref / f_gfx)
           + f_lat     * (latency(state) / latency_ref)
           + f_bw      * max(1, demand / bandwidth_available(state))
           + f_io      * (f_ic_ref / f_ic) ** io_sensitivity
           + f_other``

Each term reproduces one of the effects the paper describes: compute-bound phases
scale with core frequency (Sec. 7.1), memory-latency-bound phases suffer when the
memory subsystem slows down (cactusADM in Fig. 2), bandwidth-bound phases suffer
when the achievable bandwidth drops below their demand (lbm), IO-bound phases react
to the interconnect clock, and the ``other`` fraction is insensitive to all clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import config
from repro.memory.mrc import MrcRegisterFile
from repro.perf.latency import MemoryLatencyModel
from repro.soc.domains import SoCState
from repro.workloads.trace import Phase


@dataclass(frozen=True)
class PhaseSlowdown:
    """The per-term breakdown of a phase's slowdown under some SoC state."""

    compute_term: float
    gfx_term: float
    latency_term: float
    bandwidth_term: float
    io_term: float
    other_term: float
    achieved_bandwidth: float

    @property
    def total(self) -> float:
        """Total slowdown factor (1.0 = same speed as the reference)."""
        return (
            self.compute_term
            + self.gfx_term
            + self.latency_term
            + self.bandwidth_term
            + self.io_term
            + self.other_term
        )

    def as_dict(self) -> dict:
        """Flat dictionary view including the total."""
        return {
            "compute": self.compute_term,
            "gfx": self.gfx_term,
            "latency": self.latency_term,
            "bandwidth": self.bandwidth_term,
            "io": self.io_term,
            "other": self.other_term,
            "total": self.total,
            "achieved_bandwidth_gbps": self.achieved_bandwidth / config.GBPS,
        }


@dataclass
class PhasePerformanceModel:
    """Maps (phase, SoC state) to execution-time slowdown and achieved bandwidth."""

    latency_model: MemoryLatencyModel
    reference_cpu_frequency: float = config.SKYLAKE_CPU_BASE_FREQUENCY
    reference_gfx_frequency: float = config.SKYLAKE_GFX_BASE_FREQUENCY
    reference_interconnect_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY
    io_sensitivity: float = 0.15

    def __post_init__(self) -> None:
        for name in (
            "reference_cpu_frequency",
            "reference_gfx_frequency",
            "reference_interconnect_frequency",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.io_sensitivity <= 1.0:
            raise ValueError("io_sensitivity must be in [0, 1]")

    # ------------------------------------------------------------------
    # Slowdown
    # ------------------------------------------------------------------
    def slowdown(
        self,
        phase: Phase,
        state: SoCState,
        mrc: Optional[MrcRegisterFile] = None,
    ) -> PhaseSlowdown:
        """Slowdown of ``phase`` under ``state`` relative to the reference configuration."""
        cpu_ratio = self.reference_cpu_frequency / state.cpu_frequency
        gfx_ratio = self.reference_gfx_frequency / state.gfx_frequency
        ic_ratio = self.reference_interconnect_frequency / state.interconnect_frequency

        demand = phase.memory_bandwidth_demand
        latency_ratio = self.latency_model.latency_ratio(state, demand, mrc)
        available = self.latency_model.available_bandwidth(state, mrc)
        reference_available = self.latency_model.reference_bandwidth()

        # At the reference configuration the bandwidth term is max(1, demand/ref);
        # normalising by it keeps the reference slowdown at exactly 1.0 even for
        # saturating workloads (lbm runs at the ceiling in both configurations).
        reference_bw_term = max(1.0, demand / reference_available) if reference_available else 1.0
        bw_term = max(1.0, demand / available) if available > 0 else float("inf")
        bw_ratio = bw_term / reference_bw_term

        compute_term = phase.compute_fraction * cpu_ratio
        gfx_term = phase.gfx_fraction * gfx_ratio
        latency_term = phase.memory_latency_fraction * latency_ratio
        bandwidth_term = phase.memory_bandwidth_fraction * bw_ratio
        io_term = phase.io_fraction * (ic_ratio ** self.io_sensitivity)
        other_term = phase.other_fraction

        total = compute_term + gfx_term + latency_term + bandwidth_term + io_term + other_term
        achieved = min(demand / total if total > 0 else demand, available)

        return PhaseSlowdown(
            compute_term=compute_term,
            gfx_term=gfx_term,
            latency_term=latency_term,
            bandwidth_term=bandwidth_term,
            io_term=io_term,
            other_term=other_term,
            achieved_bandwidth=achieved,
        )

    def execution_time(
        self,
        phase: Phase,
        state: SoCState,
        mrc: Optional[MrcRegisterFile] = None,
    ) -> float:
        """Execution time (seconds) of ``phase`` under ``state``."""
        return phase.duration * self.slowdown(phase, state, mrc).total
