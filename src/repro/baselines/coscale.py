"""CoScale [14] comparison point and its -Redist variant.

CoScale coordinates CPU-core DVFS with memory-subsystem DVFS in server systems: it
searches for the joint (CPU frequency, memory frequency) configuration that
minimizes energy while staying inside a performance-slack bound.  Relative to
MemScale, the coordination gives it two advantages the paper's projection reflects
(Sec. 6-8):

* it can scale the memory subsystem during a larger fraction of the time because
  the joint model accounts for how CPU and memory slowdowns interact, so its
  decisions are less conservative than MemScale's per-domain slack accounting;
* during memory-bound episodes it additionally lowers the CPU frequency, whose
  saved power also lands in the redistributable pool of the -Redist variant.

It still shares MemScale's structural limitations on a mobile SoC: no IO
interconnect or DDRIO voltage scaling (those are outside both papers' scope) and
no MRC re-optimization, so the Fig. 4 penalties still apply.  For graphics and
battery-life workloads the CPU already sits at its lowest frequency, so CoScale's
CPU-side advantage disappears and it matches MemScale (Sec. 7.2-7.3), which is
exactly how the paper explains the near-identical bars of Figs. 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.baselines.memscale import (
    MemScaleRedistProjection,
    UNOPTIMIZED_MRC_SLOWDOWN_SHARE,
)
from repro.workloads.trace import WorkloadClass, WorkloadTrace


#: CoScale's epoch controller selects the reduced memory frequency more often than
#: MemScale's because the joint CPU+memory model bounds slack more accurately.
#: Modelling parameter; see DESIGN.md.
COSCALE_LOW_RESIDENCY = 0.80

#: Fraction of the per-core power CoScale can shed by lowering the CPU frequency
#: during memory-bound execution (one or two bins of headroom at these TDPs).
COSCALE_CPU_SCALING_DEPTH = 0.35


@dataclass
class CoScaleRedistProjection(MemScaleRedistProjection):
    """CoScale-Redist: the paper's projection of CoScale plus budget redistribution."""

    low_residency: float = COSCALE_LOW_RESIDENCY
    technique: str = "CoScale-Redist"
    cpu_scaling_depth: float = COSCALE_CPU_SCALING_DEPTH

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.cpu_scaling_depth <= 1.0:
            raise ValueError("CPU scaling depth must be in [0, 1]")

    def estimate_power_savings(self, trace: WorkloadTrace) -> float:
        """MemScale-style memory savings plus CPU-side savings from coordination.

        The CPU-side term exists only for CPU workloads: for graphics and
        battery-life workloads the cores already run at the lowest possible
        frequency, so "CoScale cannot further scale down the CPU frequency"
        (Sec. 7.2) and the estimate collapses to the memory-only term.
        """
        memory_savings = super().estimate_power_savings(trace)
        if trace.workload_class in (WorkloadClass.GRAPHICS, WorkloadClass.BATTERY_LIFE):
            # Without a CPU to slow down, CoScale behaves like MemScale (Sec. 7.2):
            # rescale the memory-only savings to MemScale's decision residency so
            # the two techniques project identically, as the paper observes.
            from repro.baselines.memscale import MEMSCALE_LOW_RESIDENCY

            return memory_savings * MEMSCALE_LOW_RESIDENCY / self.low_residency

        phase = max(trace.phases, key=lambda p: p.duration)
        state = self.platform.default_state()
        cpu_power = self.platform.compute_power.cpu_power(
            state.cpu_frequency,
            activity=phase.cpu_activity,
            active_cores=phase.active_cores,
        )
        memory_bound = trace.average_memory_bound_fraction
        cpu_savings = cpu_power * self.cpu_scaling_depth * memory_bound
        return memory_savings + cpu_savings

    def low_point_slowdown(self, trace: WorkloadTrace) -> float:
        """CoScale bounds its own slowdown more tightly, but MRC staleness remains."""
        memory_bound = trace.average_memory_bound_fraction
        return (
            memory_bound
            * config.UNOPTIMIZED_MRC_PERFORMANCE_PENALTY
            * UNOPTIMIZED_MRC_SLOWDOWN_SHARE
            * self.low_residency
            * 0.8
        )
