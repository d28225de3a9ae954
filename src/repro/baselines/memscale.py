"""MemScale [16] comparison point and its -Redist variant.

MemScale applies DVFS to the *memory domain only*: it scales the memory
controller's frequency (and voltage) together with the DRAM bus frequency during
low-activity periods, but it does not touch the IO interconnect or the DDRIO
digital voltage rail, and -- like all the prior memory-DVFS work the paper
surveys -- it does not re-optimize the DRAM interface configuration registers for
the new frequency.  Those three omissions are what limit its savings on a mobile
SoC (Sec. 8):

* on our platform the memory controller shares V_SA with the IO interconnect and
  the IO engines, so MemScale cannot lower the rail voltage without coordinating
  with components it does not manage -- only the frequency-proportional part of
  the MC power is saved;
* the DDRIO-digital rail (V_IO) is likewise left at nominal voltage;
* the stale MRC values inflate the DRAM operation/termination power at the low
  frequency (Fig. 4) and slow down memory-bound phases.

Like the paper, the reproduction does not run MemScale: it projects
MemScale-Redist for Figs. 7-9 (``MemScaleRedistProjection``) with the paper's
own three-step methodology (Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import config
from repro.baselines.projection import ProjectionResult, RedistProjection
from repro.numeric import ordered_sum
from repro.sim.platform import Platform
from repro.workloads.trace import WorkloadClass, WorkloadTrace


#: Fraction of evaluation intervals in which MemScale's epoch-based controller
#: actually selects the reduced memory frequency for a workload that could
#: tolerate it.  MemScale's decisions are conservative (it must bound slack
#: without cross-domain information) and its transitions are slower (no MRC sets
#: in SRAM, full re-training on every frequency change), so it captures only part
#: of the opportunity SysScale captures.  Modelling parameter; see DESIGN.md.
MEMSCALE_LOW_RESIDENCY = 0.55

#: Performance cost charged to memory-bound execution when running at the reduced
#: frequency with unoptimized MRC values (Fig. 4 measures ~10 % on a saturating
#: microbenchmark; typical workloads see a fraction of that).
UNOPTIMIZED_MRC_SLOWDOWN_SHARE = 0.5


@dataclass
class MemScaleRedistProjection:
    """MemScale-Redist: the paper's projection of MemScale plus budget redistribution."""

    platform: Platform
    low_residency: float = MEMSCALE_LOW_RESIDENCY
    technique: str = "MemScale-Redist"

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_residency <= 1.0:
            raise ValueError("low residency must be in [0, 1]")
        self._projection = RedistProjection(platform=self.platform)

    # ------------------------------------------------------------------
    # Step 1: estimated average power savings
    # ------------------------------------------------------------------
    def estimate_power_savings(self, trace: WorkloadTrace) -> float:
        """Average power MemScale saves on ``trace`` (watts).

        Only the components MemScale can scale contribute: the
        frequency-proportional share of the memory-controller power, the DRAM
        background power, and the frequency-proportional DDRIO power.  The stale
        MRC registers add back part of the operation power (Fig. 4), and the
        savings only accrue during the fraction of time MemScale actually selects
        the low frequency, which in turn is bounded by how memory-bound the
        workload is.
        """
        platform = self.platform
        high_f = platform.dram.max_frequency
        low_f = platform.dram.next_lower_bin(high_f)
        if low_f is None:
            return 0.0
        ratio = low_f / high_f

        mc_high = platform.memory_power.memory_controller_power(high_f, 1.0)
        mc_saving = mc_high * (1.0 - ratio)  # frequency only; V_SA untouched

        background_high = platform.memory_power.dram_background_power(high_f, False)
        background_low = platform.memory_power.dram_background_power(low_f, False)
        background_saving = background_high - background_low

        ddrio_high = platform.memory_power.ddrio.digital_power(high_f, 1.0)
        ddrio_low = platform.memory_power.ddrio.digital_power(low_f, 1.0)
        analog_high = platform.memory_power.ddrio.analog_power(high_f)
        analog_low = platform.memory_power.ddrio.analog_power(low_f)
        ddrio_saving = (ddrio_high - ddrio_low) + (analog_high - analog_low)

        # Unoptimized MRC inflates operation power at the low frequency,
        # clawing back part of the savings (Fig. 4).
        operation = platform.memory_power.dram_operation_power(
            trace.average_bandwidth_demand, low_f, None
        )
        mrc_penalty = operation * config.UNOPTIMIZED_MRC_POWER_PENALTY

        gross = mc_saving + background_saving + ddrio_saving - mrc_penalty
        gross = max(0.0, gross)

        # MemScale only scales down while the workload leaves slack; the more
        # memory-bound the workload, the less of the time the low frequency is
        # selected.
        opportunity = max(0.0, 1.0 - trace.average_memory_bound_fraction)
        residency = self.low_residency * opportunity
        if trace.workload_class is WorkloadClass.BATTERY_LIFE:
            # Savings apply only while DRAM is active (C0 + C2), Sec. 7.3.
            residency = self.low_residency * self._dram_active_fraction(trace)
        return gross * residency

    def _dram_active_fraction(self, trace: WorkloadTrace) -> float:
        total = trace.total_duration
        return ordered_sum(
            phase.residency.dram_active_fraction * phase.duration for phase in trace.phases
        ) / total

    # ------------------------------------------------------------------
    # Steps 2-3: redistribute and project
    # ------------------------------------------------------------------
    def low_point_slowdown(self, trace: WorkloadTrace) -> float:
        """Performance cost of running memory at the low bin with stale MRC values."""
        memory_bound = trace.average_memory_bound_fraction
        return (
            memory_bound
            * config.UNOPTIMIZED_MRC_PERFORMANCE_PENALTY
            * UNOPTIMIZED_MRC_SLOWDOWN_SHARE
            * self.low_residency
        )

    def project(
        self, trace: WorkloadTrace, baseline_average_power: Optional[float] = None
    ) -> ProjectionResult:
        """Full Sec. 6 projection of MemScale-Redist on one workload.

        ``baseline_average_power`` (watts) lets the caller supply the measured
        baseline power of a battery-life workload so the projected reduction is
        expressed against the same baseline the other policies are compared to.
        """
        savings = self.estimate_power_savings(trace)
        return self._projection.project(
            trace,
            technique=self.technique,
            power_savings=savings,
            low_point_slowdown=self.low_point_slowdown(trace),
            baseline_average_power=baseline_average_power,
        )
