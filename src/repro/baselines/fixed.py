"""The evaluation baseline: SysScale disabled.

With SysScale disabled (Sec. 6: "For our baseline measurements we disable SysScale
on the same SoC"), the IO and memory domains stay at their default high operating
point and the PBM reserves their worst-case power regardless of actual demand
(Observation 1).  The compute domain still applies its own DVFS within the fixed
compute budget, which the simulation engine handles through the PBM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.sim.platform import Platform
from repro.sim.policy import PolicyAction, StaticPolicy
from repro.workloads.trace import WorkloadTrace


@dataclass
class FixedBaselinePolicy(StaticPolicy):
    """Keep the IO and memory domains at the worst-case-provisioned high point."""

    name: str = "Baseline"

    def reset(self, platform: Platform, trace: WorkloadTrace) -> PolicyAction:
        """Build the single action the baseline ever uses."""
        del trace
        self._action = PolicyAction(
            name="baseline_high",
            dram_frequency=platform.dram.max_frequency,
            interconnect_frequency=config.IO_INTERCONNECT_HIGH_FREQUENCY,
            v_sa_scale=1.0,
            v_io_scale=1.0,
            mrc_optimized=True,
            io_memory_budget=platform.worst_case_io_memory_power(),
            transition_latency=0.0,
        )
        return self._action
