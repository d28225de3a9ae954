"""Static multi-domain DVFS setup (Sec. 3, Table 1).

For the motivation study the paper emulates a crude, *static* version of SysScale
on a Broadwell system: the DRAM frequency is dropped one bin (1.6 -> 1.06 GHz), the
IO interconnect clock is halved (0.8 -> 0.4 GHz), V_SA is reduced to 0.8x nominal
and V_IO to 0.85x nominal, while the CPU cores stay at 1.2 GHz.  Because the
configuration never changes at run time, it shows both the power upside (10-11 %
lower average power) and the performance downside (>10 % slowdown on
memory-bound workloads) of multi-domain DVFS without demand prediction.

The policy also supports the Fig. 2(a) "redistribute" variant in which the saved
average power raises the CPU frequency from 1.2 to 1.3 GHz, and an unoptimized-MRC
variant used by the Fig. 4 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.sim.platform import Platform
from repro.sim.policy import PolicyAction, StaticPolicy
from repro.workloads.trace import WorkloadTrace


def build_md_dvfs_action(
    platform: Platform,
    mrc_optimized: bool = True,
    redistribute_to_compute: bool = False,
) -> PolicyAction:
    """Build the static MD-DVFS action of Table 1.

    ``redistribute_to_compute`` charges the (smaller) provisioned power of the low
    point to the IO/memory domains so the PBM can raise the compute frequency --
    this is the 1.2 -> 1.3 GHz experiment of Fig. 2(a).  Without it, the compute
    budget is identical to the baseline's, isolating the power effect.
    """
    low_dram = platform.dram.next_lower_bin(platform.dram.max_frequency)
    if low_dram is None:
        raise ValueError("the attached DRAM device has a single frequency bin")
    if redistribute_to_compute:
        io_memory_budget = platform.worst_case_io_memory_power(
            dram_frequency=low_dram,
            interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
            v_sa_scale=config.V_SA_LOW_SCALE,
            v_io_scale=config.V_IO_LOW_SCALE,
        )
    else:
        io_memory_budget = platform.worst_case_io_memory_power()
    return PolicyAction(
        name="md_dvfs_low",
        dram_frequency=low_dram,
        interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
        v_sa_scale=config.V_SA_LOW_SCALE,
        v_io_scale=config.V_IO_LOW_SCALE,
        mrc_optimized=mrc_optimized,
        io_memory_budget=io_memory_budget,
        transition_latency=0.0,
    )


@dataclass
class StaticMdDvfsPolicy(StaticPolicy):
    """Always run the IO and memory domains at the Table 1 reduced operating point."""

    mrc_optimized: bool = True
    redistribute_to_compute: bool = False
    name: str = "MD-DVFS"

    def reset(self, platform: Platform, trace: WorkloadTrace) -> PolicyAction:
        """Build the single static action used for the whole run."""
        del trace
        self._action = build_md_dvfs_action(
            platform,
            mrc_optimized=self.mrc_optimized,
            redistribute_to_compute=self.redistribute_to_compute,
        )
        return self._action
