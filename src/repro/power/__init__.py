"""Power modelling substrate: compute power, budgets, P-states, C-states, metrics.

This package contains the chip-level power machinery the paper's power-management
unit (PMU) relies on: the CV^2f + leakage power model of the compute domain, the
thermal-design-power (TDP) budget manager that splits the package budget across
domains (Sec. 1, Sec. 4.3), the P-state tables used to convert a power budget into
core/graphics frequencies (Sec. 4.4), the package C-states battery-life workloads
spend most of their time in (Sec. 7.3), and the energy / EDP metrics (Sec. 2.4).
"""

from repro.power.models import ComputePowerModel, ComputePowerBreakdown, SoCPowerModel
from repro.power.pstates import (
    build_cpu_vf_curve,
    build_gfx_vf_curve,
    build_cpu_pstates,
    build_gfx_pstates,
    max_pstate_within_budget,
)
from repro.power.cstates import CState, CStateResidency
from repro.power.budget import PowerBudgetManager, DomainBudgets
from repro.power.energy import EnergyMetrics, energy_delay_product

__all__ = [
    "ComputePowerModel",
    "ComputePowerBreakdown",
    "SoCPowerModel",
    "build_cpu_vf_curve",
    "build_gfx_vf_curve",
    "build_cpu_pstates",
    "build_gfx_pstates",
    "max_pstate_within_budget",
    "CState",
    "CStateResidency",
    "PowerBudgetManager",
    "DomainBudgets",
    "EnergyMetrics",
    "energy_delay_product",
]
