"""TDP power-budget management (PBM) and budget-to-frequency planning.

A mobile SoC runs in a thermally-constrained envelope (TDP); the PMU's power budget
management algorithm distributes the package budget to the domains so that average
power stays within the TDP (Sec. 1).  Two behaviours matter for SysScale:

* **Baseline behaviour** (Observation 1): the IO and memory domains are allocated a
  *fixed* budget corresponding to their worst-case demand, regardless of actual
  utilization, and the compute domain gets whatever remains.
* **SysScale behaviour** (Sec. 4.3): when the IO/memory domains are scaled to a
  lower operating point, their (smaller) actual power is charged against the TDP
  and the freed budget is handed to the compute domain, whose PBM then raises the
  CPU or graphics frequency to the highest P-state that fits.

Within the compute domain, the PBM splits the budget between CPU cores and the
graphics engine according to the workload: for graphics workloads the cores
typically receive only 10-20 % of the compute budget and run at Pn (Sec. 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import config
from repro.power.models import ActivityVector, ComputePowerModel
from repro.power.pstates import max_pstate_within_budget
from repro.soc.vf_curves import PState, PStateTable


@dataclass(frozen=True)
class DomainBudgets:
    """The package budget split across domains (watts)."""

    tdp: float
    compute: float
    io_memory: float
    platform_fixed: float

    def __post_init__(self) -> None:
        for name in ("tdp", "compute", "io_memory", "platform_fixed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def allocated(self) -> float:
        """Sum of all allocations (should not exceed the TDP)."""
        return self.compute + self.io_memory + self.platform_fixed

    def as_dict(self) -> dict:
        """Flat dictionary view."""
        return {
            "tdp": self.tdp,
            "compute": self.compute,
            "io_memory": self.io_memory,
            "platform_fixed": self.platform_fixed,
        }


@dataclass(frozen=True)
class ComputePlan:
    """The compute-domain frequencies the PBM grants for a given budget."""

    cpu_state: PState
    gfx_state: PState
    projected_power: float

    def as_dict(self) -> dict:
        """Flat dictionary view."""
        return {
            "cpu_frequency_ghz": self.cpu_state.frequency / config.GHZ,
            "gfx_frequency_mhz": self.gfx_state.frequency / config.MHZ,
            "projected_power_w": self.projected_power,
        }


@dataclass
class PowerBudgetManager:
    """The PMU's power budget manager.

    Parameters
    ----------
    tdp:
        Package thermal design power in watts.
    compute_model:
        Power model used to project compute-domain power at candidate P-states.
    cpu_pstates / gfx_pstates:
        P-state tables of the CPU cores and the graphics engine.
    platform_fixed_power:
        Package power that no policy can reallocate.
    worst_case_io_memory_power:
        The fixed IO+memory reservation the *baseline* PBM makes (Observation 1).
    graphics_cpu_budget_share:
        Share of the compute budget given to the CPU cores when a graphics workload
        is running (Sec. 7.2: "10 % to 20 %"; the midpoint is used).
    """

    tdp: float
    compute_model: ComputePowerModel
    cpu_pstates: PStateTable
    gfx_pstates: PStateTable
    platform_fixed_power: float = config.PLATFORM_FIXED_POWER
    worst_case_io_memory_power: float = config.BASELINE_IO_MEMORY_RESERVATION
    graphics_cpu_budget_share: float = 0.15
    #: Compute plans by :meth:`plan` arguments (see there for the key).
    _plan_memo: Dict[tuple, ComputePlan] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.tdp <= 0:
            raise ValueError("TDP must be positive")
        if self.platform_fixed_power < 0 or self.worst_case_io_memory_power < 0:
            raise ValueError("power reservations must be non-negative")
        if not 0.0 < self.graphics_cpu_budget_share < 1.0:
            raise ValueError("graphics CPU budget share must be in (0, 1)")

    # ------------------------------------------------------------------
    # Budget computation
    # ------------------------------------------------------------------
    def budgets(self, io_memory_allocation: Optional[float] = None) -> DomainBudgets:
        """Split the TDP given an IO+memory allocation.

        ``io_memory_allocation`` defaults to the worst-case reservation, which is
        what the baseline PBM does; SysScale passes the *actual* (predicted) power
        of the IO and memory domains at the chosen operating point instead.
        """
        if io_memory_allocation is None:
            io_memory_allocation = self.worst_case_io_memory_power
        if io_memory_allocation < 0:
            raise ValueError("IO+memory allocation must be non-negative")
        compute = max(0.0, self.tdp - self.platform_fixed_power - io_memory_allocation)
        return DomainBudgets(
            tdp=self.tdp,
            compute=compute,
            io_memory=io_memory_allocation,
            platform_fixed=self.platform_fixed_power,
        )

    def redistributed_budget(self, saved_io_memory_power: float) -> DomainBudgets:
        """Budgets after handing ``saved_io_memory_power`` watts back to compute."""
        if saved_io_memory_power < 0:
            raise ValueError("saved power must be non-negative")
        allocation = max(0.0, self.worst_case_io_memory_power - saved_io_memory_power)
        return self.budgets(allocation)

    # ------------------------------------------------------------------
    # Compute-domain planning
    # ------------------------------------------------------------------
    def plan_cpu_centric(
        self, compute_budget: float, activity: ActivityVector
    ) -> ComputePlan:
        """Pick frequencies for a CPU-centric workload: graphics stays at its base.

        The graphics engine is parked at its lowest state; the CPU cluster gets the
        remaining budget after the uncore and graphics floors are charged.
        """
        self._check_budget(compute_budget)
        gfx_state = self.gfx_pstates.min_state
        gfx_power = self.compute_model.gfx_power(
            gfx_state.frequency, activity=min(activity.gfx_activity, 0.2)
        )
        uncore_power = self.compute_model.uncore_power(activity.cpu_activity * 0.6)
        cpu_budget = max(0.0, compute_budget - gfx_power - uncore_power)
        cpu_state = max_pstate_within_budget(
            self.cpu_pstates,
            lambda state: self.compute_model.cpu_power(
                state.frequency,
                activity=activity.cpu_activity,
                active_cores=activity.active_cores,
            ),
            cpu_budget,
        )
        projected = (
            self.compute_model.cpu_power(
                cpu_state.frequency,
                activity=activity.cpu_activity,
                active_cores=activity.active_cores,
            )
            + gfx_power
            + uncore_power
        )
        return ComputePlan(cpu_state=cpu_state, gfx_state=gfx_state, projected_power=projected)

    def plan_graphics_centric(
        self, compute_budget: float, activity: ActivityVector
    ) -> ComputePlan:
        """Pick frequencies for a graphics workload: CPU parked at Pn, GFX gets the rest.

        Sec. 7.2: during graphics workloads the PBM allocates only 10-20 % of the
        compute budget to the CPU cores, which run at the most efficient frequency
        Pn; the graphics engine consumes the remainder.
        """
        self._check_budget(compute_budget)
        cpu_state = self.cpu_pstates.pn
        cpu_share = compute_budget * self.graphics_cpu_budget_share
        cpu_power = self.compute_model.cpu_power(
            cpu_state.frequency,
            activity=min(activity.cpu_activity, 0.6),
            active_cores=activity.active_cores,
        )
        cpu_power = min(cpu_power, cpu_share) if cpu_share > 0 else cpu_power
        uncore_power = self.compute_model.uncore_power(activity.gfx_activity * 0.5)
        gfx_budget = max(0.0, compute_budget - cpu_power - uncore_power)
        gfx_state = max_pstate_within_budget(
            self.gfx_pstates,
            lambda state: self.compute_model.gfx_power(
                state.frequency, activity=activity.gfx_activity
            ),
            gfx_budget,
        )
        projected = (
            cpu_power
            + uncore_power
            + self.compute_model.gfx_power(gfx_state.frequency, activity=activity.gfx_activity)
        )
        return ComputePlan(cpu_state=cpu_state, gfx_state=gfx_state, projected_power=projected)

    def plan_fixed_performance(self) -> ComputePlan:
        """Plan for battery-life workloads: both CPU and GFX at their efficient floor.

        Battery-life workloads have fixed performance demands (Sec. 7.3); the
        compute domain runs at the lowest possible frequencies regardless of budget.
        """
        cpu_state = self.cpu_pstates.pn
        gfx_state = self.gfx_pstates.min_state
        projected = self.compute_model.cpu_power(
            cpu_state.frequency, activity=0.3
        ) + self.compute_model.gfx_power(gfx_state.frequency, activity=0.3)
        return ComputePlan(cpu_state=cpu_state, gfx_state=gfx_state, projected_power=projected)

    def plan(
        self,
        compute_budget: float,
        activity: ActivityVector,
        graphics_centric: bool = False,
        fixed_performance: bool = False,
    ) -> ComputePlan:
        """Dispatch to the appropriate planning strategy.

        Memoized by the arguments, reduced to the activity fields the planners
        read: a plan depends on nothing else, and the engine asks for the same
        few budgets and phase activities constantly (phases that differ only in
        bandwidth or IO activity share a plan).  An invalid budget raises every
        time.
        """
        key = (
            compute_budget,
            activity.cpu_activity,
            activity.gfx_activity,
            activity.active_cores,
            graphics_centric,
            fixed_performance,
        )
        plan = self._plan_memo.get(key)
        if plan is None:
            if fixed_performance:
                plan = self.plan_fixed_performance()
            elif graphics_centric:
                plan = self.plan_graphics_centric(compute_budget, activity)
            else:
                plan = self.plan_cpu_centric(compute_budget, activity)
            self._plan_memo[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Request demotion (Sec. 4.4)
    # ------------------------------------------------------------------
    def demote_request(
        self,
        requested: PState,
        table: PStateTable,
        power_of_state,
        budget: float,
    ) -> Tuple[PState, bool]:
        """Grant ``requested`` if it fits ``budget``, else demote to the highest fit.

        Returns the granted state and whether a demotion happened.  This mirrors
        Sec. 4.4: "If the request violates the power budget, then PBM demotes the
        request and places the requestor in a safe lower frequency".
        """
        self._check_budget(budget)
        if power_of_state(requested) <= budget + 1e-12:
            return requested, False
        granted = max_pstate_within_budget(table, power_of_state, budget)
        if granted.frequency > requested.frequency:
            granted = requested
        return granted, True

    @staticmethod
    def _check_budget(budget: float) -> None:
        if budget < 0:
            raise ValueError("power budget must be non-negative")
