"""The SysScale controller: demand prediction + holistic algorithm + DVFS flow.

``SysScaleController`` is the :class:`repro.sim.policy.Policy` the simulation
engine runs to evaluate SysScale.  At every evaluation interval (30 ms) it feeds
the averaged performance counters and the static peripheral configuration to the
holistic power-management algorithm; when the algorithm changes the operating
point, the controller executes the Fig. 5 transition flow to obtain the actual
transition latency and to reload the MRC registers, and reports the selected
point's provisioned IO+memory power so the PBM can hand the difference to the
compute domain.

The controller declares :attr:`~repro.sim.policy.Policy.decides_from_counters`.
Its ``decide`` keeps that promise: the predictor reads only the counters and
the static demand; the algorithm leaves its current point only when the
prediction changes; the budget is a function of the point and the platform,
and only the Fig. 5 flow (run on a transition) changes the platform; and a
decision that keeps the point returns the one steady action built since the
last transition.  So the engine counts, without calling ``decide``, the
evaluations of each steady window; the algorithm's decision history holds
only the decisions that were actually evaluated.

The thresholds come from the offline calibration of Sec. 4.2, which
:func:`calibration_for` runs once per platform and point table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

from repro.core.algorithm import HolisticPowerAlgorithm
from repro.core.demand import DemandPredictor
from repro.core.flow import TransitionFlow
from repro.core.operating_points import (
    OperatingPoint,
    OperatingPointTable,
    build_ddr4_operating_points,
    operating_points_for,
)
from repro.core.thresholds import CounterThresholds, ThresholdCalibrator
from repro.sim.platform import Platform
from repro.sim.policy import Policy, PolicyAction, PolicyObservation
from repro.workloads.trace import WorkloadTrace


def default_thresholds(
    platform: Platform,
    operating_points: Optional[OperatingPointTable] = None,
) -> CounterThresholds:
    """Calibrate the counter thresholds offline (Sec. 4.2).

    Each counter's threshold comes from probing its degradation boundary
    against the platform model (:meth:`ThresholdCalibrator.calibrate_boundary`),
    the outcome of the paper's empirical tuning loop.  The table defaults to
    the one matched to the platform's DRAM.
    """
    if operating_points is None:
        operating_points = operating_points_for(platform)
    calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
    return calibrator.calibrate_boundary()


def calibration_for(
    platform: Platform, table: str = "default"
) -> Tuple[OperatingPointTable, CounterThresholds]:
    """The point table named ``table`` (``"default"``, matched to the
    platform's DRAM, or ``"ddr4"``) and its calibrated thresholds, memoized
    on the platform: the calibration reads no live platform state."""
    calibration = platform._calibration_memo.get(table)
    if calibration is None:
        if table == "default":
            points = operating_points_for(platform)
        elif table == "ddr4":
            points = build_ddr4_operating_points()
        else:
            raise KeyError(f"unknown operating-point table {table!r}")
        calibration = (points, default_thresholds(platform, points))
        platform._calibration_memo[table] = calibration
    return calibration


@dataclass
class SysScaleController(Policy):
    """SysScale as a simulation policy.

    Parameters
    ----------
    platform:
        The evaluation platform.
    operating_points:
        Table of IO/memory operating points (by default the two matched to
        the platform's DRAM, as on the real chip).
    thresholds:
        Calibrated counter thresholds; calibrated on the fly when omitted.

    Each transition's latency is taken from the executed Fig. 5 flow.
    """

    platform: Platform
    operating_points: Optional[OperatingPointTable] = None
    thresholds: Optional[CounterThresholds] = None
    name: str = "SysScale"
    decides_from_counters: ClassVar[bool] = True

    algorithm: HolisticPowerAlgorithm = field(init=False)
    flow: TransitionFlow = field(init=False)
    _current_point: OperatingPoint = field(init=False)
    #: The action last built for a decision that kept ``_current_point``.
    #: Its latency estimate reads the rails and the interconnect, which move
    #: only inside the Fig. 5 flow, so it stays valid until the next
    #: transition (or reset) drops it.
    _steady_action: Optional[PolicyAction] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.operating_points is None and self.thresholds is None:
            self.operating_points, self.thresholds = calibration_for(self.platform)
        if self.operating_points is None:
            self.operating_points = operating_points_for(self.platform)
        if self.thresholds is None:
            self.thresholds = default_thresholds(self.platform, self.operating_points)
        predictor = DemandPredictor(thresholds=self.thresholds)
        self.algorithm = HolisticPowerAlgorithm(
            platform=self.platform,
            operating_points=self.operating_points,
            predictor=predictor,
        )
        self.flow = TransitionFlow(
            rails=self.platform.soc.rails,
            interconnect=self.platform.soc.interconnect_fabric,
            dram=self.platform.dram,
            mrc_sram=self.platform.mrc_sram,
            mrc_registers=self.platform.mrc_registers,
        )
        self._current_point = self.operating_points.high

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    def reset(self, platform: Platform, trace: WorkloadTrace) -> PolicyAction:
        """Start a run at the high operating point (the boot default)."""
        del trace  # SysScale does not peek at the workload; it reacts to counters
        self.platform = platform
        # The algorithm's budgets become the actions' budgets (see decide), so
        # both must be charged on the platform being simulated.
        self.algorithm.platform = platform
        self._current_point = self.algorithm.reset()
        self._steady_action = None
        return self._action_for(self._current_point)

    def decide(self, observation: PolicyObservation) -> PolicyAction:
        """Run the holistic algorithm on the interval-averaged counters."""
        decision = self.algorithm.decide(observation.counters, observation.static_demand)
        target = decision.operating_point
        budget = decision.io_memory_budget
        if target is not self._current_point:
            latency = self.flow.execute(self._current_point, target).total_latency
            self._current_point = target
            self._steady_action = None
            return self._action_for(
                target, transition_latency=latency, io_memory_budget=budget
            )
        steady = self._steady_action
        if steady is None or steady.io_memory_budget != budget:
            steady = self._steady_action = self._action_for(
                target, io_memory_budget=budget
            )
        return steady

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _action_for(
        self,
        point: OperatingPoint,
        transition_latency: Optional[float] = None,
        io_memory_budget: Optional[float] = None,
    ) -> PolicyAction:
        if transition_latency is None:
            transition_latency = self.flow.estimate_latency(self._current_point, point)
        return point.to_action(
            self.platform,
            transition_latency=transition_latency,
            io_memory_budget=io_memory_budget,
        )
