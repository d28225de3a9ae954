"""The SysScale controller: demand prediction + holistic algorithm + DVFS flow.

``SysScaleController`` is the :class:`repro.sim.policy.Policy` the simulation
engine runs to evaluate SysScale.  At every evaluation interval (30 ms) it feeds
the averaged performance counters and the static peripheral configuration to the
holistic power-management algorithm; when the algorithm changes the operating
point, the controller executes the Fig. 5 transition flow to obtain the actual
transition latency and to reload the MRC registers, and reports the selected
point's provisioned IO+memory power so the PBM can hand the difference to the
compute domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import config
from repro.core.algorithm import HolisticPowerAlgorithm
from repro.core.demand import DemandPredictor
from repro.core.flow import TransitionFlow
from repro.core.operating_points import (
    OperatingPoint,
    OperatingPointTable,
    build_default_operating_points,
)
from repro.core.thresholds import CounterThresholds, ThresholdCalibrator
from repro.sim.platform import Platform
from repro.sim.policy import Policy, PolicyAction, PolicyObservation
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.trace import WorkloadTrace


def default_thresholds(
    platform: Platform,
    operating_points: Optional[OperatingPointTable] = None,
    method: str = "boundary",
    training_workloads: int = 120,
    seed: int = config.DEFAULT_SEED,
) -> CounterThresholds:
    """Calibrate the counter thresholds offline (Sec. 4.2).

    Two calibration procedures are provided:

    * ``"boundary"`` (default) probes each counter's degradation boundary directly
      against the platform model -- the outcome of the paper's empirical tuning
      loop;
    * ``"corpus"`` runs a synthetic training corpus through the mu + sigma
      procedure the paper describes (with boundary refinement), which is slower
      but exercises the full offline pipeline.
    """
    if operating_points is None:
        operating_points = build_default_operating_points(platform)
    calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
    if method == "boundary":
        return calibrator.calibrate_boundary()
    if method == "corpus":
        generator = CorpusGenerator(seed=seed)
        corpus = generator.generate(
            single_thread=max(20, training_workloads // 2),
            multi_thread=max(10, training_workloads // 4),
            graphics=max(10, training_workloads // 4),
        )
        calibrator.add_corpus(corpus)
        return calibrator.calibrate()
    raise ValueError(f"unknown calibration method {method!r}; use 'boundary' or 'corpus'")


@dataclass
class SysScaleController(Policy):
    """SysScale as a simulation policy.

    Parameters
    ----------
    platform:
        The evaluation platform.
    operating_points:
        Table of IO/memory operating points (two by default, as on the real chip).
    thresholds:
        Calibrated counter thresholds; calibrated on the fly when omitted.
    use_flow_latency:
        When True, each transition's latency is taken from the executed Fig. 5
        flow; when False, the nominal 10 us budget is charged (useful for
        ablations of the flow-latency model).
    """

    platform: Platform
    operating_points: Optional[OperatingPointTable] = None
    thresholds: Optional[CounterThresholds] = None
    use_flow_latency: bool = True
    name: str = "SysScale"

    algorithm: HolisticPowerAlgorithm = field(init=False)
    flow: TransitionFlow = field(init=False)
    _current_point: OperatingPoint = field(init=False)

    def __post_init__(self) -> None:
        if self.operating_points is None:
            self.operating_points = build_default_operating_points(self.platform)
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
        return self._action_for(self._current_point)

    def decide(self, observation: PolicyObservation) -> PolicyAction:
        """Run the holistic algorithm on the interval-averaged counters."""
        decision = self.algorithm.decide(observation.counters, observation.static_demand)
        target = decision.operating_point
        budget = decision.io_memory_budget
        if target is not self._current_point:
            latency = self._execute_transition(self._current_point, target)
            self._current_point = target
            return self._action_for(
                target, transition_latency=latency, io_memory_budget=budget
            )
        return self._action_for(target, io_memory_budget=budget)

    def notify_transition(self, previous: PolicyAction, new: PolicyAction) -> None:
        """The engine applied the transition; nothing further to do."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute_transition(
        self, source: OperatingPoint, target: OperatingPoint
    ) -> float:
        """Run the Fig. 5 flow (or charge the nominal budget) and return the latency."""
        if not self.use_flow_latency:
            return config.TRANSITION_TOTAL_LATENCY_BUDGET
        return self.flow.execute(source, target).total_latency

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def low_point_fraction(self) -> float:
        """Fraction of decisions that chose a reduced operating point."""
        return self.algorithm.low_point_fraction
