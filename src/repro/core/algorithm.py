"""Holistic power-management algorithm (Sec. 4.3).

The PMU executes this algorithm once per evaluation interval (30 ms by default),
using counter values averaged over the interval.  The algorithm decides between
adjacent operating points: if any of the five demand conditions is satisfied the
SoC moves to (or stays at) the higher-performance point; otherwise it moves to the
lower-performance point.  When the SoC sits at a reduced point, the power budgets
of the IO and memory domains are reduced and the compute domain's budget is
increased by the difference, which the compute-domain PBM converts into higher
CPU-core or graphics frequencies (Sec. 4.3-4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import config
from repro.core.demand import DemandPredictor, DemandPrediction
from repro.core.operating_points import OperatingPoint, OperatingPointTable
from repro.perf.counters import CounterSample
from repro.sim.platform import Platform
from repro.sim.policy import StaticDemandInfo


@dataclass(frozen=True)
class AlgorithmDecision:
    """One decision of the holistic algorithm."""

    operating_point: OperatingPoint
    prediction: DemandPrediction
    changed: bool
    io_memory_budget: float
    compute_budget: float

    def as_dict(self) -> dict:
        """Flat summary for logging and result tables."""
        return {
            "operating_point": self.operating_point.name,
            "changed": self.changed,
            "io_memory_budget_w": self.io_memory_budget,
            "compute_budget_w": self.compute_budget,
            **self.prediction.as_dict(),
        }


@dataclass
class HolisticPowerAlgorithm:
    """The per-interval decision procedure of Sec. 4.3.

    Parameters
    ----------
    platform:
        The platform whose PBM and power models the algorithm uses to convert an
        operating point into domain budgets.
    operating_points:
        The table of IO/memory operating points (two on the real system).
    predictor:
        The demand predictor; in the general multi-point case each adjacent pair
        would carry its own thresholds -- the two-point implementation uses one
        predictor, matching the paper's real-system configuration.
    evaluation_interval:
        How often the PMU runs the algorithm (30 ms default).
    """

    platform: Platform
    operating_points: OperatingPointTable
    predictor: DemandPredictor
    evaluation_interval: float = config.EVALUATION_INTERVAL
    _current: Optional[OperatingPoint] = field(default=None, init=False)
    _decisions: List[AlgorithmDecision] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation interval must be positive")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> OperatingPoint:
        """Start a new run at the high-performance point (the boot default)."""
        self._current = self.operating_points.high
        self._decisions = []
        return self._current

    @property
    def decisions(self) -> List[AlgorithmDecision]:
        """The decisions actually evaluated so far in this run.

        The engine skips the evaluations of a steady window (see
        :attr:`~repro.sim.policy.Policy.decides_from_counters`), so this is
        not one entry per evaluation interval; the result's
        ``evaluation_count`` is.
        """
        return list(self._decisions)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        counters: CounterSample,
        static_info: Optional[StaticDemandInfo] = None,
    ) -> AlgorithmDecision:
        """Run one evaluation: move towards high or low based on the five conditions."""
        if self._current is None:
            self.reset()
        prediction = self.predictor.predict(counters, static_info)

        if prediction.requires_high_point:
            target = self.operating_points.next_higher(self._current)
        else:
            target = self.operating_points.next_lower(self._current)

        changed = target is not self._current
        self._current = target

        io_memory_budget = target.provisioned_io_memory_power(self.platform)
        budgets = self.platform.pbm.budgets(io_memory_budget)
        decision = AlgorithmDecision(
            operating_point=target,
            prediction=prediction,
            changed=changed,
            io_memory_budget=io_memory_budget,
            compute_budget=budgets.compute,
        )
        self._decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def transition_count(self) -> int:
        """Number of decisions that changed the operating point."""
        return sum(1 for decision in self._decisions if decision.changed)
