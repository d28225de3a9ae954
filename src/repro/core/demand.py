"""Demand prediction mechanism (Sec. 4.2).

SysScale predicts the bandwidth/latency demands of the three SoC domains from two
sources:

* **Static demand** depends only on the system configuration (number of active
  display panels, their resolution and refresh rate, active cameras), which the
  PMU reads from peripheral control and status registers.  The firmware keeps a
  table mapping every peripheral configuration to its bandwidth/latency demand,
  which is deterministic for a given configuration.
* **Dynamic demand** depends on workload phase behaviour and is predicted from the
  four dedicated performance counters, each compared against its calibrated
  threshold (``repro.core.thresholds``).

The predictor's output is a :class:`DemandPrediction`: whether the workload can
run at a lower operating point without exceeding the degradation bound, and which
conditions (if any) require the high point.  The paper reports prediction
accuracies of 97.7 % / 94.2 % / 98.8 % for single-thread CPU, multi-thread CPU and
graphics workloads with *no false positives* (no case where the predictor says
"safe to go low" but the actual degradation exceeds the bound); the mu + sigma
threshold margin is what provides that one-sidedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import config
from repro.core.thresholds import CounterThresholds
from repro.perf.counters import CounterName, CounterSample
from repro.sim.policy import StaticDemandInfo


@dataclass(frozen=True)
class StaticDemandEstimate:
    """Static demand derived from the peripheral configuration."""

    bandwidth_demand: float
    latency_sensitive: bool

    def __post_init__(self) -> None:
        if self.bandwidth_demand < 0:
            raise ValueError("bandwidth demand must be non-negative")


class StaticDemandEstimator:
    """The firmware table mapping peripheral configurations to demand (Sec. 4.2)."""

    def estimate(self, static_info: StaticDemandInfo) -> StaticDemandEstimate:
        """Estimate static bandwidth demand and latency sensitivity.

        The estimate is exact because the demand of a given peripheral
        configuration "is known and is deterministic" (Sec. 4.2).
        """
        return StaticDemandEstimate(
            bandwidth_demand=static_info.bandwidth_demand,
            latency_sensitive=static_info.latency_sensitive,
        )


@dataclass(frozen=True)
class DemandPrediction:
    """The outcome of one demand-prediction evaluation."""

    low_point_safe: bool
    triggered_conditions: Dict[str, bool]
    static_bandwidth_demand: float
    counter_values: Dict[str, float]

    @property
    def requires_high_point(self) -> bool:
        """True when any of the five conditions of Sec. 4.3 is satisfied."""
        return not self.low_point_safe

    def as_dict(self) -> dict:
        """Flat summary for logging and result tables."""
        return {
            "low_point_safe": self.low_point_safe,
            **{f"condition_{name}": value for name, value in self.triggered_conditions.items()},
            "static_bandwidth_gbps": self.static_bandwidth_demand / config.GBPS,
        }


@dataclass
class DemandPredictor:
    """Combines static and dynamic demand estimation into one prediction.

    The five conditions mirror Sec. 4.3 exactly:

    1. aggregated static demand exceeds ``STATIC_BW_THR``;
    2. the graphics engines are bandwidth limited (``GFX_LLC_MISSES`` > GFX_THR);
    3. the CPU cores are bandwidth limited (``LLC_Occupancy_Tracer`` > Core_THR);
    4. memory latency is a bottleneck (``LLC_STALLS`` > LAT_THR);
    5. IO latency is a bottleneck (``IO_RPQ`` > IO_THR).
    """

    thresholds: CounterThresholds
    static_estimator: StaticDemandEstimator = field(default_factory=StaticDemandEstimator)
    prediction_count: int = field(default=0, init=False)
    low_predictions: int = field(default=0, init=False)

    def predict(
        self,
        counters: CounterSample,
        static_info: Optional[StaticDemandInfo] = None,
    ) -> DemandPrediction:
        """Predict whether the low operating point is safe for the next interval."""
        static_estimate = self.static_estimator.estimate(
            static_info if static_info is not None else StaticDemandInfo()
        )
        conditions = {
            "static_bandwidth": static_estimate.bandwidth_demand
            > self.thresholds.static_bandwidth_threshold,
            "gfx_bandwidth_limited": counters[CounterName.GFX_LLC_MISSES]
            > self.thresholds[CounterName.GFX_LLC_MISSES],
            "cpu_bandwidth_limited": counters[CounterName.LLC_OCCUPANCY_TRACER]
            > self.thresholds[CounterName.LLC_OCCUPANCY_TRACER],
            "memory_latency_bound": counters[CounterName.LLC_STALLS]
            > self.thresholds[CounterName.LLC_STALLS],
            "io_latency_bound": counters[CounterName.IO_RPQ]
            > self.thresholds[CounterName.IO_RPQ],
        }
        low_point_safe = not any(conditions.values())
        self.prediction_count += 1
        if low_point_safe:
            self.low_predictions += 1
        return DemandPrediction(
            low_point_safe=low_point_safe,
            triggered_conditions=conditions,
            static_bandwidth_demand=static_estimate.bandwidth_demand,
            counter_values={str(name): counters[name] for name in CounterName},
        )

    @property
    def low_prediction_fraction(self) -> float:
        """Fraction of evaluations that predicted the low point to be safe."""
        if self.prediction_count == 0:
            return 0.0
        return self.low_predictions / self.prediction_count


@dataclass(frozen=True)
class PredictionQuality:
    """Accuracy statistics of the predictor against ground truth (Fig. 6)."""

    total: int
    correct: int
    false_positives: int
    false_negatives: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("total must be positive")
        if self.correct + self.false_positives + self.false_negatives > self.total:
            raise ValueError("inconsistent prediction-quality counts")

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that match the ground truth."""
        return self.correct / self.total


def evaluate_prediction_quality(
    predictions: List[bool],
    ground_truth_safe: List[bool],
) -> PredictionQuality:
    """Score a list of 'low point safe' predictions against ground truth."""
    if len(predictions) != len(ground_truth_safe):
        raise ValueError("predictions and ground truth must have the same length")
    if not predictions:
        raise ValueError("at least one prediction is required")
    correct = sum(1 for p, t in zip(predictions, ground_truth_safe) if p == t)
    false_positives = sum(
        1 for p, t in zip(predictions, ground_truth_safe) if p and not t
    )
    false_negatives = sum(
        1 for p, t in zip(predictions, ground_truth_safe) if not p and t
    )
    return PredictionQuality(
        total=len(predictions),
        correct=correct,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )
