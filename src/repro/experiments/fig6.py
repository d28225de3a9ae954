"""Fig. 6: actual vs. predicted performance impact of reducing the DRAM frequency.

The paper evaluates its demand predictor on more than 1600 workloads spanning
three classes (single-threaded CPU, multi-threaded CPU, graphics) and three DRAM
frequency pairs (1.6->0.8 GHz, 1.6->1.06 GHz, 2.13->1.06 GHz), reporting the
correlation between the actual and predicted performance impact (0.84-0.96) and
the prediction accuracy (94.2-98.8 %, with no false positives).

The reproduction evaluates the calibrated predictor on a disjoint synthetic
evaluation corpus: for every workload it records the *actual* normalised
performance at the lower frequency (from the performance model) and the
*predicted* performance (the degradation bound if the predictor says "low is
safe", the measured high-point performance otherwise -- i.e. the step-function
prediction the thresholds encode), then reports the per-panel correlation,
accuracy, and false-positive counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.core.demand import DemandPredictor, evaluate_prediction_quality
from repro.core.operating_points import OperatingPoint, OperatingPointTable
from repro.core.thresholds import CounterThresholds, ThresholdCalibrator
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext
from repro.numeric import ordered_sum
from repro.runtime.jobs import DegradationMeasurement, PointSpec, TraceSpec
from repro.workloads.trace import WorkloadClass

TITLE = "Fig. 6: demand-predictor accuracy over the synthetic corpus"

#: Corpus sizes for the predictor evaluation (550 workloads).
FULL_CORPUS: Dict[WorkloadClass, int] = {
    WorkloadClass.CPU_SINGLE_THREAD: 300,
    WorkloadClass.CPU_MULTI_THREAD: 140,
    WorkloadClass.GRAPHICS: 110,
}

#: ``--quick`` corpus sizes for the predictor evaluation.
QUICK_CORPUS: Dict[WorkloadClass, int] = {
    WorkloadClass.CPU_SINGLE_THREAD: 60,
    WorkloadClass.CPU_MULTI_THREAD: 30,
    WorkloadClass.GRAPHICS: 20,
}

#: The three DRAM frequency pairs of Fig. 6 (high, low), in Hz.
FREQUENCY_PAIRS: Tuple[Tuple[float, float], ...] = (
    (config.ghz(1.6), config.ghz(0.8)),
    (config.ghz(1.6), config.ghz(1.06)),
    (config.ghz(2.13), config.ghz(1.06)),
)

#: The three workload classes of Fig. 6 (rows of the 3x3 grid).
WORKLOAD_CLASSES: Tuple[WorkloadClass, ...] = (
    WorkloadClass.CPU_SINGLE_THREAD,
    WorkloadClass.CPU_MULTI_THREAD,
    WorkloadClass.GRAPHICS,
)


def _operating_points_for_pair(high: float, low: float) -> OperatingPointTable:
    """Build a two-point table for an arbitrary high/low DRAM frequency pair."""
    return OperatingPointTable(
        points=[
            OperatingPoint(
                name=f"high_{high / config.GHZ:.2f}",
                dram_frequency=high,
                interconnect_frequency=config.IO_INTERCONNECT_HIGH_FREQUENCY,
                v_sa_scale=1.0,
                v_io_scale=1.0,
            ),
            OperatingPoint(
                name=f"low_{low / config.GHZ:.2f}",
                dram_frequency=low,
                interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
                v_sa_scale=config.V_SA_LOW_SCALE,
                v_io_scale=config.V_IO_LOW_SCALE,
            ),
        ]
    )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (0 when either side is constant)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _pair_point_specs(high: float, low: float) -> Tuple[PointSpec, PointSpec]:
    """The two :class:`PointSpec` values of one Fig. 6 frequency pair."""
    points = _operating_points_for_pair(high, low)
    return PointSpec.from_point(points.high), PointSpec.from_point(points.low)


def _evaluate_panel(
    measurements: Sequence[DegradationMeasurement],
    thresholds: CounterThresholds,
    high: float,
    low: float,
) -> Dict[str, object]:
    """Evaluate one of the nine panels (one class, one frequency pair)."""
    predictor = DemandPredictor(thresholds=thresholds)
    bound = thresholds.degradation_bound

    actual_perf: List[float] = []
    predicted_perf: List[float] = []
    predictions: List[bool] = []
    ground_truth: List[bool] = []
    for measurement in measurements:
        degradation = measurement.degradation
        actual = 1.0 / (1.0 + degradation)
        prediction = predictor.predict(measurement.counters)
        predicted = 1.0 / (1.0 + bound) if prediction.low_point_safe else 1.0 / (1.0 + degradation)
        actual_perf.append(actual)
        predicted_perf.append(predicted)
        predictions.append(prediction.low_point_safe)
        ground_truth.append(degradation <= bound)

    quality = evaluate_prediction_quality(predictions, ground_truth)
    return {
        "high_ghz": high / config.GHZ,
        "low_ghz": low / config.GHZ,
        "workloads": len(measurements),
        "correlation": _pearson(actual_perf, predicted_perf),
        "accuracy": quality.accuracy,
        "false_positives": quality.false_positives,
        "false_negatives": quality.false_negatives,
        "mean_actual_normalized_perf": float(np.mean(actual_perf)),
        "mean_degradation": float(np.mean([1.0 / p - 1.0 for p in actual_perf])),
    }


@experiment(
    "fig6",
    title=TITLE,
    flags=("--tdp",),
    quick="reduced evaluation corpus (110 instead of 550 workloads)",
)
def _fig6(
    context: ExperimentContext,
    quick: bool,
    *,
    workloads_per_class: Optional[Dict[WorkloadClass, int]] = None,
    seed: int = config.DEFAULT_SEED + 7,
) -> ExperimentReport:
    """Predictor correlation/accuracy across the nine (class x pair) panels.

    The per-workload measurements (slowdown at the low point plus high-point
    counters) are submitted as one batch of degradation jobs through the
    context's runtime, so the ~1600-point evaluation parallelizes and caches;
    the threshold calibration (once per frequency pair) and the per-panel
    prediction scoring stay local.

    The corpus a job references is addressed by the *sequence* of
    ``generate_class`` calls made on one generator (the generator's RNG
    advances per call), which the trace specs encode in their ``calls``
    parameter so workers replay the exact corpora built here.
    """
    if workloads_per_class is None:
        workloads_per_class = QUICK_CORPUS if quick else FULL_CORPUS

    calls = tuple(
        f"{workload_class.value}:{workloads_per_class[workload_class]}"
        for workload_class in WORKLOAD_CLASSES
    )
    jobs = []
    for call_index, workload_class in enumerate(WORKLOAD_CLASSES):
        count = workloads_per_class[workload_class]
        for high, low in FREQUENCY_PAIRS:
            high_spec, low_spec = _pair_point_specs(high, low)
            for index in range(count):
                trace_spec = TraceSpec.make(
                    "corpus",
                    seed=seed,
                    duration=1.0,
                    calls=calls,
                    call=call_index,
                    index=index,
                )
                jobs.append(context.degradation_job(trace_spec, high_spec, low_spec))
    measurements = context.runtime.measure(jobs)

    # Thresholds depend on the platform and the pair, not the class: one
    # calibration per pair serves its three panels.
    pair_thresholds = {
        (high, low): ThresholdCalibrator(
            platform=context.platform,
            operating_points=_operating_points_for_pair(high, low),
        ).calibrate_boundary()
        for high, low in FREQUENCY_PAIRS
    }
    panels: List[Dict[str, object]] = []
    total_workloads = 0
    cursor = 0
    for workload_class in WORKLOAD_CLASSES:
        count = workloads_per_class[workload_class]
        for high, low in FREQUENCY_PAIRS:
            panel_measurements = measurements[cursor : cursor + count]
            cursor += count
            panel = _evaluate_panel(
                panel_measurements, pair_thresholds[high, low], high, low
            )
            panel["workload_class"] = workload_class.value
            panels.append(panel)
            total_workloads += count

    accuracies = [panel["accuracy"] for panel in panels]
    return ExperimentReport(
        experiment="fig6",
        title=TITLE,
        params={
            "seed": seed,
            "workloads_per_class": {
                workload_class.value: count
                for workload_class, count in workloads_per_class.items()
            },
        },
        blocks=(
            Table.from_records(
                "panels",
                panels,
                units={"high_ghz": "GHz", "low_ghz": "GHz", "accuracy": "fraction"},
            ),
            Metric("total_evaluation_points", total_workloads),
            Metric("minimum_accuracy", min(accuracies), "fraction"),
            Metric("mean_accuracy", ordered_sum(accuracies) / len(accuracies), "fraction"),
            Metric(
                "total_false_positives",
                sum(panel["false_positives"] for panel in panels),
            ),
        ),
    )
