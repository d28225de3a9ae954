"""Sec. 7.4 sensitivity studies: DRAM device type and additional operating points.

Two questions from the paper's sensitivity discussion are reproduced:

* how much less power is freed when scaling DDR4 from 1.86 to 1.33 GHz than when
  scaling LPDDR3 from 1.6 to 1.06 GHz (the paper reports roughly 7 % less);
* whether adding the 0.8 GHz LPDDR3 bin as a third operating point is worthwhile
  (the paper decides against it: V_SA is already at Vmin at 1.06 GHz and the
  performance degradation at 0.8 GHz is 2-3x larger).
"""

from __future__ import annotations

from typing import Optional

from repro import config
from repro.core.operating_points import (
    build_ddr4_operating_points,
    build_default_operating_points,
)
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.jobs import PointSpec, TraceSpec, platform_for
from repro.workloads.trace import WorkloadClass

TITLE = "Sec. 7.4: DRAM device and operating-point sensitivity"


@experiment(
    "sensitivity",
    title=TITLE,
    flags=("--tdp",),
    quick="20-workload corpus instead of 80",
)
def _sensitivity(
    context: ExperimentContext,
    quick: bool,
    *,
    corpus_size: Optional[int] = None,
    seed: int = config.DEFAULT_SEED + 11,
) -> ExperimentReport:
    """DRAM-device power savings and the 0.8 GHz third-operating-point question."""
    if corpus_size is None:
        corpus_size = 20 if quick else 80

    # --- LPDDR3 1.6 -> 1.06 GHz: the power freed by the default low point -------
    lpddr3_platform = context.platform
    lpddr3_points = context.operating_points
    lpddr3_savings = (
        lpddr3_platform.worst_case_io_memory_power()
        - lpddr3_points.low.provisioned_io_memory_power(lpddr3_platform)
    )

    # --- DDR4 1.86 -> 1.33 GHz ---------------------------------------------------
    # The DDR4 platform is a declarative delta over this context's hardware
    # description, materialized through the same worker-local memo the runtime
    # jobs use -- no imperative build_platform(...) bypass.
    ddr4_platform = platform_for(context.hardware.derive(dram="ddr4"))
    ddr4_points = build_ddr4_operating_points()
    ddr4_savings = ddr4_platform.worst_case_io_memory_power(
        dram_frequency=ddr4_points.high.dram_frequency
    ) - ddr4_points.low.provisioned_io_memory_power(ddr4_platform)

    savings_deficit = 1.0 - ddr4_savings / lpddr3_savings if lpddr3_savings > 0 else 0.0

    # --- Adding the 0.8 GHz bin as a third operating point ----------------------
    three_points = build_default_operating_points(include_lowest_bin=True)
    extra_savings = (
        three_points.points[1].provisioned_io_memory_power(lpddr3_platform)
        - three_points.low.provisioned_io_memory_power(lpddr3_platform)
    )

    # Per-workload degradations are measured through the runtime: one
    # degradation job per (workload, frequency pair), deduplicated and cached
    # like any other sweep.  The trace specs encode the single
    # ``generate_class`` call that builds the corpus so workers replay it.
    calls = (f"{WorkloadClass.CPU_SINGLE_THREAD.value}:{corpus_size}",)
    pair_106 = (
        PointSpec.from_point(lpddr3_points.high),
        PointSpec.from_point(lpddr3_points.low),
    )
    pair_08 = (
        PointSpec.from_point(three_points.high),
        PointSpec.from_point(three_points.low),
    )
    jobs = []
    for index in range(corpus_size):
        trace_spec = TraceSpec.make(
            "corpus", seed=seed, duration=1.0, calls=calls, call=0, index=index
        )
        jobs.append(context.degradation_job(trace_spec, *pair_106))
        jobs.append(context.degradation_job(trace_spec, *pair_08))
    measurements = context.runtime.measure(jobs)
    degradation_106 = [m.degradation for m in measurements[0::2]]
    degradation_08 = [m.degradation for m in measurements[1::2]]
    mean_106 = mean(degradation_106)
    mean_08 = mean(degradation_08)

    return ExperimentReport(
        experiment="sensitivity",
        title=TITLE,
        params={"corpus_size": corpus_size, "seed": seed},
        blocks=(
            Metric("lpddr3_power_savings_w", lpddr3_savings, "W"),
            Metric("ddr4_power_savings_w", ddr4_savings, "W"),
            Metric("ddr4_savings_deficit", savings_deficit, "fraction"),
            Metric("extra_savings_from_0p8_bin_w", extra_savings, "W"),
            Metric("mean_degradation_1p06", mean_106, "fraction"),
            Metric("mean_degradation_0p8", mean_08, "fraction"),
            Metric(
                "degradation_ratio_0p8_vs_1p06",
                (mean_08 / mean_106) if mean_106 > 0 else 0.0,
            ),
        ),
    )
