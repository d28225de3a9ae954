"""Fig. 9: battery-life workload average-power reduction."""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.coscale import CoScaleRedistProjection
from repro.baselines.memscale import MemScaleRedistProjection
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.workloads.batterylife import battery_life_suite

TITLE = "Fig. 9: battery-life workload power reduction"


@experiment("fig9", title=TITLE, flags=("--tdp",))
def _fig9(
    context: ExperimentContext,
    quick: bool,
    *,
    peripheral_configuration: str = "single_hd",
) -> ExperimentReport:
    """Average-power reduction on the battery-life suite (single HD panel).

    ``peripheral_configuration`` names the display/ISP setup active in every
    run (a key of ``repro.workloads.io_devices.STANDARD_CONFIGURATIONS``).
    """
    memscale = MemScaleRedistProjection(platform=context.platform)
    coscale = CoScaleRedistProjection(platform=context.platform)

    traces = battery_life_suite()
    pairs = context.simulate_policy_matrix(
        [TraceSpec.make("battery_life", name=trace.name) for trace in traces],
        (PolicySpec.make("baseline"), PolicySpec.make("sysscale")),
        peripherals=peripheral_configuration,
    )

    rows: List[Dict[str, object]] = []
    for trace, (baseline, sysscale) in zip(traces, pairs):
        rows.append(
            {
                "workload": trace.name,
                "baseline_power_w": baseline.average_power,
                "memscale_redist": memscale.project(
                    trace, baseline_average_power=baseline.average_power
                ).power_reduction,
                "coscale_redist": coscale.project(
                    trace, baseline_average_power=baseline.average_power
                ).power_reduction,
                "sysscale": sysscale.power_reduction_vs(baseline),
                "sysscale_low_residency": sysscale.low_point_residency,
            }
        )

    techniques = ("memscale_redist", "coscale_redist", "sysscale")
    return ExperimentReport(
        experiment="fig9",
        title=TITLE,
        params={
            "peripheral_configuration": peripheral_configuration,
            "tdp": context.platform.tdp,
        },
        blocks=(
            Table.from_records(
                "rows",
                rows,
                units={
                    **{technique: "fraction" for technique in techniques},
                    "baseline_power_w": "W",
                },
            ),
            *Metric.group(
                "average",
                {t: mean(row[t] for row in rows) for t in techniques},
                unit="fraction",
            ),
        ),
    )
