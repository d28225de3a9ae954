"""Fig. 8: 3DMark performance improvement of MemScale-R, CoScale-R, SysScale."""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.coscale import CoScaleRedistProjection
from repro.baselines.memscale import MemScaleRedistProjection
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.workloads.graphics import graphics_suite

TITLE = "Fig. 8: 3DMark performance improvement"


@experiment("fig8", title=TITLE, flags=("--tdp",))
def _fig8(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """Per-benchmark improvements on the three 3DMark variants."""
    memscale = MemScaleRedistProjection(platform=context.platform)
    coscale = CoScaleRedistProjection(platform=context.platform)

    traces = graphics_suite()
    pairs = context.simulate_policy_matrix(
        [TraceSpec.make("graphics", name=trace.name) for trace in traces],
        (PolicySpec.make("baseline"), PolicySpec.make("sysscale")),
    )

    rows: List[Dict[str, object]] = []
    for trace, (baseline, sysscale) in zip(traces, pairs):
        rows.append(
            {
                "workload": trace.name,
                "memscale_redist": memscale.project(trace).performance_improvement,
                "coscale_redist": coscale.project(trace).performance_improvement,
                "sysscale": sysscale.performance_improvement_over(baseline),
                "baseline_gfx_mhz": baseline.average_gfx_frequency / 1e6,
                "sysscale_gfx_mhz": sysscale.average_gfx_frequency / 1e6,
            }
        )

    techniques = ("memscale_redist", "coscale_redist", "sysscale")
    return ExperimentReport(
        experiment="fig8",
        title=TITLE,
        params={"tdp": context.platform.tdp},
        blocks=(
            Table.from_records(
                "rows",
                rows,
                units={
                    **{technique: "fraction" for technique in techniques},
                    "baseline_gfx_mhz": "MHz",
                    "sysscale_gfx_mhz": "MHz",
                },
            ),
            *Metric.group(
                "average",
                {t: mean(row[t] for row in rows) for t in techniques},
                unit="fraction",
            ),
        ),
    )
