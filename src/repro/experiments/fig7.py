"""Fig. 7: SPEC CPU2006 performance improvement of MemScale-R, CoScale-R, SysScale."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.coscale import CoScaleRedistProjection
from repro.baselines.memscale import MemScaleRedistProjection
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.campaign import QUICK_SPEC_SUBSET
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.workloads.spec2006 import spec_cpu2006_suite

TITLE = "Fig. 7: SPEC CPU2006 performance improvement"


@experiment(
    "fig7",
    title=TITLE,
    quick="12-benchmark representative SPEC subset",
)
def _fig7(
    context: ExperimentContext,
    quick: bool,
    *,
    subset: Optional[Tuple[str, ...]] = None,
) -> ExperimentReport:
    """Per-benchmark and average SPEC improvements for the three techniques.

    SysScale and the baseline are simulated (through the context's runtime, so
    the per-benchmark pairs parallelize and cache); MemScale-Redist and
    CoScale-Redist are projected with the Sec. 6 methodology, exactly as in the
    paper.  ``subset`` names the SPEC workloads (default: the whole suite, or
    the representative subset in quick mode).
    """
    if quick and subset is None:
        subset = QUICK_SPEC_SUBSET
    memscale = MemScaleRedistProjection(platform=context.platform)
    coscale = CoScaleRedistProjection(platform=context.platform)

    traces = spec_cpu2006_suite(duration=context.workload_duration, subset=subset)
    pairs = context.simulate_policy_matrix(
        [
            TraceSpec.make("spec", name=trace.name, duration=context.workload_duration)
            for trace in traces
        ],
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
                "sysscale_low_residency": sysscale.low_point_residency,
                "cpu_scalability": trace.cpu_frequency_scalability,
            }
        )

    techniques = ("memscale_redist", "coscale_redist", "sysscale")
    return ExperimentReport(
        experiment="fig7",
        title=TITLE,
        params={
            "subset": subset,
            "duration": context.workload_duration,
            "tdp": context.platform.tdp,
        },
        blocks=(
            Table.from_records(
                "rows",
                rows,
                units={technique: "fraction" for technique in techniques},
            ),
            *Metric.group(
                "average",
                {t: mean(row[t] for row in rows) for t in techniques},
                unit="fraction",
            ),
            *Metric.group(
                "max",
                {t: max(row[t] for row in rows) for t in techniques},
                unit="fraction",
            ),
        ),
    )
