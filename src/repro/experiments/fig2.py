"""Fig. 2: motivation study -- static MD-DVFS on the three SPEC workloads.

(a) impact of the static MD-DVFS setup on average power, energy, performance and
    EDP, plus the effect of handing the saved power back to the CPU (the 1.2 ->
    1.3 GHz experiment);
(b) bottleneck decomposition of the three workloads;
(c) their memory-bandwidth demand.
"""

from __future__ import annotations

from typing import Dict, List

from repro import config
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext
from repro.perf.bottleneck import analyze_bottlenecks
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.workloads.spec2006 import MOTIVATION_BENCHMARKS, spec_workload

TITLE = "Fig. 2: MD-DVFS motivation (power vs. performance impact)"


@experiment("fig2", title=TITLE)
def _fig2(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """Static MD-DVFS impact, bottlenecks, and bandwidth of the motivation trio.

    Each workload runs under the fixed baseline, static MD-DVFS, and MD-DVFS
    with the saved power handed back to the CPU (the 1.2 -> 1.3 GHz
    experiment), as jobs through the context's runtime.
    """
    results = context.simulate_policy_matrix(
        [
            TraceSpec.make("spec", name=name, duration=context.workload_duration)
            for name in MOTIVATION_BENCHMARKS
        ],
        (
            PolicySpec.make("baseline"),
            PolicySpec.make("md_dvfs"),
            PolicySpec.make("md_dvfs", redistribute_to_compute=True),
        ),
    )

    impact_rows: List[Dict[str, object]] = []
    bottleneck_rows: List[Dict[str, object]] = []
    bandwidth_rows: List[Dict[str, object]] = []

    for name, (baseline, md_dvfs, boosted) in zip(MOTIVATION_BENCHMARKS, results):
        trace = spec_workload(name, duration=context.workload_duration)
        impact_rows.append(
            {
                "workload": name,
                "power_reduction": md_dvfs.power_reduction_vs(baseline),
                "energy_reduction": md_dvfs.energy_reduction_vs(baseline),
                "performance_change": md_dvfs.performance_improvement_over(baseline),
                "edp_improvement": md_dvfs.edp_improvement_over(baseline),
                "performance_with_redistribution": boosted.performance_improvement_over(
                    baseline
                ),
            }
        )
        breakdown = analyze_bottlenecks(trace)
        bottleneck_rows.append(breakdown.as_dict())
        bandwidth_rows.append(
            {
                "workload": name,
                "average_bandwidth_gbps": trace.average_bandwidth_demand / config.GBPS,
                "peak_bandwidth_gbps": trace.peak_bandwidth_demand / config.GBPS,
            }
        )

    return ExperimentReport(
        experiment="fig2",
        title=TITLE,
        params={
            "tdp": context.platform.tdp,
            "duration": context.workload_duration,
        },
        blocks=(
            Table.from_records(
                "impact",
                impact_rows,
                units={
                    "power_reduction": "fraction",
                    "energy_reduction": "fraction",
                    "performance_change": "fraction",
                    "edp_improvement": "fraction",
                    "performance_with_redistribution": "fraction",
                },
            ),
            Table.from_records(
                "bottlenecks",
                bottleneck_rows,
                units={
                    "memory_latency_bound": "fraction",
                    "memory_bandwidth_bound": "fraction",
                    "non_memory_bound": "fraction",
                },
            ),
            Table.from_records(
                "bandwidth_demand",
                bandwidth_rows,
                units={
                    "average_bandwidth_gbps": "GB/s",
                    "peak_bandwidth_gbps": "GB/s",
                },
            ),
        ),
    )
