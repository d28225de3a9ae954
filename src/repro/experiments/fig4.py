"""Fig. 4: impact of unoptimized MRC values on a peak-bandwidth microbenchmark."""

from __future__ import annotations

from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric
from repro.experiments.runner import ExperimentContext
from repro.runtime.jobs import PolicySpec, SimSpec, SimulationJob, TraceSpec

TITLE = "Fig. 4: impact of unoptimized MRC register values"


@experiment("fig4", title=TITLE, flags=("--tdp",))
def _fig4(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """Performance and power penalty of stale MRC registers at the low point.

    Both runs use the reduced (MD-DVFS) memory operating point; the only
    difference is whether the MC/DDRIO/DRAM configuration registers were
    re-trained for the new frequency (SysScale behaviour) or left at the values
    trained for the boot frequency (prior-work behaviour).  The jobs record
    bandwidth samples, so the achieved throughput of the microbenchmark is
    reported alongside the penalties.  They run with the engine's default
    limits, not the context's, so ``--max-time`` does not cut the
    microbenchmark short.
    """
    optimized, unoptimized = context.runtime.simulate(
        [
            SimulationJob(
                trace=TraceSpec.make("microbenchmark"),
                policy=PolicySpec.make("md_dvfs", mrc_optimized=mrc_optimized),
                platform=context.hardware,
                sim=SimSpec(record_bandwidth_samples=True),
            )
            for mrc_optimized in (True, False)
        ]
    )

    performance_degradation = (
        unoptimized.execution_time / optimized.execution_time - 1.0
    )
    memory_power_optimized = (
        optimized.energy.memory + optimized.energy.io
    ) / optimized.execution_time
    memory_power_unoptimized = (
        unoptimized.energy.memory + unoptimized.energy.io
    ) / unoptimized.execution_time
    memory_power_increase = memory_power_unoptimized / memory_power_optimized - 1.0
    soc_power_increase = unoptimized.average_power / optimized.average_power - 1.0

    return ExperimentReport(
        experiment="fig4",
        title=TITLE,
        params={"tdp": context.platform.tdp},
        blocks=(
            Metric("performance_degradation", performance_degradation, "fraction"),
            Metric("memory_power_increase", memory_power_increase, "fraction"),
            Metric("soc_power_increase", soc_power_increase, "fraction"),
            Metric(
                "optimized_bandwidth_gbps",
                optimized.average_achieved_bandwidth / 1e9,
                "GB/s",
            ),
            Metric(
                "unoptimized_bandwidth_gbps",
                unoptimized.average_achieved_bandwidth / 1e9,
                "GB/s",
            ),
        ),
    )
