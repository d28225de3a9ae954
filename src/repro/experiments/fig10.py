"""Fig. 10: SysScale performance benefit vs. SoC thermal design power (TDP)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.campaign import QUICK_SPEC_SUBSET
from repro.runtime.jobs import PolicySpec, SimulationJob, TraceSpec
from repro.workloads.spec2006 import spec_cpu2006_suite

#: TDP points of Fig. 10 (watts).
DEFAULT_TDP_POINTS: Tuple[float, ...] = (3.5, 4.5, 7.0, 15.0)

TITLE = "Fig. 10: SysScale benefit vs. SoC TDP"


@experiment(
    "fig10",
    title=TITLE,
    flags=("--duration",),
    quick="12-benchmark representative SPEC subset",
)
def _fig10(
    context: ExperimentContext,
    quick: bool,
    *,
    subset: Optional[Tuple[str, ...]] = None,
    tdp_points: Sequence[float] = DEFAULT_TDP_POINTS,
) -> ExperimentReport:
    """Distribution of SPEC improvements at each TDP point (sweeps its own TDPs).

    Each TDP point is the context's hardware re-derived at that TDP, so
    ``--platform``/``--set`` reach every point.  Every (TDP, benchmark,
    policy) combination is one job: workers rebuild the platform (and hence
    the PBM and threshold calibration) per TDP, because every quantity derived
    from the power budget changes with it.  Submitting the whole grid at once
    lets a parallel runtime spread the heaviest figure of the evaluation
    across all cores.
    """
    if quick and subset is None:
        subset = QUICK_SPEC_SUBSET
    traces = spec_cpu2006_suite(duration=context.workload_duration, subset=subset)
    trace_specs = [
        TraceSpec.make("spec", name=trace.name, duration=context.workload_duration)
        for trace in traces
    ]
    platforms = [context.hardware.derive(tdp=tdp) for tdp in tdp_points]
    policies = (PolicySpec.make("baseline"), PolicySpec.make("sysscale"))
    jobs = [
        SimulationJob(trace=trace_spec, policy=policy, platform=platform, sim=context.sim)
        for platform in platforms
        for trace_spec in trace_specs
        for policy in policies
    ]
    results = context.runtime.simulate(jobs)

    rows: List[Dict[str, object]] = []
    cursor = 0
    for tdp in tdp_points:
        improvements: List[float] = []
        for _ in traces:
            baseline = results[cursor]
            sysscale = results[cursor + 1]
            cursor += 2
            improvements.append(sysscale.performance_improvement_over(baseline))
        ordered = sorted(improvements)
        rows.append(
            {
                "tdp_w": tdp,
                "average": mean(improvements),
                "median": ordered[len(ordered) // 2],
                "max": max(improvements),
                "min": min(improvements),
                "improvements": improvements,
            }
        )

    return ExperimentReport(
        experiment="fig10",
        title=TITLE,
        params={
            "tdp_points": tdp_points,
            "subset": subset,
            "duration": context.workload_duration,
        },
        blocks=(
            Table.from_records(
                "rows",
                rows,
                units={
                    "tdp_w": "W",
                    "average": "fraction",
                    "median": "fraction",
                    "max": "fraction",
                    "min": "fraction",
                    "improvements": "fraction",
                },
            ),
        ),
    )
