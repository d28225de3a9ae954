"""Scenario robustness: SysScale vs. baselines across the synthesized catalog.

The paper's evaluation (Figs. 7-9) shows SysScale winning on the workloads it
was designed around.  This experiment asks the harder question the ROADMAP's
north star implies: does the policy stay ahead on workloads *nobody hand-built*
-- bursty, ramping, idle-heavy, adversarially memory-thrashing, co-resident --
and does it ever lose?  Every scenario in the :data:`repro.scenarios.SCENARIOS`
catalog is simulated under the fixed baseline, SysScale, and the static MD-DVFS
baseline (Table 1), through the runtime, so the whole study parallelizes and
caches like any other figure.

Reported per scenario: energy reduction and performance impact of each managed
policy vs. the fixed baseline, plus SysScale's low-point residency (how often
the policy judged scaling safe).  The summary singles out worst cases: the
scenario where SysScale helps least, and the largest performance loss it ever
inflicts -- the numbers a skeptical reviewer would ask for first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.runtime.campaign import QUICK_SCENARIO_SUBSET
from repro.runtime.jobs import PolicySpec
from repro.scenarios.generators import GENERATORS
from repro.scenarios.registry import SCENARIOS, catalog_trace_specs

#: Managed policies compared against the fixed baseline.
MANAGED_POLICIES = ("sysscale", "md_dvfs")

TITLE = "Scenario robustness: SysScale vs. baselines across the synthesized catalog"


@experiment(
    "robustness",
    title=TITLE,
    flags=("--tdp",),
    quick="one representative scenario per generator family",
)
def _robustness(
    context: ExperimentContext,
    quick: bool,
    *,
    subset: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Per-scenario energy/performance deltas plus SysScale's worst cases.

    Sweeps the scenario catalog (or the named ``subset`` of it) under the
    fixed baseline, SysScale, and MD-DVFS.
    """
    if quick and subset is None:
        subset = QUICK_SCENARIO_SUBSET
    names = sorted(SCENARIOS) if subset is None else list(subset)
    policies = [PolicySpec.make("baseline")] + [
        PolicySpec.make(name) for name in MANAGED_POLICIES
    ]
    tuples = context.simulate_policy_matrix(catalog_trace_specs(names), policies)

    rows: List[Dict[str, object]] = []
    for name, (baseline, sysscale, md_dvfs) in zip(names, tuples):
        spec = SCENARIOS[name]
        rows.append(
            {
                "scenario": name,
                "generator": spec.generator,
                "class": GENERATORS[spec.generator].workload_class.value,
                "baseline_energy_j": baseline.energy.total,
                "sysscale_energy_reduction": sysscale.energy_reduction_vs(baseline),
                "sysscale_perf_impact": sysscale.performance_improvement_over(baseline),
                "sysscale_low_residency": sysscale.low_point_residency,
                "md_dvfs_energy_reduction": md_dvfs.energy_reduction_vs(baseline),
                "md_dvfs_perf_impact": md_dvfs.performance_improvement_over(baseline),
            }
        )

    worst_energy = min(rows, key=lambda row: row["sysscale_energy_reduction"])
    worst_perf = min(rows, key=lambda row: row["sysscale_perf_impact"])
    return ExperimentReport(
        experiment="robustness",
        title=TITLE,
        params={"subset": subset},
        blocks=(
            Metric("scenarios", len(rows)),
            Table.from_records(
                "rows",
                rows,
                units={
                    "baseline_energy_j": "J",
                    "sysscale_energy_reduction": "fraction",
                    "sysscale_perf_impact": "fraction",
                    "sysscale_low_residency": "fraction",
                    "md_dvfs_energy_reduction": "fraction",
                    "md_dvfs_perf_impact": "fraction",
                },
            ),
            *Metric.group(
                "average",
                {
                    "sysscale_energy_reduction": mean(
                        row["sysscale_energy_reduction"] for row in rows
                    ),
                    "sysscale_perf_impact": mean(
                        row["sysscale_perf_impact"] for row in rows
                    ),
                    "md_dvfs_energy_reduction": mean(
                        row["md_dvfs_energy_reduction"] for row in rows
                    ),
                    "md_dvfs_perf_impact": mean(
                        row["md_dvfs_perf_impact"] for row in rows
                    ),
                },
                unit="fraction",
            ),
            Metric(
                "worst_case/min_energy_reduction_scenario",
                worst_energy["scenario"],
            ),
            Metric(
                "worst_case/min_energy_reduction",
                worst_energy["sysscale_energy_reduction"],
                "fraction",
            ),
            Metric("worst_case/max_perf_loss_scenario", worst_perf["scenario"]),
            Metric(
                "worst_case/max_perf_loss",
                worst_perf["sysscale_perf_impact"],
                "fraction",
            ),
            Metric(
                "wins_on_energy",
                sum(
                    1
                    for row in rows
                    if row["sysscale_energy_reduction"]
                    >= row["md_dvfs_energy_reduction"]
                ),
            ),
        ),
    )
