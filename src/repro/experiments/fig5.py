"""Fig. 5 / Sec. 5: the SysScale DVFS transition flow and its latency budget."""

from __future__ import annotations

from typing import Dict, List

from repro import config
from repro.core.flow import TransitionFlow
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext

TITLE = "Fig. 5: SysScale transition-flow latency breakdown"


@experiment("fig5", title=TITLE, flags=("--tdp",))
def _fig5(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """Per-step latencies of the Fig. 5 DVFS flow in both directions."""
    platform = context.platform
    points = context.operating_points

    flow = TransitionFlow(
        rails=platform.soc.rails,
        interconnect=platform.soc.interconnect_fabric,
        dram=platform.dram,
        mrc_sram=platform.mrc_sram,
        mrc_registers=platform.mrc_registers,
    )

    reports: List[Dict[str, object]] = []
    down = flow.execute(points.high, points.low)
    reports.append(down.as_dict())
    up = flow.execute(points.low, points.high)
    reports.append(up.as_dict())

    return ExperimentReport(
        experiment="fig5",
        title=TITLE,
        params={"tdp": platform.tdp},
        blocks=(
            Table.from_records("transitions", reports),
            Metric(
                "budget_us",
                config.TRANSITION_TOTAL_LATENCY_BUDGET / config.US,
                "us",
            ),
            Metric("worst_latency_us", flow.worst_observed_latency / config.US, "us"),
            Metric(
                "within_budget",
                all(report["within_budget"] for report in reports),
            ),
        ),
    )
