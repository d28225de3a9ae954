"""Fig. 3: memory bandwidth demand over time and per IO/compute component.

(a) bandwidth demand over time for three SPEC workloads and a 3DMark workload;
(b) average bandwidth demand of the display engine, ISP engine, and graphics
    engines across configurations.
"""

from __future__ import annotations

from typing import Dict, List

from repro import config
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Series, Table
from repro.experiments.runner import ExperimentContext
from repro.numeric import ordered_sum
from repro.workloads.graphics import graphics_workload
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS
from repro.workloads.spec2006 import spec_workload

#: The workloads plotted in Fig. 3(a).
FIG3_WORKLOADS = ("400.perlbench", "473.astar", "470.lbm")

#: Sampling interval of the Fig. 3(a) bandwidth timelines (seconds).
SAMPLE_INTERVAL = config.ms(100)

TITLE = "Fig. 3: memory bandwidth demand of workloads and displays"


@experiment("fig3", title=TITLE)
def _fig3(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """Bandwidth-demand timelines plus per-component display/ISP/graphics demand."""
    timelines: List[Series] = []
    traces = [
        spec_workload(name, duration=context.workload_duration)
        for name in FIG3_WORKLOADS
    ] + [graphics_workload("3DMark06")]
    for trace in traces:
        timelines.append(
            Series.from_points(
                f"timelines/{trace.name}",
                (
                    (t, bw / config.GBPS)
                    for t, bw in trace.bandwidth_timeline(SAMPLE_INTERVAL)
                ),
                x_label="time_s",
                y_label="bandwidth_gbps",
                unit="GB/s",
            )
        )

    component_rows: List[Dict[str, object]] = []
    peak = config.LPDDR3_PEAK_BANDWIDTH
    for config_name, peripheral in STANDARD_CONFIGURATIONS.items():
        component_rows.append(
            {
                "configuration": config_name,
                "display_bandwidth_gbps": peripheral.display.bandwidth_demand / config.GBPS,
                "isp_bandwidth_gbps": peripheral.camera.bandwidth_demand / config.GBPS,
                "fraction_of_peak": peripheral.static_bandwidth_demand / peak,
            }
        )
    for gfx_name in ("3DMark06", "3DMark11", "3DMark Vantage"):
        trace = graphics_workload(gfx_name)
        gfx_demand = ordered_sum(
            phase.gfx_bandwidth_demand * phase.duration for phase in trace.phases
        ) / trace.total_duration
        component_rows.append(
            {
                "configuration": f"gfx_{gfx_name}",
                "display_bandwidth_gbps": 0.0,
                "isp_bandwidth_gbps": 0.0,
                "gfx_bandwidth_gbps": gfx_demand / config.GBPS,
                "fraction_of_peak": gfx_demand / peak,
            }
        )

    return ExperimentReport(
        experiment="fig3",
        title=TITLE,
        params={
            "duration": context.workload_duration,
            "sample_interval": SAMPLE_INTERVAL,
        },
        blocks=(
            *timelines,
            Table.from_records(
                "component_demand",
                component_rows,
                units={
                    "display_bandwidth_gbps": "GB/s",
                    "isp_bandwidth_gbps": "GB/s",
                    "gfx_bandwidth_gbps": "GB/s",
                    "fraction_of_peak": "fraction",
                },
            ),
        ),
    )
