"""Table 1: the two real experimental setups (baseline vs. MD-DVFS)."""

from __future__ import annotations

from typing import Dict, List

from repro import config
from repro.baselines.md_dvfs import build_md_dvfs_action
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext

TITLE = "Table 1: static MD-DVFS operating-point settings"


@experiment("table1", title=TITLE, flags=("--tdp",))
def _table1(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """The component settings of the baseline and static MD-DVFS setups.

    The baseline column is the default high operating point; the MD-DVFS column is
    the static reduced configuration (one DRAM bin down, interconnect halved,
    V_SA x 0.8, V_IO x 0.85, CPU cores unchanged).
    """
    platform = context.platform
    md_action = build_md_dvfs_action(platform)
    baseline_state = platform.default_state()

    rows: List[Dict[str, object]] = [
        {
            "component": "DRAM frequency (GHz)",
            "baseline": baseline_state.dram_frequency / config.GHZ,
            "md_dvfs": md_action.dram_frequency / config.GHZ,
        },
        {
            "component": "IO interconnect (GHz)",
            "baseline": baseline_state.interconnect_frequency / config.GHZ,
            "md_dvfs": md_action.interconnect_frequency / config.GHZ,
        },
        {
            "component": "Shared voltage (x V_SA)",
            "baseline": 1.0,
            "md_dvfs": md_action.v_sa_scale,
        },
        {
            "component": "DDRIO digital (x V_IO)",
            "baseline": 1.0,
            "md_dvfs": md_action.v_io_scale,
        },
        {
            "component": "2 cores / 4 threads (GHz)",
            "baseline": baseline_state.cpu_frequency / config.GHZ,
            "md_dvfs": baseline_state.cpu_frequency / config.GHZ,
        },
    ]
    return ExperimentReport(
        experiment="table1",
        title=TITLE,
        params={"tdp": platform.tdp},
        blocks=(Table.from_records("rows", rows),),
    )
