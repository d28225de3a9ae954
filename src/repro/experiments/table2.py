"""Table 2: SoC and memory parameters of the evaluation platform."""

from __future__ import annotations

from typing import Dict, List

from repro import config
from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext
from repro.hw import get_hardware

TITLE = "Table 2: evaluated system parameters"


@experiment("table2", title=TITLE, flags=("--tdp",))
def _table2(context: ExperimentContext, quick: bool) -> ExperimentReport:
    """The SoC and memory parameters of the evaluation platform."""
    skylake = context.platform.soc
    # The motivation platform is addressable by name like every other spec; no
    # SoC needs to be materialized just to quote its identity.
    broadwell = get_hardware("broadwell")

    rows: List[Dict[str, object]] = [
        {"parameter": "Motivation SoC", "value": broadwell.soc_name},
        {"parameter": "Evaluation SoC", "value": skylake.name},
        {
            "parameter": "CPU core base frequency (GHz)",
            "value": skylake.cpu.base_frequency / config.GHZ,
        },
        {
            "parameter": "Graphics engine base frequency (MHz)",
            "value": skylake.gfx.base_frequency / config.MHZ,
        },
        {
            "parameter": "L3 cache / LLC (MiB)",
            "value": skylake.uncore.llc_bytes / (1024 * 1024),
        },
        {"parameter": "Thermal design power (W)", "value": skylake.tdp},
        {"parameter": "Process node (nm)", "value": skylake.process_node_nm},
        {
            "parameter": "Memory",
            "value": (
                f"LPDDR3-{int(skylake.dram.max_frequency / config.MHZ)}, non-ECC, "
                f"{skylake.dram.channels}-channel, "
                f"{skylake.dram.organization.capacity_bytes // 1024 ** 3} GB"
            ),
        },
        {
            "parameter": "Peak memory bandwidth (GB/s)",
            "value": skylake.peak_memory_bandwidth / config.GBPS,
        },
    ]
    return ExperimentReport(
        experiment="table2",
        title=TITLE,
        params={"tdp": skylake.tdp},
        blocks=(Table.from_records("rows", rows),),
    )
