"""Experiment harness: one module per table/figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function returning a structured
:class:`~repro.experiments.report.ExperimentReport` (typed ``Table`` /
``Series`` / ``Metric`` blocks plus run metadata, read by block key), and
registers itself in the :mod:`repro.experiments.api` registry with an
:func:`@experiment <repro.experiments.api.experiment>` decorator.  The
``python -m repro`` CLI, the :class:`repro.api.Session` facade, and the
paper-claims ledger (``tests/test_paper_claims.py``) are all generated from /
driven by that registry.
"""

from repro.experiments.api import (
    CONTEXT_FLAGS,
    REGISTRY,
    ExperimentSpec,
    experiment,
    get_spec,
    registry,
)
from repro.experiments.report import (
    ExperimentReport,
    Metric,
    RunInfo,
    Series,
    Table,
    format_table,
    render_csv,
    render_json,
    render_text,
)
from repro.experiments.runner import (
    ExperimentContext,
    ExperimentRuntime,
    build_context,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.fig2 import run_fig2_motivation
from repro.experiments.fig3 import run_fig3_bandwidth_demand
from repro.experiments.fig4 import run_fig4_mrc_impact
from repro.experiments.fig5 import run_fig5_transition_flow
from repro.experiments.fig6 import run_fig6_prediction
from repro.experiments.fig7 import run_fig7_spec
from repro.experiments.fig8 import run_fig8_graphics
from repro.experiments.fig9 import run_fig9_battery_life
from repro.experiments.fig10 import run_fig10_tdp_sensitivity
from repro.experiments.hwsweep import run_hwsweep
from repro.experiments.scenario_robustness import run_scenario_robustness
from repro.experiments.sensitivity import run_dram_frequency_sensitivity

__all__ = [
    "CONTEXT_FLAGS",
    "REGISTRY",
    "ExperimentContext",
    "ExperimentReport",
    "ExperimentRuntime",
    "ExperimentSpec",
    "Metric",
    "RunInfo",
    "Series",
    "Table",
    "build_context",
    "experiment",
    "format_table",
    "get_spec",
    "registry",
    "render_csv",
    "render_json",
    "render_text",
    "run_table1",
    "run_table2",
    "run_fig2_motivation",
    "run_fig3_bandwidth_demand",
    "run_fig4_mrc_impact",
    "run_fig5_transition_flow",
    "run_fig6_prediction",
    "run_fig7_spec",
    "run_fig8_graphics",
    "run_fig9_battery_life",
    "run_fig10_tdp_sensitivity",
    "run_hwsweep",
    "run_scenario_robustness",
    "run_dram_frequency_sensitivity",
]
