"""Experiment harness: one module per table/figure of the paper's evaluation.

Each experiment module defines one runner, ``fn(context, quick, *, <params>)``,
returning a structured :class:`~repro.experiments.report.ExperimentReport`
(typed ``Table`` / ``Series`` / ``Metric`` blocks plus run metadata, read by
block key), and registers it in the :mod:`repro.experiments.api` registry with
an :func:`@experiment <repro.experiments.api.experiment>` decorator.  The
registered spec is the only entry point: ``get_spec(name).run(context)``.  The
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

# Importing a module registers its spec, so this order is the registry's order:
# the order the CLI, ``registry()`` and the benchmark's reproduction pass run
# the experiments in, and hence which experiment writes a shared job first.
from repro.experiments import (  # noqa: F401
    table1,
    table2,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    hwsweep,
    scenario_robustness,
    sensitivity,
)

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
]
