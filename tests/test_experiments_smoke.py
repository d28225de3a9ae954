"""Smoke test: every registered experiment runs through the runtime.

Guards against future experiment-module breakage: each ``repro.experiments``
module's registered spec must complete -- with a tiny engine limit and reduced
workload sets -- against a context whose runtime is the real (serial)
executor.  The point is coverage of the wiring, not of the numbers: the paper's
numbers are checked in ``tests/test_paper_claims.py`` and the exact full-mode
outputs in ``tests/test_full_pins.py``.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.experiments
from repro.experiments import build_context, registry
from repro.experiments.report import ExperimentReport
from repro.sim.engine import SimulationConfig
from repro.workloads.trace import WorkloadClass

#: Modules that are plumbing, not experiments.
NON_EXPERIMENT_MODULES = {"runner", "report", "api"}

#: Each experiment module's registered spec, keyed by module name.
SPECS_BY_MODULE = {
    spec.runner.__module__.rpartition(".")[2]: spec for spec in registry().values()
}

#: Tiny per-experiment parameters so the full sweep finishes in seconds.
TINY_PARAMS = {
    "fig6": {
        "workloads_per_class": {
            WorkloadClass.CPU_SINGLE_THREAD: 4,
            WorkloadClass.CPU_MULTI_THREAD: 3,
            WorkloadClass.GRAPHICS: 3,
        }
    },
    "fig7": {"subset": ("470.lbm", "416.gamess")},
    "fig10": {"tdp_points": (4.5,), "subset": ("470.lbm",)},
    "sensitivity": {"corpus_size": 4},
    "robustness": {"subset": ("bursty-heavy", "thrash-sustained", "idle-mostly")},
}


def _experiment_modules():
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name not in NON_EXPERIMENT_MODULES and not info.name.startswith("_"):
            yield info.name


@pytest.fixture(scope="module")
def tiny_context():
    return build_context(
        workload_duration=0.05,
        sim_config=SimulationConfig(max_simulated_time=0.05),
    )


def test_every_module_has_an_entry_function():
    """Every experiment module defines its registered runner, so the sweep
    below (parametrized over the registry) leaves no module out."""
    modules = list(_experiment_modules())
    assert len(modules) >= 12
    for module_name in modules:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        spec = SPECS_BY_MODULE.get(module_name)
        assert spec is not None, f"{module_name} has no registered entry function"
        assert inspect.isfunction(spec.runner), module_name
        assert vars(module)[spec.runner.__name__] is spec.runner, module_name


@pytest.mark.parametrize("module_name", sorted(SPECS_BY_MODULE))
def test_entry_functions_run_through_the_runtime(module_name, tiny_context):
    spec = SPECS_BY_MODULE[module_name]
    report = spec.run(tiny_context, **TINY_PARAMS.get(spec.name, {}))
    assert isinstance(report, ExperimentReport), spec.name
    assert report.blocks, spec.name
