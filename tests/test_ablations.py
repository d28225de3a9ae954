"""Ablations: how much each SysScale ingredient contributes on this model.

These are not paper figures.  Each test runs a six-benchmark SPEC subset under
the fixed baseline and a varied SysScale: without per-frequency MRC
re-optimization, with 100x slower transitions, and with a shorter or longer
evaluation interval.
"""

import pytest

from repro import config
from repro.baselines.fixed import FixedBaselinePolicy
from repro.core.operating_points import OperatingPoint, OperatingPointTable
from repro.core.sysscale import SysScaleController
from repro.experiments import build_context
from repro.experiments.runner import mean
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workloads.spec2006 import spec_cpu2006_suite

SUBSET = ("400.perlbench", "416.gamess", "444.namd", "456.hmmer", "473.astar", "470.lbm")


@pytest.fixture(scope="module")
def context():
    return build_context(workload_duration=0.5)


def _mean_improvement(engine, controller_factory):
    values = []
    for trace in spec_cpu2006_suite(duration=0.5, subset=SUBSET):
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, controller_factory())
        values.append(sysscale.performance_improvement_over(baseline))
    return mean(values)


def test_ablation_mrc_reoptimization(context):
    """SysScale with vs. without per-frequency MRC re-optimization (Fig. 4 tie-in)."""
    engine = SimulationEngine(context.platform)
    with_mrc = _mean_improvement(engine, context.sysscale)

    stale_points = OperatingPointTable(
        points=[
            OperatingPoint("high", 1.6e9, config.IO_INTERCONNECT_HIGH_FREQUENCY, 1.0, 1.0,
                           mrc_optimized=True),
            OperatingPoint("low_stale_mrc", 1.06e9, config.IO_INTERCONNECT_LOW_FREQUENCY,
                           config.V_SA_LOW_SCALE, config.V_IO_LOW_SCALE, mrc_optimized=False),
        ]
    )

    def stale_controller():
        return SysScaleController(
            platform=context.platform,
            operating_points=stale_points,
            thresholds=context.thresholds,
        )

    without_mrc = _mean_improvement(engine, stale_controller)
    assert with_mrc >= without_mrc - 0.005


def test_ablation_transition_latency(context):
    """Nominal 10 us transitions vs. 100x slower transitions (prior-work style)."""
    engine = SimulationEngine(context.platform)
    fast = _mean_improvement(engine, context.sysscale)

    def slow_controller():
        controller = context.sysscale()
        controller.flow.firmware_latency = 100 * config.TRANSITION_TOTAL_LATENCY_BUDGET
        return controller

    slow = _mean_improvement(engine, slow_controller)
    # With 30 ms evaluation intervals even slow transitions cost little, which is
    # exactly why the paper can afford a firmware-driven flow.
    assert abs(fast - slow) < 0.02


@pytest.mark.parametrize("interval_ms", [10.0, 30.0, 100.0])
def test_ablation_evaluation_interval(context, interval_ms):
    """Sensitivity of SysScale's benefit to the evaluation-interval length."""
    engine = SimulationEngine(
        context.platform, SimulationConfig(evaluation_interval=interval_ms * 1e-3)
    )
    assert _mean_improvement(engine, context.sysscale) > 0.02
