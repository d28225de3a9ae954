"""Engine-loop microbenchmarks (the pytest-benchmark side of ``repro bench``).

``python -m repro bench`` measures the fast/reference speedup in one
invocation and writes ``BENCH_8.json``; ``perfbench/`` is the repository's
end-to-end benchmark.  These
benchmarks track the same hot paths under pytest-benchmark so regressions show
up in the ordinary benchmark run alongside the per-figure timings:

* the segment-stepping loop on a battery-life trace (the motivating Sec. 7.3
  shape) and on a Markov scenario walk (the memo-friendly shape);
* the seed per-tick reference loop on the same battery-life trace, so the
  amortization factor stays visible in the comparison table;
* a serial executor batch over deduplicated scenario jobs (jobs/sec).
"""

from __future__ import annotations

import pytest

from repro.baselines.fixed import FixedBaselinePolicy
from repro.runtime.executor import SerialExecutor
from repro.runtime.jobs import PolicySpec, SimSpec, SimulationJob, TraceSpec, _build_sysscale
from repro.scenarios.registry import SCENARIOS
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workloads.batterylife import battery_life_workload

MAX_TIME = 0.5


@pytest.fixture(scope="module")
def battery_trace():
    return battery_life_workload("video_playback", cycles=1)


@pytest.fixture(scope="module")
def markov_trace():
    return SCENARIOS["markov-mobile-day"].build()


def test_engine_segment_loop_battery(benchmark, context, battery_trace):
    engine = SimulationEngine(
        context.platform, SimulationConfig(max_simulated_time=MAX_TIME)
    )
    result = benchmark(engine.run, battery_trace, FixedBaselinePolicy())
    assert result.execution_time > 0
    assert engine.last_run_stats.memo_hits > 0


def test_engine_reference_loop_battery(benchmark, context, battery_trace):
    engine = SimulationEngine(
        context.platform,
        SimulationConfig(max_simulated_time=MAX_TIME, reference_loop=True),
    )
    result = benchmark(engine.run, battery_trace, FixedBaselinePolicy())
    assert result.execution_time > 0
    assert engine.last_run_stats.model_evaluations == engine.last_run_stats.ticks


def test_engine_segment_loop_markov_sysscale(benchmark, context, markov_trace):
    engine = SimulationEngine(
        context.platform, SimulationConfig(max_simulated_time=MAX_TIME)
    )
    result = benchmark(
        engine.run, markov_trace, _build_sysscale(context.platform)
    )
    assert result.execution_time > 0


def test_runtime_serial_jobs(benchmark, context):
    """Deduplicated scenario jobs through the serial executor, no cache."""
    jobs = [
        SimulationJob(
            trace=SCENARIOS[name].trace_spec(),
            policy=PolicySpec.make(policy),
            sim=SimSpec(max_simulated_time=0.1),
        )
        for name in ("bursty-heavy", "periodic-fast")
        for policy in ("baseline", "sysscale")
    ]
    report = benchmark(SerialExecutor().run, jobs)
    assert report.executed == len(jobs)
