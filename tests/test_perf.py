"""Tests for the performance model, counters, bottleneck and scalability helpers."""

import pytest

from repro import config
from repro.perf.bottleneck import analyze_bottlenecks
from repro.perf.counters import CounterName, CounterSample
from repro.perf.model import PhasePerformanceModel
from repro.perf.scalability import amdahl_speedup, frequency_scalability
from repro.soc.domains import SoCState
from repro.workloads.microbenchmarks import (
    compute_only_microbenchmark,
    peak_bandwidth_microbenchmark,
    pointer_chasing_microbenchmark,
)
from repro.workloads.spec2006 import spec_workload


LOW_STATE = SoCState(
    dram_frequency=1.06e9,
    interconnect_frequency=0.4e9,
    v_sa_scale=0.8,
    v_io_scale=0.85,
)


class TestPhasePerformanceModel:
    def test_reference_state_has_unit_slowdown(self, platform):
        phase = spec_workload("416.gamess").phases[0]
        slowdown = platform.performance_model.slowdown(phase, SoCState())
        assert slowdown.total == pytest.approx(1.0, abs=0.02)

    def test_higher_cpu_frequency_speeds_up_compute_bound(self, platform):
        phase = compute_only_microbenchmark().phases[0]
        fast = SoCState(cpu_frequency=1.8e9)
        assert platform.performance_model.slowdown(phase, fast).total < 1.0

    def test_memory_scaling_hurts_latency_bound(self, platform):
        phase = pointer_chasing_microbenchmark().phases[0]
        slowdown = platform.performance_model.slowdown(phase, LOW_STATE)
        assert slowdown.total > 1.05

    def test_memory_scaling_barely_affects_compute_bound(self, platform):
        phase = compute_only_microbenchmark().phases[0]
        slowdown = platform.performance_model.slowdown(phase, LOW_STATE)
        assert slowdown.total < 1.01

    def test_bandwidth_bound_workload_limited_by_ceiling(self, platform):
        phase = peak_bandwidth_microbenchmark().phases[0]
        slowdown = platform.performance_model.slowdown(phase, LOW_STATE)
        assert slowdown.total > 1.15

    def test_achieved_bandwidth_never_exceeds_ceiling(self, platform):
        phase = peak_bandwidth_microbenchmark().phases[0]
        slowdown = platform.performance_model.slowdown(phase, SoCState())
        assert slowdown.achieved_bandwidth <= platform.latency_model.reference_bandwidth() + 1.0

    def test_execution_time_scales_with_duration(self, platform):
        phase = spec_workload("470.lbm").phases[0]
        time_1 = platform.performance_model.execution_time(phase, SoCState())
        time_2 = platform.performance_model.execution_time(phase.scaled_duration(2.0), SoCState())
        assert time_2 == pytest.approx(2 * time_1)

    def test_invalid_io_sensitivity(self, platform):
        with pytest.raises(ValueError):
            PhasePerformanceModel(latency_model=platform.latency_model, io_sensitivity=2.0)


class TestCounters:
    def test_sample_contains_all_counters(self, platform):
        phase = spec_workload("470.lbm").phases[0]
        sample = platform.counter_unit.sample(phase, SoCState())
        for name in CounterName:
            assert sample[name] >= 0.0

    def test_memory_bound_workload_has_higher_stalls(self, platform):
        lbm = spec_workload("470.lbm").phases[0]
        gamess = spec_workload("416.gamess").phases[0]
        state = SoCState()
        assert (
            platform.counter_unit.sample(lbm, state)[CounterName.LLC_STALLS]
            > platform.counter_unit.sample(gamess, state)[CounterName.LLC_STALLS]
        )

    def test_counters_are_operating_point_invariant(self, platform):
        phase = spec_workload("470.lbm").phases[0]
        high = platform.counter_unit.sample(phase, SoCState())
        low = platform.counter_unit.sample(phase, LOW_STATE)
        for name in CounterName:
            assert high[name] == pytest.approx(low[name])

    def test_average_of_samples(self, platform):
        phase = spec_workload("470.lbm").phases[0]
        sample = platform.counter_unit.sample(phase, SoCState())
        averaged = CounterSample.average([sample, sample, sample])
        for name in CounterName:
            assert averaged[name] == pytest.approx(sample[name])

    def test_average_of_nothing_rejected(self):
        with pytest.raises(ValueError):
            CounterSample.average([])

    def test_missing_counter_rejected(self):
        with pytest.raises(ValueError):
            CounterSample(values={CounterName.IO_RPQ: 1.0})

    def test_graphics_counter_tracks_gfx_demand(self, platform):
        from repro.workloads.graphics import graphics_workload

        scene = graphics_workload("3DMark11").phases[0]
        cpu_only = spec_workload("416.gamess").phases[0]
        state = SoCState()
        assert (
            platform.counter_unit.sample(scene, state)[CounterName.GFX_LLC_MISSES]
            > platform.counter_unit.sample(cpu_only, state)[CounterName.GFX_LLC_MISSES]
        )


class TestBottleneckAndScalability:
    def test_lbm_is_bandwidth_dominated(self):
        breakdown = analyze_bottlenecks(spec_workload("470.lbm"))
        assert breakdown.dominant == "memory_bandwidth"

    def test_cactusadm_is_latency_dominated_among_memory(self):
        breakdown = analyze_bottlenecks(spec_workload("436.cactusADM"))
        assert breakdown.memory_latency_bound > breakdown.memory_bandwidth_bound

    def test_gamess_is_non_memory_bound(self):
        breakdown = analyze_bottlenecks(spec_workload("416.gamess"))
        assert breakdown.dominant == "non_memory"
        assert breakdown.memory_bound < 0.1

    def test_fractions_sum_to_one(self):
        breakdown = analyze_bottlenecks(spec_workload("473.astar"))
        total = (
            breakdown.memory_latency_bound
            + breakdown.memory_bandwidth_bound
            + breakdown.non_memory_bound
        )
        assert total == pytest.approx(1.0)

    def test_amdahl_speedup(self):
        assert amdahl_speedup(1.0, 1.2) == pytest.approx(1.2)
        assert amdahl_speedup(0.0, 1.2) == pytest.approx(1.0)
        assert 1.0 < amdahl_speedup(0.5, 1.2) < 1.2

    def test_scalability_selector(self):
        trace = spec_workload("416.gamess")
        assert frequency_scalability(trace, "cpu") > 0.9
        with pytest.raises(ValueError):
            frequency_scalability(trace, "npu")

    def test_invalid_amdahl_inputs(self):
        with pytest.raises(ValueError):
            amdahl_speedup(1.5, 1.1)
        with pytest.raises(ValueError):
            amdahl_speedup(0.5, 0.0)
