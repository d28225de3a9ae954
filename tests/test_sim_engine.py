"""Tests for the platform assembly and the trace-driven simulation engine."""

import pytest

from repro import config
from repro.baselines.fixed import FixedBaselinePolicy
from repro.baselines.md_dvfs import StaticMdDvfsPolicy
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import build_platform
from repro.sim.policy import PolicyAction
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS
from repro.workloads.microbenchmarks import compute_only_microbenchmark
from repro.workloads.spec2006 import spec_workload


class TestPlatform:
    def test_build_platform_defaults(self, platform):
        assert platform.tdp == pytest.approx(4.5)
        assert platform.dram.max_frequency == pytest.approx(1.6e9)

    def test_worst_case_reservation_exceeds_typical(self, platform):
        worst = platform.worst_case_io_memory_power()
        typical = platform.io_memory_power_at(
            dram_frequency=1.6e9, interconnect_frequency=0.8e9,
            v_sa_scale=1.0, v_io_scale=1.0, bandwidth=3e9, io_activity=0.3,
        )
        assert worst > typical

    def test_low_point_provisioning_frees_budget(self, platform):
        high = platform.worst_case_io_memory_power()
        low = platform.worst_case_io_memory_power(
            dram_frequency=1.06e9, interconnect_frequency=0.4e9,
            v_sa_scale=0.8, v_io_scale=0.85,
        )
        assert 0.3 < high - low < 1.2

    def test_compute_budget_monotone_in_tdp(self):
        small = build_platform(tdp=3.5)
        large = build_platform(tdp=7.0)
        assert large.compute_budget(1.5) > small.compute_budget(1.5)

    def test_describe(self, platform):
        summary = platform.describe()
        assert "worst_case_io_memory_power_w" in summary


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        sim_config = SimulationConfig()
        assert sim_config.tick == pytest.approx(config.COUNTER_SAMPLING_INTERVAL)
        assert sim_config.evaluation_interval == pytest.approx(config.EVALUATION_INTERVAL)

    def test_validation(self):
        nan = float("nan")
        # NaN fails every comparison, so it must fail each check as well: a
        # NaN tick never advances the engine, and a NaN time limit stops it
        # after one tick.
        for invalid in (
            {"tick": 0.0},
            {"tick": 0.01, "evaluation_interval": 0.001},
            {"tick": nan},
            {"evaluation_interval": nan},
            {"max_simulated_time": nan},
        ):
            with pytest.raises(ValueError):
                SimulationConfig(**invalid)


class TestEngineBasics:
    def test_baseline_run_produces_sensible_result(self, engine):
        trace = spec_workload("416.gamess", duration=0.3)
        result = engine.run(trace, FixedBaselinePolicy())
        assert result.execution_time > 0
        assert 1.0 < result.average_power < engine.platform.tdp + 1.0
        assert result.energy.total == pytest.approx(
            result.average_power * result.execution_time
        )

    def test_baseline_never_transitions(self, engine):
        trace = spec_workload("473.astar", duration=0.3)
        result = engine.run(trace, FixedBaselinePolicy())
        assert result.transitions == 0
        assert result.low_point_residency == 0.0

    def test_faster_compute_shortens_compute_bound_runs(self, engine):
        trace = compute_only_microbenchmark(duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        assert baseline.execution_time < trace.total_duration

    def test_md_dvfs_reduces_power(self, engine):
        trace = spec_workload("400.perlbench", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        md = engine.run(trace, StaticMdDvfsPolicy())
        assert md.average_power < baseline.average_power
        assert md.low_point_residency == pytest.approx(1.0)

    def test_md_dvfs_hurts_memory_bound_performance(self, engine):
        trace = spec_workload("470.lbm", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        md = engine.run(trace, StaticMdDvfsPolicy())
        assert md.performance_improvement_over(baseline) < -0.05

    def test_battery_life_run_has_fixed_duration(self, engine):
        trace = battery_life_workload("video_playback", cycles=1)
        result = engine.run(trace, FixedBaselinePolicy(),
                            peripherals=STANDARD_CONFIGURATIONS["single_hd"])
        assert result.execution_time == pytest.approx(trace.total_duration, rel=0.02)

    def test_battery_life_power_is_low(self, engine):
        trace = battery_life_workload("video_playback", cycles=1)
        result = engine.run(trace, FixedBaselinePolicy(),
                            peripherals=STANDARD_CONFIGURATIONS["single_hd"])
        assert 0.3 < result.average_power < 1.5

    def test_max_simulated_time_cap(self, platform):
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.05))
        trace = spec_workload("470.lbm", duration=10.0)
        result = engine.run(trace, FixedBaselinePolicy())
        assert result.execution_time <= 0.06

    def test_result_as_dict(self, engine):
        trace = spec_workload("416.gamess", duration=0.2)
        data = engine.run(trace, FixedBaselinePolicy()).as_dict()
        for key in ("workload", "policy", "time_s", "average_power_w", "energy_j"):
            assert key in data


class TestPolicyAction:
    def test_same_operating_point(self):
        action = PolicyAction(
            name="a", dram_frequency=1.6e9, interconnect_frequency=0.8e9,
            v_sa_scale=1.0, v_io_scale=1.0, mrc_optimized=True, io_memory_budget=1.5,
        )
        same = PolicyAction(
            name="b", dram_frequency=1.6e9, interconnect_frequency=0.8e9,
            v_sa_scale=1.0, v_io_scale=1.0, mrc_optimized=True, io_memory_budget=2.0,
        )
        different = PolicyAction(
            name="c", dram_frequency=1.06e9, interconnect_frequency=0.4e9,
            v_sa_scale=0.8, v_io_scale=0.85, mrc_optimized=True, io_memory_budget=1.0,
        )
        assert action.same_operating_point(same)
        assert not action.same_operating_point(different)
        assert not action.same_operating_point(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyAction(
                name="bad", dram_frequency=-1.0, interconnect_frequency=0.8e9,
                v_sa_scale=1.0, v_io_scale=1.0, mrc_optimized=True, io_memory_budget=1.0,
            )
