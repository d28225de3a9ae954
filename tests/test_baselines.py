"""Tests for the baseline policies and the MemScale/CoScale projections."""

import pytest

from repro.baselines.coscale import CoScaleRedistProjection
from repro.baselines.fixed import FixedBaselinePolicy
from repro.baselines.md_dvfs import StaticMdDvfsPolicy, build_md_dvfs_action
from repro.baselines.memscale import MemScaleRedistProjection
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.graphics import graphics_workload
from repro.workloads.spec2006 import spec_workload


class TestFixedBaseline:
    def test_decide_before_reset_raises(self):
        policy = FixedBaselinePolicy()
        with pytest.raises(RuntimeError):
            policy.decide(None)

    def test_action_is_worst_case_high_point(self, platform):
        policy = FixedBaselinePolicy()
        action = policy.reset(platform, spec_workload("416.gamess"))
        assert action.dram_frequency == pytest.approx(1.6e9)
        assert action.io_memory_budget == pytest.approx(platform.worst_case_io_memory_power())


class TestMdDvfs:
    def test_action_matches_table1(self, platform):
        action = build_md_dvfs_action(platform)
        assert action.dram_frequency == pytest.approx(1.06e9)
        assert action.interconnect_frequency == pytest.approx(0.4e9)
        assert action.v_sa_scale == pytest.approx(0.8)
        assert action.v_io_scale == pytest.approx(0.85)

    def test_redistribution_lowers_charged_budget(self, platform):
        fixed = build_md_dvfs_action(platform, redistribute_to_compute=False)
        redist = build_md_dvfs_action(platform, redistribute_to_compute=True)
        assert redist.io_memory_budget < fixed.io_memory_budget

    def test_policy_is_static(self, platform, engine):
        result = engine.run(spec_workload("400.perlbench", duration=0.2), StaticMdDvfsPolicy())
        assert result.transitions == 0
        assert result.low_point_residency == pytest.approx(1.0)


class TestProjections:
    @pytest.fixture(scope="class")
    def projections(self, platform):
        return (
            MemScaleRedistProjection(platform=platform),
            CoScaleRedistProjection(platform=platform),
        )

    def test_savings_positive_for_compute_bound(self, projections):
        memscale, _ = projections
        assert memscale.estimate_power_savings(spec_workload("416.gamess")) > 0

    def test_savings_smaller_for_memory_bound(self, projections):
        memscale, _ = projections
        assert memscale.estimate_power_savings(
            spec_workload("470.lbm")
        ) < memscale.estimate_power_savings(spec_workload("416.gamess"))

    def test_coscale_exceeds_memscale_on_cpu_workloads(self, projections):
        memscale, coscale = projections
        trace = spec_workload("473.astar")
        assert coscale.estimate_power_savings(trace) > memscale.estimate_power_savings(trace)

    def test_coscale_equals_memscale_on_graphics(self, projections):
        memscale, coscale = projections
        trace = graphics_workload("3DMark06")
        assert coscale.project(trace).performance_improvement == pytest.approx(
            memscale.project(trace).performance_improvement, rel=0.05
        )

    def test_coscale_equals_memscale_on_battery_life(self, projections):
        memscale, coscale = projections
        trace = battery_life_workload("video_playback")
        assert coscale.project(trace, baseline_average_power=0.7).power_reduction == pytest.approx(
            memscale.project(trace, baseline_average_power=0.7).power_reduction, rel=0.05
        )

    def test_projection_improvement_is_modest(self, projections):
        memscale, coscale = projections
        for trace in (spec_workload("416.gamess"), spec_workload("400.perlbench")):
            assert 0.0 <= memscale.project(trace).performance_improvement < 0.10
            assert 0.0 <= coscale.project(trace).performance_improvement < 0.12

    def test_battery_projection_reports_power_not_performance(self, projections):
        memscale, _ = projections
        result = memscale.project(battery_life_workload("web_browsing"), baseline_average_power=1.2)
        assert result.performance_improvement == 0.0
        assert result.power_reduction > 0.0

    def test_result_as_dict(self, projections):
        memscale, _ = projections
        data = memscale.project(spec_workload("416.gamess")).as_dict()
        for key in ("workload", "technique", "power_savings_w", "performance_improvement"):
            assert key in data
