"""Tests for the power budget manager, P-state selection, C-states, and metrics."""

import pytest

from repro import config
from repro.power.budget import PowerBudgetManager
from repro.power.cstates import CState, CStateResidency
from repro.power.energy import EnergyMetrics, energy_delay_product
from repro.power.models import ActivityVector
from repro.power.pstates import max_pstate_within_budget, build_cpu_pstates


class TestBudgets:
    def test_baseline_reserves_worst_case(self, platform):
        budgets = platform.pbm.budgets(None)
        assert budgets.io_memory == pytest.approx(platform.worst_case_io_memory_power())
        assert budgets.compute < platform.tdp

    def test_smaller_allocation_gives_more_compute(self, platform):
        small = platform.pbm.budgets(0.8)
        large = platform.pbm.budgets(1.8)
        assert small.compute > large.compute

    def test_allocation_never_negative(self, platform):
        budgets = platform.pbm.budgets(platform.tdp * 2)
        assert budgets.compute == 0.0

    def test_redistribution(self, platform):
        saved = 0.5
        baseline = platform.pbm.budgets(None)
        redistributed = platform.pbm.budgets(baseline.io_memory - saved)
        assert redistributed.compute == pytest.approx(baseline.compute + saved)

    def test_negative_allocation_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.pbm.budgets(-1.0)


class TestComputePlanning:
    def test_more_budget_means_higher_cpu_frequency(self, platform):
        activity = ActivityVector(cpu_activity=0.95, memory_bandwidth=2e9)
        small = platform.pbm.plan_cpu_centric(2.0, activity)
        large = platform.pbm.plan_cpu_centric(3.2, activity)
        assert large.cpu_state.frequency > small.cpu_state.frequency

    def test_graphics_plan_parks_cpu_at_pn(self, platform):
        activity = ActivityVector(cpu_activity=0.45, gfx_activity=0.95, memory_bandwidth=5e9)
        plan = platform.pbm.plan_graphics_centric(2.5, activity)
        assert plan.cpu_state.frequency == platform.soc.cpu_pstates.pn.frequency

    def test_graphics_plan_boosts_gfx_with_budget(self, platform):
        activity = ActivityVector(cpu_activity=0.45, gfx_activity=0.95, memory_bandwidth=5e9)
        small = platform.pbm.plan_graphics_centric(2.0, activity)
        large = platform.pbm.plan_graphics_centric(3.2, activity)
        assert large.gfx_state.frequency > small.gfx_state.frequency

    def test_fixed_performance_plan_uses_floors(self, platform):
        plan = platform.pbm.plan_fixed_performance()
        assert plan.cpu_state.frequency == platform.soc.cpu_pstates.pn.frequency
        assert plan.gfx_state.frequency == platform.soc.gfx_pstates.min_state.frequency

    def test_max_pstate_within_budget_monotone(self):
        table = build_cpu_pstates()
        power = lambda state: state.frequency * 1e-9  # noqa: E731 - simple stub
        low = max_pstate_within_budget(table, power, 1.0)
        high = max_pstate_within_budget(table, power, 2.0)
        assert high.frequency >= low.frequency


class TestCStates:
    def test_residencies_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CStateResidency({CState.C0: 0.5, CState.C8: 0.4})

    def test_video_playback_profile_matches_paper(self):
        profile = CStateResidency.video_playback()
        assert profile.fraction(CState.C0) == pytest.approx(0.10)
        assert profile.fraction(CState.C2) == pytest.approx(0.05)
        assert profile.fraction(CState.C8) == pytest.approx(0.85)
        assert profile.dram_active_fraction == pytest.approx(0.15)

    def test_active_only_profile(self):
        profile = CStateResidency.active_only()
        assert profile.active_fraction == 1.0
        assert profile.idle_package_power() == 0.0

    def test_scaled_active_preserves_proportions(self):
        profile = CStateResidency.video_playback()
        scaled = profile.scaled_active(0.2)
        assert scaled.active_fraction == pytest.approx(0.2)
        assert scaled.fraction(CState.C8) / scaled.fraction(CState.C2) == pytest.approx(
            profile.fraction(CState.C8) / profile.fraction(CState.C2)
        )


class TestEnergyMetrics:
    def test_average_power_and_edp(self):
        metrics = EnergyMetrics(energy_joules=10.0, execution_time_seconds=2.0)
        assert metrics.average_power == pytest.approx(5.0)
        assert metrics.edp == pytest.approx(20.0)

    def test_comparisons(self):
        baseline = EnergyMetrics(energy_joules=10.0, execution_time_seconds=2.0)
        better = EnergyMetrics(energy_joules=9.0, execution_time_seconds=1.8)
        assert better.performance_improvement_over(baseline) == pytest.approx(2.0 / 1.8 - 1)
        assert better.power_reduction_vs(baseline) == pytest.approx(0.0)
        assert better.energy_reduction_vs(baseline) == pytest.approx(0.1)
        assert better.edp_improvement_over(baseline) > 0

    def test_edp_helper_validation(self):
        with pytest.raises(ValueError):
            energy_delay_product(-1.0, 1.0)

    def test_invalid_metrics_rejected(self):
        with pytest.raises(ValueError):
            EnergyMetrics(energy_joules=1.0, execution_time_seconds=0.0)
