"""Tests for SysScale's core components: operating points, thresholds, demand
prediction, holistic algorithm, transition flow, and the controller."""

import pytest

from repro import config
from repro.baselines.fixed import FixedBaselinePolicy
from repro.core.algorithm import HolisticPowerAlgorithm
from repro.core.demand import DemandPredictor, evaluate_prediction_quality
from repro.core.flow import TransitionFlow
from repro.core.operating_points import (
    OperatingPoint,
    OperatingPointTable,
    build_ddr4_operating_points,
    build_default_operating_points,
    operating_points_for,
)
from repro.core.sysscale import SysScaleController, default_thresholds
from repro.core.thresholds import ThresholdCalibrator
from repro.perf.counters import CounterName, CounterSample
from repro.runtime.jobs import PlatformSpec, platform_for
from repro.sim.engine import SimulationEngine
from repro.sim.policy import StaticDemandInfo
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS
from repro.workloads.microbenchmarks import compute_only_microbenchmark
from repro.workloads.spec2006 import spec_workload


def _sample(gfx=0.0, occupancy=0.0, stalls=0.0, io=0.0):
    return CounterSample(
        values={
            CounterName.GFX_LLC_MISSES: gfx,
            CounterName.LLC_OCCUPANCY_TRACER: occupancy,
            CounterName.LLC_STALLS: stalls,
            CounterName.IO_RPQ: io,
        }
    )


class TestOperatingPoints:
    def test_default_table_matches_table1(self, platform):
        table = build_default_operating_points(platform)
        assert len(table) == 2
        assert table.high.dram_frequency == pytest.approx(1.6e9)
        assert table.low.dram_frequency == pytest.approx(1.06e9)
        assert table.low.v_sa_scale == pytest.approx(config.V_SA_LOW_SCALE)
        assert table.low.v_io_scale == pytest.approx(config.V_IO_LOW_SCALE)

    def test_three_point_table(self, platform):
        table = build_default_operating_points(platform, include_lowest_bin=True)
        assert len(table) == 3
        assert table.low.dram_frequency == pytest.approx(0.8e9)

    def test_navigation(self, operating_points):
        assert operating_points.next_lower(operating_points.high) is operating_points.low
        assert operating_points.next_higher(operating_points.low) is operating_points.high
        assert operating_points.next_lower(operating_points.low) is operating_points.low

    def test_low_point_provisioned_power_is_smaller(self, platform, operating_points):
        assert operating_points.low.provisioned_io_memory_power(
            platform
        ) < operating_points.high.provisioned_io_memory_power(platform)

    def test_to_action_round_trip(self, platform, operating_points):
        action = operating_points.low.to_action(platform)
        assert action.dram_frequency == pytest.approx(1.06e9)
        assert action.io_memory_budget > 0

    def test_ddr4_table(self):
        table = build_ddr4_operating_points()
        assert table.high.dram_frequency == pytest.approx(1.86e9)
        assert table.low.dram_frequency == pytest.approx(1.33e9)

    def test_duplicate_frequencies_rejected(self):
        point = OperatingPoint("a", 1.6e9, 0.8e9, 1.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPointTable(points=[point, OperatingPoint("b", 1.6e9, 0.4e9, 0.9, 0.9)])


class TestThresholds:
    def test_boundary_thresholds_are_positive(self, thresholds):
        for name in CounterName:
            assert thresholds[name] > 0

    def test_compute_bound_workload_below_thresholds(self, platform, operating_points, thresholds):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        counters = calibrator.measure_counters(spec_workload("416.gamess"))
        assert not thresholds.any_exceeded(counters)

    def test_memory_bound_workload_exceeds_thresholds(self, platform, operating_points, thresholds):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        counters = calibrator.measure_counters(spec_workload("470.lbm"))
        assert thresholds.any_exceeded(counters)

    def test_degradation_measurement_orders_workloads(self, platform, operating_points):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        assert calibrator.measure_degradation(
            spec_workload("470.lbm")
        ) > calibrator.measure_degradation(spec_workload("416.gamess"))


class TestDemandPredictor:
    def test_all_quiet_means_low_safe(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        prediction = predictor.predict(_sample())
        assert prediction.low_point_safe

    def test_each_condition_triggers_high(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        over = 10.0
        cases = {
            "gfx_bandwidth_limited": _sample(gfx=thresholds[CounterName.GFX_LLC_MISSES] * over),
            "cpu_bandwidth_limited": _sample(
                occupancy=thresholds[CounterName.LLC_OCCUPANCY_TRACER] * over
            ),
            "memory_latency_bound": _sample(stalls=thresholds[CounterName.LLC_STALLS] * over),
            "io_latency_bound": _sample(io=thresholds[CounterName.IO_RPQ] * over),
        }
        for condition, sample in cases.items():
            prediction = predictor.predict(sample)
            assert prediction.requires_high_point
            assert prediction.triggered_conditions[condition]

    def test_static_demand_condition(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        heavy_display = StaticDemandInfo(peripherals=STANDARD_CONFIGURATIONS["single_4k"])
        prediction = predictor.predict(_sample(), heavy_display)
        assert prediction.requires_high_point
        assert prediction.triggered_conditions["static_bandwidth"]

    def test_hd_display_does_not_force_high_point(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        hd = StaticDemandInfo(peripherals=STANDARD_CONFIGURATIONS["single_hd"])
        assert predictor.predict(_sample(), hd).low_point_safe

    def test_prediction_statistics(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        predictor.predict(_sample())
        predictor.predict(_sample(stalls=1e9))
        assert predictor.prediction_count == 2
        assert predictor.low_prediction_fraction == pytest.approx(0.5)

    def test_quality_evaluation(self):
        quality = evaluate_prediction_quality([True, False, True], [True, False, False])
        assert quality.accuracy == pytest.approx(2 / 3)
        assert quality.false_positives == 1
        with pytest.raises(ValueError):
            evaluate_prediction_quality([True], [True, False])


class TestHolisticAlgorithm:
    def test_starts_high_and_drops_when_quiet(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        assert algorithm.reset() is operating_points.high
        decision = algorithm.decide(_sample())
        assert decision.operating_point is operating_points.low
        assert decision.changed

    def test_returns_high_under_pressure(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        algorithm.reset()
        algorithm.decide(_sample())
        decision = algorithm.decide(_sample(stalls=1e9))
        assert decision.operating_point is operating_points.high
        assert algorithm.transition_count == 2

    def test_low_point_enlarges_compute_budget(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        algorithm.reset()
        low_decision = algorithm.decide(_sample())
        high_decision = algorithm.decide(_sample(stalls=1e9))
        assert low_decision.compute_budget > high_decision.compute_budget


class TestTransitionFlow:
    @pytest.fixture
    def flow(self):
        from repro.sim.platform import build_platform

        platform = build_platform()
        points = build_default_operating_points(platform)
        return (
            TransitionFlow(
                rails=platform.soc.rails,
                interconnect=platform.soc.interconnect_fabric,
                dram=platform.dram,
                mrc_sram=platform.mrc_sram,
                mrc_registers=platform.mrc_registers,
            ),
            points,
            platform,
        )

    def test_down_transition_within_budget(self, flow):
        transition_flow, points, _ = flow
        report = transition_flow.execute(points.high, points.low)
        assert report.within_budget
        assert report.mrc_reloaded
        assert not report.increasing_frequency

    def test_up_transition_raises_voltage_first(self, flow):
        transition_flow, points, _ = flow
        transition_flow.execute(points.high, points.low)
        report = transition_flow.execute(points.low, points.high)
        assert report.increasing_frequency
        assert report.step_latencies[list(report.step_latencies)[1]] >= 0

    def test_flow_updates_hardware_state(self, flow):
        transition_flow, points, platform = flow
        transition_flow.execute(points.high, points.low)
        assert platform.dram.current_frequency == pytest.approx(1.06e9)
        assert platform.mrc_registers.is_optimized_for(1.06e9)
        assert platform.soc.interconnect_fabric.frequency == pytest.approx(0.4e9)
        transition_flow.execute(points.low, points.high)
        assert platform.dram.current_frequency == pytest.approx(1.6e9)

    def test_estimate_close_to_actual(self, flow):
        transition_flow, points, _ = flow
        estimate = transition_flow.estimate_latency(points.high, points.low)
        report = transition_flow.execute(points.high, points.low)
        assert estimate == pytest.approx(report.total_latency, rel=0.5)


class TestSysScaleController:
    def test_compute_bound_workload_reaches_low_point(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        trace = compute_only_microbenchmark(duration=0.3)
        result = engine.run(trace, controller)
        assert result.low_point_residency > 0.7

    def test_memory_bound_workload_stays_high(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        trace = spec_workload("470.lbm", duration=0.3)
        result = engine.run(trace, controller)
        assert result.low_point_residency == 0.0

    def test_sysscale_never_slows_down_memory_bound_workloads(self, platform, thresholds, engine):
        trace = spec_workload("433.milc", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform, thresholds=thresholds))
        assert sysscale.performance_improvement_over(baseline) >= -0.01

    def test_sysscale_speeds_up_compute_bound_workloads(self, platform, thresholds, engine):
        trace = spec_workload("416.gamess", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform, thresholds=thresholds))
        assert sysscale.performance_improvement_over(baseline) > 0.05

    def test_default_points_match_a_ddr4_platform(self):
        """Without a table, the controller and the calibration take the one
        matched to the platform's DRAM; LPDDR3 points are no bins of DDR4."""
        platform = platform_for(PlatformSpec(dram="ddr4"))
        controller = SysScaleController(platform=platform)
        points = operating_points_for(platform)
        assert controller.operating_points == points
        assert controller.thresholds == default_thresholds(platform, points)
        assert default_thresholds(platform) == controller.thresholds
        trace = spec_workload("416.gamess", duration=0.3)
        result = SimulationEngine(platform).run(trace, controller)
        assert result.transitions >= 1
        assert result.low_point_residency > 0

    def test_transition_reports_accumulate(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        engine.run(spec_workload("473.astar", duration=0.3), controller)
        assert controller.algorithm.transition_count >= 1

    def test_steady_action_equals_a_fresh_build(self, platform, thresholds, engine):
        """A decision that keeps the operating point reuses the action built
        since the last transition; it must equal one built at that moment."""
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        decide = controller.decide
        steady = []

        def checked_decide(observation):
            action = decide(observation)
            decision = controller.algorithm.decisions[-1]
            if not decision.changed:
                point = decision.operating_point
                assert action == point.to_action(
                    controller.platform,
                    transition_latency=controller.flow.estimate_latency(point, point),
                    io_memory_budget=decision.io_memory_budget,
                )
                steady.append(action)
            return action

        controller.decide = checked_decide
        engine.run(spec_workload("473.astar", duration=0.3), controller)
        assert controller.algorithm.transition_count >= 1
        assert any(a is b for a, b in zip(steady, steady[1:]))
