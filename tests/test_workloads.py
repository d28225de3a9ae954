"""Tests for workload traces: SPEC, graphics, battery-life, microbenchmarks, IO devices."""

import pytest

from repro import config
from repro.workloads.batterylife import BATTERY_LIFE_WORKLOADS, battery_life_suite, battery_life_workload
from repro.workloads.graphics import GRAPHICS_BENCHMARKS, graphics_suite, graphics_workload
from repro.workloads.io_devices import (
    CameraConfiguration,
    DisplayConfiguration,
    DisplayResolution,
    PeripheralConfiguration,
    STANDARD_CONFIGURATIONS,
)
from repro.workloads.microbenchmarks import peak_bandwidth_microbenchmark
from repro.workloads.spec2006 import (
    HIGHLY_SCALABLE_BENCHMARKS,
    MEMORY_BOUND_BENCHMARKS,
    MOTIVATION_BENCHMARKS,
    SPEC_CPU2006,
    spec_cpu2006_suite,
    spec_workload,
)
from repro.workloads.trace import Phase, PerformanceMetric, WorkloadClass


class TestPhase:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Phase(name="bad", duration=1.0, compute_fraction=0.5, other_fraction=0.6)

    def test_validation_names_offending_field(self):
        """Synthesis must fail loudly with the bad field (and phase) named."""
        with pytest.raises(ValueError, match=r"'bad'.*duration"):
            Phase(name="bad", duration=0.0, compute_fraction=1.0)
        with pytest.raises(ValueError, match=r"'bad'.*gfx_fraction"):
            Phase(
                name="bad", duration=1.0, compute_fraction=1.2,
                gfx_fraction=-0.2,
            )
        with pytest.raises(ValueError, match=r"'bad'.*sum to 1.*compute_fraction=0.5"):
            Phase(name="bad", duration=1.0, compute_fraction=0.5, other_fraction=0.6)
        with pytest.raises(ValueError, match=r"'bad'.*io_bandwidth_demand"):
            Phase(
                name="bad", duration=1.0, compute_fraction=1.0,
                io_bandwidth_demand=-1.0,
            )
        with pytest.raises(ValueError, match=r"'bad'.*gfx_activity"):
            Phase(name="bad", duration=1.0, compute_fraction=1.0, gfx_activity=1.5)
        with pytest.raises(ValueError, match=r"'bad'.*active_cores"):
            Phase(name="bad", duration=1.0, compute_fraction=1.0, active_cores=-1)

    def test_trace_validation_names_offending_field(self):
        from repro.workloads.trace import WorkloadTrace

        phase = Phase(name="p", duration=1.0, compute_fraction=1.0)
        with pytest.raises(ValueError, match=r"'bad'.*at least one phase"):
            WorkloadTrace(
                name="bad", workload_class=WorkloadClass.CPU_SINGLE_THREAD, phases=(),
            )
        with pytest.raises(ValueError, match=r"'bad'.*reference_dram_frequency"):
            WorkloadTrace(
                name="bad", workload_class=WorkloadClass.CPU_SINGLE_THREAD,
                phases=(phase,), reference_dram_frequency=0.0,
            )

    def test_memory_bandwidth_demand_is_sum(self):
        phase = Phase(
            name="p", duration=1.0, compute_fraction=1.0,
            cpu_bandwidth_demand=1e9, gfx_bandwidth_demand=2e9, io_bandwidth_demand=3e9,
        )
        assert phase.memory_bandwidth_demand == pytest.approx(6e9)

    def test_scalability_equals_compute_fraction(self):
        phase = Phase(name="p", duration=1.0, compute_fraction=0.7, other_fraction=0.3)
        assert phase.scalability_with_cpu_frequency == pytest.approx(0.7)

    def test_scaled_duration(self):
        phase = Phase(name="p", duration=2.0, compute_fraction=1.0)
        assert phase.scaled_duration(0.5).duration == pytest.approx(1.0)
        with pytest.raises(ValueError):
            phase.scaled_duration(0.0)


class TestSpecSuite:
    def test_suite_has_29_benchmarks(self):
        assert len(SPEC_CPU2006) == 29
        assert len(spec_cpu2006_suite()) == 29

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            spec_workload("999.nonexistent")

    def test_motivation_benchmarks_exist(self):
        for name in MOTIVATION_BENCHMARKS:
            assert name in SPEC_CPU2006

    def test_highly_scalable_benchmarks_are_compute_bound(self):
        for name in HIGHLY_SCALABLE_BENCHMARKS:
            assert spec_workload(name).cpu_frequency_scalability > 0.9

    def test_memory_bound_benchmarks_have_low_scalability(self):
        for name in MEMORY_BOUND_BENCHMARKS:
            assert spec_workload(name).cpu_frequency_scalability < 0.35

    def test_lbm_has_highest_class_of_bandwidth_demand(self):
        lbm = spec_workload("470.lbm")
        assert lbm.average_bandwidth_demand > config.gbps(9.0)

    def test_spiky_workloads_have_multiple_phases(self):
        astar = spec_workload("473.astar")
        assert len(astar.phases) > 1
        demands = {phase.memory_bandwidth_demand for phase in astar.phases}
        assert max(demands) > 3 * min(demands)

    def test_spiky_average_matches_characteristics(self):
        astar = spec_workload("473.astar")
        expected = config.gbps(SPEC_CPU2006["473.astar"].demand_gbps)
        assert astar.average_bandwidth_demand == pytest.approx(expected, rel=0.05)

    def test_durations_respected(self):
        trace = spec_workload("416.gamess", duration=2.5)
        assert trace.total_duration == pytest.approx(2.5)

    def test_all_traces_are_multi_thread_class(self):
        for trace in spec_cpu2006_suite(subset=("416.gamess", "470.lbm")):
            assert trace.workload_class is WorkloadClass.CPU_MULTI_THREAD


class TestGraphicsSuite:
    def test_three_benchmarks(self):
        assert len(GRAPHICS_BENCHMARKS) == 3
        assert len(graphics_suite()) == 3

    def test_graphics_traces_are_gfx_dominated(self):
        for trace in graphics_suite():
            assert trace.gfx_frequency_scalability > 0.5
            assert trace.is_graphics_centric

    def test_3dmark11_has_highest_bandwidth_demand(self):
        demands = {
            trace.name: trace.average_bandwidth_demand for trace in graphics_suite()
        }
        assert demands["3DMark11"] == max(demands.values())

    def test_metric_is_fps(self):
        assert graphics_workload("3DMark06").metric is PerformanceMetric.FRAMES_PER_SECOND

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            graphics_workload("3DMark99")


class TestBatteryLifeSuite:
    def test_four_workloads(self):
        assert len(BATTERY_LIFE_WORKLOADS) == 4
        assert len(battery_life_suite()) == 4

    def test_fixed_performance_flag(self):
        for trace in battery_life_suite():
            assert trace.has_fixed_performance_demand
            assert trace.metric is PerformanceMetric.AVERAGE_POWER

    def test_video_playback_residency_matches_paper(self):
        trace = battery_life_workload("video_playback")
        steady = trace.phases[0]
        assert steady.residency.active_fraction == pytest.approx(0.10)
        assert steady.residency.dram_active_fraction == pytest.approx(0.15)

    def test_active_residencies_within_paper_range(self):
        for trace in battery_life_suite():
            active = trace.phases[0].residency.active_fraction
            assert 0.10 <= active <= 0.40

    def test_web_browsing_is_burstier_than_playback(self):
        web = BATTERY_LIFE_WORKLOADS["web_browsing"].burst_share
        playback = BATTERY_LIFE_WORKLOADS["video_playback"].burst_share
        assert web > playback

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            battery_life_workload("cryptomining")


class TestIoDevices:
    def test_hd_display_is_17_percent_of_peak(self):
        display = DisplayConfiguration(DisplayResolution.HD, panel_count=1)
        assert display.bandwidth_demand / config.LPDDR3_PEAK_BANDWIDTH == pytest.approx(0.17)

    def test_4k_display_is_70_percent_of_peak(self):
        display = DisplayConfiguration(DisplayResolution.UHD_4K, panel_count=1)
        assert display.bandwidth_demand / config.LPDDR3_PEAK_BANDWIDTH == pytest.approx(0.70)

    def test_three_panels_triple_the_demand(self):
        one = DisplayConfiguration(DisplayResolution.HD, panel_count=1)
        three = DisplayConfiguration(DisplayResolution.HD, panel_count=3)
        assert three.bandwidth_demand == pytest.approx(3 * one.bandwidth_demand)

    def test_more_than_three_panels_rejected(self):
        with pytest.raises(ValueError):
            DisplayConfiguration(DisplayResolution.HD, panel_count=4)

    def test_camera_bandwidth_scales_with_cameras(self):
        one = CameraConfiguration(active_cameras=1)
        two = CameraConfiguration(active_cameras=2)
        assert two.bandwidth_demand == pytest.approx(2 * one.bandwidth_demand)

    def test_isochronous_detection(self):
        assert PeripheralConfiguration().has_isochronous_traffic  # default has a panel
        none = PeripheralConfiguration(display=DisplayConfiguration(panel_count=0))
        assert not none.has_isochronous_traffic

    def test_standard_configurations_ordering(self):
        demands = {
            name: cfg.static_bandwidth_demand for name, cfg in STANDARD_CONFIGURATIONS.items()
        }
        assert demands["single_4k"] > demands["triple_hd"] > demands["single_hd"]
        assert demands["no_display"] == 0.0


class TestMicrobenchmarksAndTimeline:
    def test_peak_bandwidth_microbenchmark_is_bandwidth_bound(self):
        trace = peak_bandwidth_microbenchmark()
        assert trace.phases[0].memory_bandwidth_fraction >= 0.85

    def test_bandwidth_timeline_covers_duration(self):
        trace = spec_workload("473.astar", duration=1.0)
        timeline = trace.bandwidth_timeline(sample_interval=0.05)
        assert timeline[0][0] == pytest.approx(0.0)
        assert timeline[-1][0] <= trace.total_duration
