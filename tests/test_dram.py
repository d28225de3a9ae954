"""Tests for DRAM timings and the DRAM device model."""

import pytest

from repro import config
from repro.memory.dram import (
    DramDevice,
    DramOrganization,
    DramTechnology,
    SelfRefreshError,
    ddr4_device,
    lpddr3_device,
)
from repro.memory.timings import DramTimings, timings_for_frequency


class TestTimings:
    def test_peak_bandwidth_matches_paper(self):
        timings = timings_for_frequency(1.6e9, "lpddr3")
        assert timings.peak_bandwidth == pytest.approx(25.6e9)

    def test_lower_frequency_lower_bandwidth(self):
        high = timings_for_frequency(1.6e9, "lpddr3")
        low = timings_for_frequency(1.06e9, "lpddr3")
        assert low.peak_bandwidth < high.peak_bandwidth

    def test_burst_duration_scales_inversely_with_rate(self):
        high = timings_for_frequency(1.6e9, "lpddr3")
        low = timings_for_frequency(0.8e9, "lpddr3")
        assert low.burst_duration == pytest.approx(2 * high.burst_duration)

    def test_quantization_never_reduces_latency(self):
        for frequency in config.LPDDR3_FREQUENCY_BINS:
            timings = timings_for_frequency(frequency, "lpddr3")
            assert timings.trcd >= 18e-9 - 1e-12
            assert timings.tcl >= 15e-9 - 1e-12

    def test_row_miss_slower_than_row_hit(self):
        timings = timings_for_frequency(1.6e9, "lpddr3")
        assert timings.row_miss_latency > timings.row_hit_latency

    def test_average_latency_between_hit_and_miss(self):
        timings = timings_for_frequency(1.6e9, "lpddr3")
        average = timings.average_access_latency(0.5)
        assert timings.row_hit_latency < average < timings.row_miss_latency

    def test_unknown_technology_rejected(self):
        with pytest.raises(ValueError):
            timings_for_frequency(1.6e9, "gddr7")

    def test_invalid_hit_rate_rejected(self):
        timings = timings_for_frequency(1.6e9, "lpddr3")
        with pytest.raises(ValueError):
            timings.average_access_latency(1.5)

    def test_ddr4_timings_exist_for_all_bins(self):
        for frequency in config.DDR4_FREQUENCY_BINS:
            timings = timings_for_frequency(frequency, "ddr4")
            assert isinstance(timings, DramTimings)


class TestDramDevice:
    def test_default_bin_is_highest(self):
        device = lpddr3_device()
        assert device.current_frequency == pytest.approx(1.6e9)

    def test_bin_navigation(self):
        device = lpddr3_device()
        assert device.next_lower_bin() == pytest.approx(1.06e9)
        assert device.next_lower_bin(0.8e9) is None

    def test_supports_only_discrete_bins(self):
        device = lpddr3_device()
        assert device.supports_frequency(1.06e9)
        assert not device.supports_frequency(1.3e9)

    def test_frequency_change_requires_self_refresh(self):
        device = lpddr3_device()
        with pytest.raises(SelfRefreshError):
            device.set_frequency(1.06e9)

    def test_frequency_change_in_self_refresh(self):
        device = lpddr3_device()
        device.enter_self_refresh()
        device.set_frequency(1.06e9)
        exit_latency = device.exit_self_refresh()
        assert device.current_frequency == pytest.approx(1.06e9)
        assert exit_latency <= config.TRANSITION_SELF_REFRESH_EXIT_LATENCY
        assert device.frequency_switch_count == 1

    def test_unsupported_frequency_rejected(self):
        device = lpddr3_device()
        device.enter_self_refresh()
        with pytest.raises(ValueError):
            device.set_frequency(1.3e9)

    def test_double_self_refresh_entry_rejected(self):
        device = lpddr3_device()
        device.enter_self_refresh()
        with pytest.raises(SelfRefreshError):
            device.enter_self_refresh()

    def test_exit_without_entry_rejected(self):
        device = lpddr3_device()
        with pytest.raises(SelfRefreshError):
            device.exit_self_refresh()

    def test_slow_exit_without_fast_training(self):
        device = lpddr3_device()
        device.enter_self_refresh()
        assert device.exit_self_refresh(fast_training=False) > config.TRANSITION_SELF_REFRESH_EXIT_LATENCY

    def test_peak_bandwidth_per_bin(self):
        device = lpddr3_device()
        assert device.peak_bandwidth(1.6e9) == pytest.approx(25.6e9)
        assert device.peak_bandwidth(1.06e9) == pytest.approx(16.96e9)

    def test_ddr4_device_bins(self):
        device = ddr4_device()
        assert device.technology is DramTechnology.DDR4
        assert device.max_frequency == pytest.approx(2.13e9)

    def test_organization_validation(self):
        with pytest.raises(ValueError):
            DramOrganization(ranks=0)

    def test_describe(self):
        device = lpddr3_device()
        summary = device.describe()
        assert summary["technology"] == "lpddr3"
        assert summary["channels"] == 2

    def test_device_requires_bins(self):
        with pytest.raises(ValueError):
            DramDevice(technology=DramTechnology.LPDDR3, frequency_bins=())
