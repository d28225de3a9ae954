"""Tests for V/F curves and P-state tables."""

import pytest

from repro import config
from repro.power.pstates import build_cpu_pstates, build_cpu_vf_curve, build_gfx_pstates
from repro.soc.vf_curves import PState, PStateTable, VFCurve, VFCurveError


@pytest.fixture
def curve():
    return VFCurve.from_points([(0.4e9, 0.58), (1.2e9, 0.65), (2.9e9, 1.02)])


class TestVFCurve:
    def test_requires_two_points(self):
        with pytest.raises(VFCurveError):
            VFCurve(points=((1e9, 0.6),))

    def test_rejects_non_monotonic_voltage(self):
        with pytest.raises(VFCurveError):
            VFCurve.from_points([(1e9, 0.8), (2e9, 0.7)])

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(VFCurveError):
            VFCurve.from_points([(1e9, 0.6), (1e9, 0.7)])

    def test_vmin_and_fmax(self, curve):
        assert curve.vmin == pytest.approx(0.58)
        assert curve.fmax == pytest.approx(2.9e9)

    def test_voltage_below_fmin_is_floor(self, curve):
        assert curve.voltage_at(0.1e9) == pytest.approx(0.58)

    def test_voltage_interpolates(self, curve):
        v = curve.voltage_at(0.8e9)
        assert 0.58 < v < 0.65

    def test_voltage_at_known_point(self, curve):
        assert curve.voltage_at(1.2e9) == pytest.approx(0.65)

    def test_voltage_above_fmax_raises(self, curve):
        with pytest.raises(VFCurveError):
            curve.voltage_at(3.5e9)

    def test_voltage_monotone_in_frequency(self, curve):
        frequencies = [0.4e9, 0.8e9, 1.2e9, 2.0e9, 2.9e9]
        voltages = [curve.voltage_at(f) for f in frequencies]
        assert voltages == sorted(voltages)


class TestPStateTable:
    def test_from_curve_orders_states(self, curve):
        table = PStateTable.from_curve(curve, [2.9e9, 0.4e9, 1.2e9])
        assert table.min_state.frequency == pytest.approx(0.4e9)
        assert table.max_state.frequency == pytest.approx(2.9e9)

    def test_names_follow_convention(self, curve):
        table = PStateTable.from_curve(curve, [0.4e9, 1.2e9, 2.9e9])
        assert table.max_state.name == "P0"
        assert table.min_state.name == "P2"

    def test_pn_is_max_frequency_at_vmin(self):
        table = build_cpu_pstates()
        pn = table.pn
        assert pn.voltage == pytest.approx(table.min_state.voltage)
        assert pn.frequency >= table.min_state.frequency

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            PStateTable(states=[])

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            PStateTable(states=[PState("a", 1e9, 0.6), PState("b", 1e9, 0.7)])


class TestDefaultTables:
    def test_cpu_table_spans_base_to_turbo(self):
        table = build_cpu_pstates()
        assert table.min_state.frequency <= config.SKYLAKE_CPU_BASE_FREQUENCY
        assert table.max_state.frequency == pytest.approx(2.9e9)

    def test_gfx_table_starts_at_300mhz(self):
        table = build_gfx_pstates()
        assert table.min_state.frequency == pytest.approx(300e6)

    def test_cpu_curve_voltage_rises_with_frequency(self):
        curve = build_cpu_vf_curve()
        assert curve.voltage_at(2.9e9) > curve.voltage_at(1.2e9)
