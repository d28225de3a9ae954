"""Tests for SoC components, domains, and the SoC state object."""

import pytest

from repro import config
from repro.soc.components import Component, CpuCluster
from repro.soc.domains import Domain, DomainKind, SoCState
from repro.soc.skylake import build_skylake_soc
from repro.soc.broadwell import build_broadwell_soc
from repro.soc.vr import RailName


class TestComponentPower:
    def test_dynamic_power_scales_with_v_squared_f(self):
        component = Component(name="x", rail=RailName.V_SA, ceff=1e-9, leakage_coeff=0.1)
        base = component.dynamic_power(0.7, 1e9)
        assert component.dynamic_power(1.4, 1e9) == pytest.approx(4 * base)
        assert component.dynamic_power(0.7, 2e9) == pytest.approx(2 * base)

    def test_activity_clamped(self):
        component = Component(name="x", rail=RailName.V_SA, ceff=1e-9)
        assert component.dynamic_power(0.7, 1e9, activity=2.0) == pytest.approx(
            component.dynamic_power(0.7, 1e9, activity=1.0)
        )

    def test_leakage_scales_with_v_squared(self):
        component = Component(name="x", rail=RailName.V_SA, leakage_coeff=0.2)
        assert component.leakage_power(1.0) == pytest.approx(0.2)
        assert component.leakage_power(0.5) == pytest.approx(0.05)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Component(name="x", rail=RailName.V_SA, ceff=-1e-9)

    def test_cluster_power_idle_cores_only_leak(self):
        cpu = CpuCluster(
            name="cpu", rail=RailName.V_CORE, ceff=1e-9, leakage_coeff=0.1, core_count=2
        )
        one_core = cpu.cluster_power(0.7, 1e9, active_cores=1)
        two_cores = cpu.cluster_power(0.7, 1e9, active_cores=2)
        assert two_cores > one_core
        assert two_cores - one_core == pytest.approx(cpu.dynamic_power(0.7, 1e9))


class TestDomains:
    def test_skylake_has_three_domains(self):
        soc = build_skylake_soc()
        assert set(soc.domains) == {DomainKind.COMPUTE, DomainKind.IO, DomainKind.MEMORY}

    def test_compute_domain_members(self):
        soc = build_skylake_soc()
        names = soc.domain(DomainKind.COMPUTE).names()
        assert "cpu_cluster" in names and "graphics_engine" in names

    def test_memory_domain_members(self):
        soc = build_skylake_soc()
        names = soc.domain(DomainKind.MEMORY).names()
        assert "memory_controller" in names and "ddrio" in names

    def test_duplicate_component_rejected(self):
        domain = Domain(kind=DomainKind.IO)
        component = Component(name="disp", rail=RailName.V_SA)
        domain.add(component)
        with pytest.raises(ValueError):
            domain.add(Component(name="disp", rail=RailName.V_SA))

    def test_component_lookup(self):
        soc = build_skylake_soc()
        assert soc.domain(DomainKind.IO).component("io_interconnect") is soc.io_interconnect
        with pytest.raises(KeyError):
            soc.domain(DomainKind.IO).component("nonexistent")


class TestSoCState:
    def test_default_state_is_high_point(self):
        soc = build_skylake_soc()
        state = soc.default_state()
        assert state.dram_frequency == pytest.approx(1.6e9)
        assert state.interconnect_frequency == pytest.approx(0.8e9)
        assert state.v_sa_scale == 1.0 and state.v_io_scale == 1.0
        assert state.mrc_optimized

    def test_mc_frequency_is_half_dram(self):
        state = SoCState()
        assert state.mc_frequency == pytest.approx(state.dram_frequency / 2)

    def test_with_updates_is_functional(self):
        state = SoCState()
        low = state.with_updates(dram_frequency=1.06e9, v_sa_scale=0.8)
        assert low.dram_frequency == pytest.approx(1.06e9)
        assert state.dram_frequency == pytest.approx(1.6e9)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SoCState(cpu_frequency=-1)
        with pytest.raises(ValueError):
            SoCState(v_sa_scale=0.0)

    def test_describe_round_trips_key_fields(self):
        state = SoCState()
        described = state.describe()
        assert described["dram_frequency_ghz"] == pytest.approx(1.6)
        assert described["cpu_frequency_ghz"] == pytest.approx(1.2)


class TestSoCDescriptions:
    def test_skylake_describe_matches_table2(self):
        soc = build_skylake_soc()
        summary = soc.describe()
        assert summary["tdp_w"] == pytest.approx(4.5)
        assert summary["cpu_cores"] == 2
        assert summary["llc_mib"] == pytest.approx(4.0)
        assert summary["dram"]["peak_bandwidth_gbps"] == pytest.approx(25.6)

    def test_broadwell_differs_in_name_only_structurally(self):
        broadwell = build_broadwell_soc()
        assert "Broadwell" in broadwell.name
        assert broadwell.cpu.core_count == config.SKYLAKE_CORE_COUNT

    def test_invalid_tdp_rejected(self):
        with pytest.raises(ValueError):
            build_skylake_soc(tdp=-1)
