"""Skylake M-6Y75 SoC description (Table 2).

``SkylakeSoC`` is the structural description of the evaluation platform: the three
domains and their components, the voltage-rail structure of Fig. 1, the attached
DRAM device, and the compute-domain P-state tables.  Power and performance models
are layered on top of this description by :mod:`repro.sim.platform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import config
from repro.memory.dram import DramDevice, lpddr3_device
# Submodule import (not the package __init__) to keep the soc <-> power import
# graph acyclic.
from repro.power.pstates import (
    build_cpu_pstates,
    build_cpu_vf_curve,
    build_gfx_pstates,
    build_gfx_vf_curve,
)
from repro.soc.components import (
    CpuCluster,
    DdrioInterface,
    DisplayEngine,
    GraphicsEngine,
    IoInterconnect,
    IspEngine,
    MemoryControllerComponent,
    Uncore,
)
from repro.soc.domains import Domain, DomainKind, SoCState
from repro.soc.interconnect import BlockDrainInterconnect
from repro.soc.vf_curves import PStateTable, VFCurve
from repro.soc.vr import RailName, RailSet, build_default_rails


@dataclass
class SkylakeSoC:
    """A Skylake-class mobile SoC: domains, components, rails, DRAM, P-states.

    Parameters mirror Table 2 of the paper; ``tdp`` is configurable across the
    3.5 W - 7 W cTDP range of the M-6Y75 (and beyond, for the Fig. 10 sweep).
    """

    name: str = "Intel Core M-6Y75 (Skylake)"
    tdp: float = config.SKYLAKE_DEFAULT_TDP
    cpu: CpuCluster = field(default_factory=lambda: _default_cpu())
    gfx: GraphicsEngine = field(default_factory=lambda: _default_gfx())
    uncore: Uncore = field(default_factory=lambda: _default_uncore())
    display: DisplayEngine = field(default_factory=lambda: _default_display())
    isp: IspEngine = field(default_factory=lambda: _default_isp())
    io_interconnect: IoInterconnect = field(default_factory=lambda: _default_interconnect())
    memory_controller: MemoryControllerComponent = field(default_factory=lambda: _default_mc())
    ddrio: DdrioInterface = field(default_factory=lambda: _default_ddrio())
    dram: DramDevice = field(default_factory=lpddr3_device)
    rails: RailSet = field(default_factory=build_default_rails)
    cpu_curve: VFCurve = field(default_factory=build_cpu_vf_curve)
    gfx_curve: VFCurve = field(default_factory=build_gfx_vf_curve)
    cpu_pstates: PStateTable = field(default_factory=build_cpu_pstates)
    gfx_pstates: PStateTable = field(default_factory=build_gfx_pstates)
    interconnect_fabric: BlockDrainInterconnect = field(
        default_factory=BlockDrainInterconnect
    )
    process_node_nm: int = 14

    def __post_init__(self) -> None:
        if self.tdp <= 0:
            raise ValueError("TDP must be positive")
        self._domains = self._build_domains()

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def _build_domains(self) -> Dict[DomainKind, Domain]:
        compute = Domain(kind=DomainKind.COMPUTE)
        compute.add(self.cpu)
        compute.add(self.gfx)
        compute.add(self.uncore)

        io = Domain(kind=DomainKind.IO)
        io.add(self.display)
        io.add(self.isp)
        io.add(self.io_interconnect)

        memory = Domain(kind=DomainKind.MEMORY)
        memory.add(self.memory_controller)
        memory.add(self.ddrio)
        return {DomainKind.COMPUTE: compute, DomainKind.IO: io, DomainKind.MEMORY: memory}

    def domain(self, kind: DomainKind) -> Domain:
        """The :class:`Domain` of the given kind."""
        return self._domains[kind]

    @property
    def domains(self) -> Dict[DomainKind, Domain]:
        """All three domains keyed by kind."""
        return dict(self._domains)

    # ------------------------------------------------------------------
    # Default state and derived properties
    # ------------------------------------------------------------------
    def default_state(self, tdp: Optional[float] = None) -> SoCState:
        """The high-operating-point state the SoC boots into.

        DRAM runs at its default (highest) bin, the interconnect at its high clock,
        both shared rails at nominal voltage, and the compute domain at its base
        frequencies (the PBM raises them as budget allows).
        """
        del tdp  # the state itself is TDP-independent; the PBM applies the TDP
        return SoCState(
            cpu_frequency=self.cpu.base_frequency,
            gfx_frequency=self.gfx.base_frequency,
            dram_frequency=self.dram.max_frequency,
            interconnect_frequency=self.io_interconnect.high_frequency,
            v_sa_scale=1.0,
            v_io_scale=1.0,
            v_core=self.cpu_curve.voltage_at(self.cpu.base_frequency),
            v_gfx=self.gfx_curve.voltage_at(self.gfx.base_frequency),
            mrc_optimized=True,
            dram_in_self_refresh=False,
            active_cores=self.cpu.core_count,
        )

    @property
    def peak_memory_bandwidth(self) -> float:
        """Peak theoretical memory bandwidth at the default DRAM bin (bytes/s)."""
        return self.dram.peak_bandwidth(self.dram.max_frequency)

    def describe(self) -> dict:
        """Flat summary corresponding to Table 2."""
        return {
            "name": self.name,
            "tdp_w": self.tdp,
            "cpu_cores": self.cpu.core_count,
            "cpu_threads": self.cpu.core_count * self.cpu.threads_per_core,
            "cpu_base_frequency_ghz": self.cpu.base_frequency / config.GHZ,
            "gfx_base_frequency_mhz": self.gfx.base_frequency / config.MHZ,
            "llc_mib": self.uncore.llc_bytes / (1024 * 1024),
            "process_node_nm": self.process_node_nm,
            "dram": self.dram.describe(),
        }


# ----------------------------------------------------------------------
# Component factories (calibration constants from repro.config)
# ----------------------------------------------------------------------

def _default_cpu() -> CpuCluster:
    return CpuCluster(
        name="cpu_cluster",
        rail=RailName.V_CORE,
        ceff=config.CPU_CORE_CEFF,
        leakage_coeff=config.CPU_CORE_LEAKAGE_COEFF,
        core_count=config.SKYLAKE_CORE_COUNT,
        threads_per_core=config.SKYLAKE_THREADS_PER_CORE,
        base_frequency=config.SKYLAKE_CPU_BASE_FREQUENCY,
    )


def _default_gfx() -> GraphicsEngine:
    return GraphicsEngine(
        name="graphics_engine",
        rail=RailName.V_GFX,
        ceff=config.GFX_CEFF,
        leakage_coeff=config.GFX_LEAKAGE_COEFF,
        base_frequency=config.SKYLAKE_GFX_BASE_FREQUENCY,
    )


def _default_uncore() -> Uncore:
    return Uncore(
        name="uncore",
        rail=RailName.V_CORE,
        ceff=config.UNCORE_CEFF,
        leakage_coeff=config.UNCORE_LEAKAGE_COEFF,
        llc_bytes=config.SKYLAKE_LLC_BYTES,
    )


def _default_display() -> DisplayEngine:
    return DisplayEngine(name="display_engine", rail=RailName.V_SA)


def _default_isp() -> IspEngine:
    return IspEngine(name="isp_engine", rail=RailName.V_SA)


def _default_interconnect() -> IoInterconnect:
    return IoInterconnect(name="io_interconnect", rail=RailName.V_SA)


def _default_mc() -> MemoryControllerComponent:
    return MemoryControllerComponent(name="memory_controller", rail=RailName.V_SA)


def _default_ddrio() -> DdrioInterface:
    return DdrioInterface(name="ddrio", rail=RailName.V_IO)


def build_skylake_soc(
    tdp: float = config.SKYLAKE_DEFAULT_TDP,
    dram: Optional[DramDevice] = None,
) -> SkylakeSoC:
    """Construct the Skylake M-6Y75 evaluation platform of Table 2.

    Spec-driven: the knobs derive the registered ``skylake``
    :class:`~repro.hw.spec.HardwareSpec` and the SoC is materialized from the
    description, so this builder and ``repro.hw`` can never drift apart.  (The
    raw ``SkylakeSoC()`` dataclass defaults remain the independent ground
    truth the regression tests compare the spec path against.)

    Parameters
    ----------
    tdp:
        Configurable thermal design power (4.5 W default, 3.5-7 W cTDP range,
        up to 91 W for the Fig. 10 discussion of desktop parts).
    dram:
        DRAM device to attach (defaults to dual-channel LPDDR3-1600, 8 GB).
    """
    # Deferred import: repro.hw.build imports this module for SkylakeSoC.
    from repro.hw.build import soc_from_spec
    from repro.hw.registry import SKYLAKE

    spec = SKYLAKE.derive(tdp=tdp)
    if dram is not None:
        spec = spec.derive(dram=dram)
    return soc_from_spec(spec)
