"""SoC components and their power-relevant parameters.

Each component corresponds to a block in Fig. 1 of the paper.  Components carry the
parameters the power and performance models need (effective capacitance, leakage
coefficient, rail assignment, clock), but contain no policy: policies live in
``repro.core`` and ``repro.baselines``, power equations in ``repro.power`` and
``repro.memory.power``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import config
from repro.soc.vf_curves import VFCurve, PStateTable
from repro.soc.vr import RailName


@dataclass
class Component:
    """Base class for every clocked block on the SoC.

    Parameters
    ----------
    name:
        Human-readable block name (e.g. ``"cpu_cluster"``).
    rail:
        The voltage rail feeding the block (Fig. 1).
    ceff:
        Effective switching capacitance in farads, used for dynamic power
        ``P = ceff * V^2 * f * activity``.
    leakage_coeff:
        Leakage coefficient ``k`` in ``P_leak = k * V^2`` (watts at 1 V).
    vf_curve:
        Minimum-voltage curve of the block, if it is independently clocked.
    """

    name: str
    rail: RailName
    ceff: float = 0.0
    leakage_coeff: float = 0.0
    vf_curve: Optional[VFCurve] = None

    def __post_init__(self) -> None:
        if self.ceff < 0 or self.leakage_coeff < 0:
            raise ValueError("power coefficients must be non-negative")

    def dynamic_power(self, voltage: float, frequency: float, activity: float = 1.0) -> float:
        """Dynamic (switching) power in watts: ``ceff * V^2 * f * activity``."""
        if voltage < 0 or frequency < 0:
            raise ValueError("voltage and frequency must be non-negative")
        activity = min(max(activity, 0.0), 1.0)
        return self.ceff * voltage * voltage * frequency * activity

    def leakage_power(self, voltage: float) -> float:
        """Static (leakage) power in watts: ``k * V^2``."""
        if voltage < 0:
            raise ValueError("voltage must be non-negative")
        return self.leakage_coeff * voltage * voltage

    def total_power(self, voltage: float, frequency: float, activity: float = 1.0) -> float:
        """Dynamic plus leakage power in watts."""
        return self.dynamic_power(voltage, frequency, activity) + self.leakage_power(voltage)


@dataclass
class CpuCluster(Component):
    """The CPU cores of the compute domain (2 cores / 4 threads on the M-6Y75)."""

    core_count: int = config.SKYLAKE_CORE_COUNT
    threads_per_core: int = config.SKYLAKE_THREADS_PER_CORE
    base_frequency: float = config.SKYLAKE_CPU_BASE_FREQUENCY
    pstates: Optional[PStateTable] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.core_count <= 0 or self.threads_per_core <= 0:
            raise ValueError("core and thread counts must be positive")

    def cluster_power(
        self,
        voltage: float,
        frequency: float,
        active_cores: Optional[int] = None,
        activity: float = 1.0,
    ) -> float:
        """Power of the cluster with ``active_cores`` cores running at ``frequency``.

        Idle cores contribute only leakage (they are clock-gated).  ``ceff`` and
        ``leakage_coeff`` are per-core values.
        """
        if active_cores is None:
            active_cores = self.core_count
        active_cores = min(max(active_cores, 0), self.core_count)
        dynamic = active_cores * self.dynamic_power(voltage, frequency, activity)
        leakage = self.core_count * self.leakage_power(voltage)
        return dynamic + leakage


@dataclass
class GraphicsEngine(Component):
    """The integrated graphics engine slice of the compute domain."""

    base_frequency: float = config.SKYLAKE_GFX_BASE_FREQUENCY
    pstates: Optional[PStateTable] = None


@dataclass
class Uncore(Component):
    """The LLC and ring/mesh fabric shared by cores and graphics."""

    llc_bytes: int = config.SKYLAKE_LLC_BYTES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.llc_bytes <= 0:
            raise ValueError("LLC capacity must be positive")


@dataclass
class DisplayEngine(Component):
    """The display controller of the IO domain.

    Its memory-bandwidth demand is *static*: it depends only on the number of
    attached panels and their resolution / refresh rate (Sec. 4.2), which the
    demand-prediction mechanism reads from configuration registers.
    """

    max_panels: int = 3


@dataclass
class IspEngine(Component):
    """The image-signal-processing (camera) engine of the IO domain."""

    max_cameras: int = 2


@dataclass
class IoInterconnect(Component):
    """The IO interconnect shared by the IO controllers (Fig. 1).

    The interconnect frequency is scaled together with the memory subsystem
    because it shares the V_SA rail with the memory controller (Sec. 3).
    """

    high_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY
    low_frequency: float = config.IO_INTERCONNECT_LOW_FREQUENCY


@dataclass
class MemoryControllerComponent(Component):
    """The memory controller, housed in the system agent (V_SA rail)."""


@dataclass
class DdrioInterface(Component):
    """The DRAM interface (DDRIO).

    The digital part sits on the V_IO rail and is scaled by SysScale together with
    the memory subsystem; the analog part shares VDDQ with the DRAM devices and is
    not voltage-scaled (Sec. 2.4).
    """

    analog_rail: RailName = RailName.VDDQ
