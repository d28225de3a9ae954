"""SoC domains and the dynamic frequency/voltage state of the chip.

The paper partitions the SoC into three domains (Sec. 1, Fig. 1): compute, IO, and
memory.  ``Domain`` groups the components belonging to each; ``SoCState`` captures
the complete dynamic configuration of the chip at a point in time -- every clock and
every rail scale -- which is what the power and performance models consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro import config
from repro.soc.components import Component


class DomainKind(str, enum.Enum):
    """The three SoC domains of Fig. 1."""

    COMPUTE = "compute"
    IO = "io"
    MEMORY = "memory"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Domain:
    """A named group of components belonging to one SoC domain."""

    kind: DomainKind
    components: List[Component] = field(default_factory=list)

    def add(self, component: Component) -> None:
        """Attach a component to the domain."""
        if any(existing.name == component.name for existing in self.components):
            raise ValueError(f"component {component.name!r} already in domain {self.kind}")
        self.components.append(component)

    def component(self, name: str) -> Component:
        """Look a component up by name; raises ``KeyError`` if absent."""
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no component named {name!r} in domain {self.kind}")

    def names(self) -> List[str]:
        """Names of all components in the domain."""
        return [component.name for component in self.components]

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class SoCState:
    """The complete frequency/voltage configuration of the SoC at an instant.

    A state is immutable; policies derive new states with :meth:`with_updates`.
    Frequencies are in Hz, voltages are expressed as *scales* relative to the
    nominal rail voltage (1.0 at the high operating point), matching how the paper
    describes the MD-DVFS setup (Table 1: ``0.8 * V_SA``, ``0.85 * V_IO``).
    """

    cpu_frequency: float = config.SKYLAKE_CPU_BASE_FREQUENCY
    gfx_frequency: float = config.SKYLAKE_GFX_BASE_FREQUENCY
    dram_frequency: float = config.LPDDR3_FREQUENCY_BINS[0]
    interconnect_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY
    v_sa_scale: float = 1.0
    v_io_scale: float = 1.0
    v_core: float = 0.70
    v_gfx: float = 0.65
    mrc_optimized: bool = True
    dram_in_self_refresh: bool = False
    active_cores: int = config.SKYLAKE_CORE_COUNT

    def __post_init__(self) -> None:
        for name in ("cpu_frequency", "gfx_frequency", "dram_frequency", "interconnect_frequency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("v_sa_scale", "v_io_scale", "v_core", "v_gfx"):
            if not 0 < getattr(self, name) <= 1.5:
                raise ValueError(f"{name} must be in (0, 1.5]")
        if not 0 <= self.active_cores <= 64:
            raise ValueError("active_cores out of range")

    @property
    def mc_frequency(self) -> float:
        """Memory controller clock: half the DDR frequency (Sec. 3)."""
        return self.dram_frequency * config.MC_TO_DDR_FREQUENCY_RATIO

    def with_updates(self, **changes) -> "SoCState":
        """Return a copy of the state with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, float]:
        """A flat dictionary view useful for logging and result tables."""
        return {
            "cpu_frequency_ghz": self.cpu_frequency / config.GHZ,
            "gfx_frequency_mhz": self.gfx_frequency / config.MHZ,
            "dram_frequency_ghz": self.dram_frequency / config.GHZ,
            "mc_frequency_ghz": self.mc_frequency / config.GHZ,
            "interconnect_frequency_ghz": self.interconnect_frequency / config.GHZ,
            "v_sa_scale": self.v_sa_scale,
            "v_io_scale": self.v_io_scale,
            "v_core": self.v_core,
            "v_gfx": self.v_gfx,
            "mrc_optimized": float(self.mrc_optimized),
            "dram_in_self_refresh": float(self.dram_in_self_refresh),
            "active_cores": float(self.active_cores),
        }
