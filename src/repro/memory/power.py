"""Memory subsystem power model: background, operation, termination, MC power.

Sec. 2.3 decomposes DRAM system power into background power, operation power, and
memory-controller power; Sec. 2.4 gives the scaling rules under memory DVFS:

* background power reduces roughly linearly with frequency;
* memory-controller power reduces approximately cubically (voltage^2 x frequency,
  with the voltage following the frequency);
* per-access read/write/termination *energy* increases at lower frequency because
  each access takes longer (the power model captures this by charging operation
  energy per byte with a mild low-frequency inflation);
* DRAM array voltage (VDDQ) is fixed, so array energy per access does not scale.

The model returns a :class:`MemoryPowerBreakdown` so experiments can report and
ablate the individual components.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro import config
from repro.memory.ddrio import DdrioModel
from repro.memory.dram import DramDevice
from repro.memory.mrc import MrcRegisterFile
from repro.numeric import ordered_sum


@dataclass(frozen=True)
class MemoryPowerBreakdown:
    """Per-component power of the memory subsystem and the V_SA agents, in watts."""

    dram_background: float
    dram_operation: float
    ddrio_digital: float
    ddrio_analog: float
    termination: float
    memory_controller: float
    io_interconnect: float
    io_engines: float
    self_refresh: float

    def __post_init__(self) -> None:
        for component_field in fields(self):
            if getattr(self, component_field.name) < 0:
                raise ValueError(f"{component_field.name} must be non-negative")

    @property
    def total(self) -> float:
        """Total memory + IO domain power in watts."""
        return ordered_sum(getattr(self, f.name) for f in fields(self))

    @property
    def memory_domain(self) -> float:
        """Power of the memory domain proper (MC + DDRIO + DRAM)."""
        return (
            self.dram_background
            + self.dram_operation
            + self.ddrio_digital
            + self.ddrio_analog
            + self.termination
            + self.memory_controller
            + self.self_refresh
        )

    @property
    def io_domain(self) -> float:
        """Power of the IO domain (interconnect + IO engines)."""
        return self.io_interconnect + self.io_engines

    def as_dict(self) -> dict:
        """Flat dictionary view, including the totals."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["memory_domain"] = self.memory_domain
        data["io_domain"] = self.io_domain
        data["total"] = self.total
        return data


@dataclass
class MemoryPowerModel:
    """Analytic power model of the memory and IO domains.

    The high-operating-point component powers come from ``repro.config`` (documented
    calibration constants); the model scales them with frequency and rail voltage
    according to the rules of Sec. 2.4.
    """

    device: DramDevice
    ddrio: DdrioModel
    mc_power_high: float = config.V_SA_MC_POWER_HIGH
    interconnect_power_high: float = config.V_SA_INTERCONNECT_POWER_HIGH
    io_engines_power_high: float = config.V_SA_IO_ENGINES_POWER_HIGH
    background_power_high: float = config.DRAM_BACKGROUND_POWER_HIGH
    background_frequency_fraction: float = config.DRAM_BACKGROUND_FREQUENCY_SCALED_FRACTION
    operation_energy_per_byte: float = config.DRAM_OPERATION_ENERGY_PER_BYTE
    self_refresh_power: float = config.DRAM_SELF_REFRESH_POWER
    reference_frequency: float = config.LPDDR3_FREQUENCY_BINS[0]
    reference_interconnect_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY

    def __post_init__(self) -> None:
        numeric_fields = (
            "mc_power_high",
            "interconnect_power_high",
            "io_engines_power_high",
            "background_power_high",
            "operation_energy_per_byte",
            "self_refresh_power",
        )
        for name in numeric_fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.background_frequency_fraction <= 1.0:
            raise ValueError("background frequency fraction must be in [0, 1]")
        if self.reference_frequency <= 0 or self.reference_interconnect_frequency <= 0:
            raise ValueError("reference frequencies must be positive")

    # ------------------------------------------------------------------
    # Individual components
    # ------------------------------------------------------------------
    def dram_background_power(self, dram_frequency: float, in_self_refresh: bool) -> float:
        """Background (maintenance + refresh) power; linear-in-frequency portion scales."""
        self._check_frequency(dram_frequency)
        if in_self_refresh:
            return 0.0
        ratio = dram_frequency / self.reference_frequency
        scaled = self.background_power_high * (
            (1.0 - self.background_frequency_fraction)
            + self.background_frequency_fraction * ratio
        )
        return scaled

    def dram_operation_power(
        self,
        bandwidth: float,
        dram_frequency: float,
        mrc: Optional[MrcRegisterFile] = None,
    ) -> float:
        """Array + IO operation power for ``bandwidth`` bytes/s of traffic.

        Per-access energy rises mildly at lower frequency (longer bursts, Sec. 2.4)
        and rises substantially when the MRC registers are unoptimized (Fig. 4).
        """
        if bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")
        self._check_frequency(dram_frequency)
        frequency_ratio = self.reference_frequency / dram_frequency
        energy_per_byte = self.operation_energy_per_byte * (1.0 + 0.10 * (frequency_ratio - 1.0))
        if mrc is not None:
            energy_per_byte *= mrc.interface_power_factor(dram_frequency)
        return bandwidth * energy_per_byte

    def memory_controller_power(self, dram_frequency: float, v_sa_scale: float) -> float:
        """MC power: ``P ~ V_SA^2 * f_MC`` (approximately cubic under DVFS, Sec. 2.4)."""
        self._check_frequency(dram_frequency)
        self._check_scale(v_sa_scale)
        frequency_ratio = dram_frequency / self.reference_frequency
        return self.mc_power_high * v_sa_scale ** 2 * frequency_ratio

    def interconnect_power(self, interconnect_frequency: float, v_sa_scale: float) -> float:
        """IO interconnect power: ``P ~ V_SA^2 * f_IC``."""
        if interconnect_frequency <= 0:
            raise ValueError("interconnect frequency must be positive")
        self._check_scale(v_sa_scale)
        ratio = interconnect_frequency / self.reference_interconnect_frequency
        return self.interconnect_power_high * v_sa_scale ** 2 * ratio

    def io_engines_power(self, v_sa_scale: float, io_activity: float = 1.0) -> float:
        """IO engines/controllers power on the V_SA rail, scaled by activity."""
        self._check_scale(v_sa_scale)
        if not 0.0 <= io_activity <= 1.0:
            raise ValueError("IO activity must be in [0, 1]")
        floor = 0.3  # clock-tree and always-on logic
        activity_term = floor + (1.0 - floor) * io_activity
        return self.io_engines_power_high * v_sa_scale ** 2 * activity_term

    # ------------------------------------------------------------------
    # Aggregate
    # ------------------------------------------------------------------
    def breakdown(
        self,
        dram_frequency: float,
        interconnect_frequency: float,
        v_sa_scale: float,
        v_io_scale: float,
        bandwidth: float,
        io_activity: float = 0.5,
        in_self_refresh: bool = False,
        mrc: Optional[MrcRegisterFile] = None,
    ) -> MemoryPowerBreakdown:
        """Full per-component breakdown of memory + IO domain power (watts)."""
        self._check_frequency(dram_frequency)
        utilization = 0.0
        ceiling = self.device.peak_bandwidth(dram_frequency)
        if ceiling > 0 and not in_self_refresh:
            utilization = min(1.0, bandwidth / ceiling)

        if in_self_refresh:
            dram_operation = 0.0
            termination = 0.0
            ddrio_digital = self.ddrio.total_power(
                dram_frequency, 0.0, v_io_scale, in_self_refresh=True
            )
            ddrio_analog = 0.0
            self_refresh = self.self_refresh_power
        else:
            operation_total = self.dram_operation_power(bandwidth, dram_frequency, mrc)
            termination = self.ddrio.termination_power(utilization)
            if mrc is not None:
                termination *= mrc.interface_power_factor(dram_frequency)
            dram_operation = operation_total
            ddrio_digital = self.ddrio.digital_power(dram_frequency, v_io_scale)
            ddrio_analog = self.ddrio.analog_power(dram_frequency)
            if mrc is not None:
                # Mistrained drive-strength/equalization settings burn extra
                # interface power (Fig. 4), not just extra array energy.
                interface_factor = mrc.interface_power_factor(dram_frequency)
                ddrio_digital *= interface_factor
                ddrio_analog *= interface_factor
            self_refresh = 0.0

        return MemoryPowerBreakdown(
            dram_background=self.dram_background_power(dram_frequency, in_self_refresh),
            dram_operation=dram_operation,
            ddrio_digital=ddrio_digital,
            ddrio_analog=ddrio_analog,
            termination=termination,
            memory_controller=self.memory_controller_power(dram_frequency, v_sa_scale),
            io_interconnect=self.interconnect_power(interconnect_frequency, v_sa_scale),
            io_engines=self.io_engines_power(v_sa_scale, io_activity),
            self_refresh=self_refresh,
        )

    def total_power(self, **kwargs) -> float:
        """Total memory + IO domain power (watts); same arguments as :meth:`breakdown`."""
        return self.breakdown(**kwargs).total

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_scale(scale: float) -> None:
        if not 0 < scale <= 1.5:
            raise ValueError("voltage scale must be in (0, 1.5]")

    @staticmethod
    def _check_frequency(frequency: float) -> None:
        if frequency <= 0:
            raise ValueError("frequency must be positive")
