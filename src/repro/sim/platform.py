"""Platform assembly: SoC description + power / performance / counter models.

A :class:`Platform` bundles everything a policy and the simulation engine need to
reason about one evaluation system: the Skylake (or Broadwell) SoC description, the
compute and memory power models, the memory-controller and phase-performance
models, the performance-counter unit, the MRC SRAM and live register file, and the
power budget manager configured for the platform's TDP.

``build_platform()`` is the convenience entry point the examples, experiments, and
tests use; without an explicit SoC it is spec-driven (a derived
``repro.hw.HardwareSpec`` materialized by ``repro.hw.build``), and
``assemble_platform()`` layers the models onto any SoC description.  Assembly
computes the worst-case IO+memory reservation the *baseline* PBM makes
(Observation 1) directly from the power model so the reservation and the model can
never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import config
from repro.memory.controller import MemoryControllerModel
from repro.memory.ddrio import DdrioModel
from repro.memory.dram import DramDevice
from repro.memory.mrc import MrcRegisterFile, MrcSram, build_mrc_sram_for_bins
from repro.memory.power import MemoryPowerModel
from repro.perf.counters import PerformanceCounterUnit
from repro.perf.latency import MemoryLatencyModel
from repro.perf.model import PhasePerformanceModel
from repro.power.budget import PowerBudgetManager
from repro.power.models import ActivityVector, ComputePowerModel, SoCPowerModel
from repro.soc.domains import SoCState
from repro.soc.skylake import SkylakeSoC


@dataclass
class Platform:
    """One fully assembled evaluation platform."""

    soc: SkylakeSoC
    compute_power: ComputePowerModel
    memory_power: MemoryPowerModel
    soc_power: SoCPowerModel
    controller: MemoryControllerModel
    latency_model: MemoryLatencyModel
    performance_model: PhasePerformanceModel
    counter_unit: PerformanceCounterUnit
    mrc_sram: MrcSram
    mrc_registers: MrcRegisterFile
    pbm: PowerBudgetManager
    #: Worst-case IO+memory power by operating point (explicit arguments only).
    _worst_case_memo: Dict[Tuple[float, float, float, float], float] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    #: SysScale's (operating points, thresholds) by point-table name, kept by
    #: :func:`repro.core.sysscale.calibration_for`.
    _calibration_memo: Dict[str, tuple] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def tdp(self) -> float:
        """Package thermal design power in watts."""
        return self.soc.tdp

    @property
    def dram(self) -> DramDevice:
        """The attached DRAM device."""
        return self.soc.dram

    def default_state(self) -> SoCState:
        """The high-operating-point boot state of the SoC."""
        return self.soc.default_state()

    def reset_to_boot(self) -> None:
        """Restore every piece of live state a previous run may have mutated.

        The SysScale transition flow moves real platform objects -- the DRAM
        frequency and self-refresh state, the shared rail voltages, the
        interconnect clock and queue, the MRC register file.  Restoring the
        boot state here makes ``SimulationEngine.run`` deterministic regardless
        of what ran on the platform before (results must never depend on run
        order, or caching and parallel execution would change the numbers).
        """
        dram = self.dram
        # Frequency changes are only legal in self-refresh (Fig. 5, step 4
        # precedes step 6), so pass through it on the way back to the top bin.
        dram.in_self_refresh = True
        dram.set_frequency(dram.max_frequency)
        dram.in_self_refresh = False
        self.soc.rails.reset()
        self.soc.interconnect_fabric.reset(
            frequency=self.soc.io_interconnect.high_frequency
        )
        if self.mrc_sram.has_frequency(dram.max_frequency):
            self.mrc_registers.load(self.mrc_sram.load(dram.max_frequency))

    def io_memory_power_at(
        self,
        dram_frequency: float,
        interconnect_frequency: float,
        v_sa_scale: float,
        v_io_scale: float,
        bandwidth: float,
        io_activity: float = 1.0,
        mrc_optimized: bool = True,
    ) -> float:
        """IO + memory domain power (watts) at an arbitrary operating point."""
        mrc = None
        if not mrc_optimized:
            mrc = self.mrc_registers
        breakdown = self.memory_power.breakdown(
            dram_frequency=dram_frequency,
            interconnect_frequency=interconnect_frequency,
            v_sa_scale=v_sa_scale,
            v_io_scale=v_io_scale,
            bandwidth=bandwidth,
            io_activity=io_activity,
            in_self_refresh=False,
            mrc=mrc,
        )
        return breakdown.io_domain + breakdown.memory_domain

    def worst_case_io_memory_power(
        self,
        dram_frequency: Optional[float] = None,
        interconnect_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY,
        v_sa_scale: float = 1.0,
        v_io_scale: float = 1.0,
    ) -> float:
        """Worst-case (full-bandwidth, full-IO-activity) IO+memory power at a point.

        The baseline PBM reserves this amount for the high operating point
        regardless of actual demand (Observation 1); SysScale charges the
        corresponding amount for whichever operating point it has selected.
        Memoized per point: with optimized MRC values the result reads no live
        platform state (the ``mrc_optimized=False`` path of
        :meth:`io_memory_power_at` does, and is never memoized).
        """
        if dram_frequency is None:
            dram_frequency = self.dram.max_frequency
        key = (dram_frequency, interconnect_frequency, v_sa_scale, v_io_scale)
        power = self._worst_case_memo.get(key)
        if power is None:
            ceiling = self.controller.achievable_bandwidth(dram_frequency, None)
            power = self.io_memory_power_at(
                dram_frequency=dram_frequency,
                interconnect_frequency=interconnect_frequency,
                v_sa_scale=v_sa_scale,
                v_io_scale=v_io_scale,
                bandwidth=ceiling,
                io_activity=1.0,
                mrc_optimized=True,
            )
            self._worst_case_memo[key] = power
        return power

    def compute_budget(self, io_memory_allocation: float) -> float:
        """Compute-domain budget when the IO+memory domains are charged ``allocation``."""
        return self.pbm.budgets(io_memory_allocation).compute

    def describe(self) -> dict:
        """Flat summary of the platform for result tables."""
        summary = self.soc.describe()
        summary["worst_case_io_memory_power_w"] = self.worst_case_io_memory_power()
        summary["platform_fixed_power_w"] = self.soc_power.platform_fixed_power
        return summary


def build_platform(
    tdp: float = config.SKYLAKE_DEFAULT_TDP,
    soc: Optional[SkylakeSoC] = None,
    dram: Optional[DramDevice] = None,
    platform_fixed_power: float = config.PLATFORM_FIXED_POWER,
) -> Platform:
    """Assemble a complete evaluation platform.

    Without an explicit ``soc`` this is now a spec-driven constructor: the
    knobs are folded into a derived :class:`~repro.hw.spec.HardwareSpec` and
    materialized through :mod:`repro.hw.build`, so the result is the exact
    platform ``HardwareSpec.build()`` would produce for the same description.
    The explicit-``soc`` path assembles models around the given description
    (hand-built SoCs, modified components) as before.

    Parameters
    ----------
    tdp:
        Package TDP in watts (ignored when an explicit ``soc`` is given).
    soc:
        A pre-built SoC description; defaults to the Skylake M-6Y75 of Table 2.
    dram:
        DRAM device override (e.g. the DDR4 device for the Sec. 7.4 study).
    platform_fixed_power:
        Package power outside the three domains.
    """
    if soc is None:
        # Deferred import: repro.hw.build imports this module for the
        # Platform class and assemble_platform.
        from repro.hw.build import build_platform_from_spec
        from repro.hw.registry import SKYLAKE

        spec = SKYLAKE.derive(tdp=tdp, platform_fixed_power=platform_fixed_power)
        if dram is not None:
            spec = spec.derive(dram=dram)
        return build_platform_from_spec(spec)
    if dram is not None:
        soc.dram = dram
    return assemble_platform(soc, platform_fixed_power=platform_fixed_power)


def assemble_platform(
    soc: SkylakeSoC,
    platform_fixed_power: float = config.PLATFORM_FIXED_POWER,
    *,
    mc_power_high: float = config.V_SA_MC_POWER_HIGH,
    interconnect_power_high: float = config.V_SA_INTERCONNECT_POWER_HIGH,
    io_engines_power_high: float = config.V_SA_IO_ENGINES_POWER_HIGH,
    ddrio_digital_power_high: float = config.DDRIO_DIGITAL_POWER_HIGH,
    dram_background_power_high: float = config.DRAM_BACKGROUND_POWER_HIGH,
    dram_background_frequency_fraction: float = (
        config.DRAM_BACKGROUND_FREQUENCY_SCALED_FRACTION
    ),
    dram_operation_energy_per_byte: float = config.DRAM_OPERATION_ENERGY_PER_BYTE,
    dram_self_refresh_power: float = config.DRAM_SELF_REFRESH_POWER,
) -> Platform:
    """Layer the power/performance/counter models onto an SoC description.

    The keyword coefficients parameterize the memory/IO power model; their
    defaults are the ``repro.config`` calibration constants, so assembling with
    no overrides reproduces the seed platform exactly.  ``repro.hw.build``
    passes a :class:`~repro.hw.spec.HardwareSpec`'s coefficients here, which is
    what makes the memory model part of the declarative hardware description.
    """
    compute_power = ComputePowerModel(
        cpu=soc.cpu,
        gfx=soc.gfx,
        uncore=soc.uncore,
        cpu_curve=soc.cpu_curve,
        gfx_curve=soc.gfx_curve,
    )
    ddrio = DdrioModel(
        digital_power_high=ddrio_digital_power_high,
        reference_frequency=soc.dram.max_frequency,
    )
    memory_power = MemoryPowerModel(
        device=soc.dram,
        ddrio=ddrio,
        mc_power_high=mc_power_high,
        interconnect_power_high=interconnect_power_high,
        io_engines_power_high=io_engines_power_high,
        background_power_high=dram_background_power_high,
        background_frequency_fraction=dram_background_frequency_fraction,
        operation_energy_per_byte=dram_operation_energy_per_byte,
        self_refresh_power=dram_self_refresh_power,
        reference_frequency=soc.dram.max_frequency,
        reference_interconnect_frequency=soc.io_interconnect.high_frequency,
    )
    controller = MemoryControllerModel(device=soc.dram)
    latency_model = MemoryLatencyModel(
        controller=controller,
        reference_dram_frequency=soc.dram.max_frequency,
    )
    performance_model = PhasePerformanceModel(
        latency_model=latency_model,
        reference_cpu_frequency=soc.cpu.base_frequency,
        reference_gfx_frequency=soc.gfx.base_frequency,
    )
    counter_unit = PerformanceCounterUnit(latency_model=latency_model)

    timing_sets = [soc.dram.timings(frequency) for frequency in soc.dram.frequency_bins]
    mrc_sram, trained = build_mrc_sram_for_bins(timing_sets)
    boot_configuration = trained[soc.dram.max_frequency]
    mrc_registers = MrcRegisterFile(loaded=boot_configuration)

    pbm = PowerBudgetManager(
        tdp=soc.tdp,
        compute_model=compute_power,
        cpu_pstates=soc.cpu_pstates,
        gfx_pstates=soc.gfx_pstates,
        platform_fixed_power=platform_fixed_power,
    )
    soc_power = SoCPowerModel(
        compute=compute_power,
        memory=memory_power,
        platform_fixed_power=platform_fixed_power,
        mrc=mrc_registers,
    )

    platform = Platform(
        soc=soc,
        compute_power=compute_power,
        memory_power=memory_power,
        soc_power=soc_power,
        controller=controller,
        latency_model=latency_model,
        performance_model=performance_model,
        counter_unit=counter_unit,
        mrc_sram=mrc_sram,
        mrc_registers=mrc_registers,
        pbm=pbm,
    )
    # The baseline reservation is the worst-case power of the IO and memory
    # domains at the high operating point (Observation 1).
    platform.pbm.worst_case_io_memory_power = platform.worst_case_io_memory_power()
    return platform


def activity_for_phase(phase, achieved_bandwidth: float) -> ActivityVector:
    """Build the power-model activity vector for a phase and its achieved traffic."""
    return ActivityVector(
        cpu_activity=phase.cpu_activity,
        gfx_activity=phase.gfx_activity,
        io_activity=phase.io_activity,
        memory_bandwidth=achieved_bandwidth,
        active_cores=phase.active_cores,
    )
