"""Declarative hardware descriptions: the :class:`HardwareSpec` value object.

A :class:`HardwareSpec` describes an *entire* evaluation platform as data: the
SoC identity and process, the per-domain power-model coefficients, the
shared-rail VR topology of Fig. 1, the compute V/F curves and P-state grids,
the IO interconnect clocks, the attached DRAM device (itself a nested
:class:`DramSpec`), the package TDP, and the fixed platform power.  It is
frozen, hashable, JSON-serializable, and content-hashable, so a hardware
description flows through the runtime exactly like a trace or a policy: job
content hashes cover the full platform, and arbitrary hardware variants cache,
deduplicate, and parallelize like any other job dimension.

Variants are expressed as *deltas* with :meth:`HardwareSpec.derive`::

    broadwell = SKYLAKE.derive(
        name="broadwell",
        soc_name="Intel Core M-5Y71 (Broadwell)",
        uncore_leakage_coeff_scale=1.08,   # <field>_scale multiplies the base
    )
    warm = SKYLAKE.derive(tdp=7.0, dram="ddr4")

The default field values mirror ``repro.config`` exactly, so the default spec
reproduces the seed Skylake M-6Y75 platform bit-identically (a regression test
pins this).  Materialization lives in :mod:`repro.hw.build`; the named catalog
lives in :mod:`repro.hw.registry`.

A spec is encoded once per instance: :attr:`HardwareSpec.canonical_text` is
its ``to_dict()`` in the canonical form job hashes use, encoded the first
time it is asked for.  The runtime splices it into the hash of every job of
the platform instead of encoding the platform again per job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, ClassVar, Dict, Tuple, Union

from repro import config, hashing
from repro.memory.dram import DramDevice, DramOrganization, DramTechnology
from repro.power.pstates import (
    DEFAULT_CPU_FREQUENCIES,
    DEFAULT_GFX_FREQUENCIES,
    build_cpu_vf_curve,
    build_gfx_vf_curve,
)

#: Bump when the hardware-description schema changes incompatibly.
HW_SCHEMA_VERSION = 1

#: ``(frequency_hz, voltage_v)`` pairs of a V/F curve, as plain data.
VFPoints = Tuple[Tuple[float, float], ...]


def _freeze_points(points: Any) -> VFPoints:
    """Normalize a V/F point sequence into a tuple of ``(float, float)`` pairs."""
    frozen = tuple((float(f), float(v)) for f, v in points)
    if len(frozen) < 2:
        raise ValueError("a V/F curve needs at least two points")
    return frozen


def _freeze_frequencies(frequencies: Any) -> Tuple[float, ...]:
    """Normalize a frequency list into a tuple of positive floats."""
    frozen = tuple(float(f) for f in frequencies)
    if not frozen or any(f <= 0 for f in frozen):
        raise ValueError("frequency lists must be non-empty and positive")
    return frozen


@dataclass(frozen=True)
class DramSpec:
    """One DRAM device configuration, as data (lossless vs. ``DramDevice``)."""

    technology: str = "lpddr3"
    frequency_bins: Tuple[float, ...] = config.LPDDR3_FREQUENCY_BINS
    ranks: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 32768
    row_size_bytes: int = 4096
    capacity_bytes: int = 8 * 1024 ** 3
    vddq: float = 1.2
    channels: int = 2
    bus_width_bytes: int = 8

    def __post_init__(self) -> None:
        DramTechnology(self.technology)  # raises on unknown families
        object.__setattr__(
            self, "frequency_bins", _freeze_frequencies(self.frequency_bins)
        )

    def device(self) -> DramDevice:
        """Materialize the described :class:`DramDevice` (fresh, boot state)."""
        return DramDevice(
            technology=DramTechnology(self.technology),
            frequency_bins=self.frequency_bins,
            organization=DramOrganization(
                ranks=self.ranks,
                banks_per_rank=self.banks_per_rank,
                rows_per_bank=self.rows_per_bank,
                row_size_bytes=self.row_size_bytes,
                capacity_bytes=self.capacity_bytes,
            ),
            vddq=self.vddq,
            channels=self.channels,
            bus_width_bytes=self.bus_width_bytes,
        )

    @classmethod
    def from_device(cls, device: DramDevice) -> "DramSpec":
        """The spec describing an existing device (configuration, not live state)."""
        return cls(
            technology=device.technology.value,
            frequency_bins=device.frequency_bins,
            ranks=device.organization.ranks,
            banks_per_rank=device.organization.banks_per_rank,
            rows_per_bank=device.organization.rows_per_bank,
            row_size_bytes=device.organization.row_size_bytes,
            capacity_bytes=device.organization.capacity_bytes,
            vddq=device.vddq,
            channels=device.channels,
            bus_width_bytes=device.bus_width_bytes,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "technology": self.technology,
            "frequency_bins": list(self.frequency_bins),
            "ranks": self.ranks,
            "banks_per_rank": self.banks_per_rank,
            "rows_per_bank": self.rows_per_bank,
            "row_size_bytes": self.row_size_bytes,
            "capacity_bytes": self.capacity_bytes,
            "vddq": self.vddq,
            "channels": self.channels,
            "bus_width_bytes": self.bus_width_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DramSpec":
        return cls(**{**data, "frequency_bins": tuple(data["frequency_bins"])})


#: Named DRAM configurations (``HardwareSpec(dram="ddr4")`` resolves here).
DRAM_SPECS: Dict[str, DramSpec] = {
    "lpddr3": DramSpec(
        technology="lpddr3", frequency_bins=config.LPDDR3_FREQUENCY_BINS
    ),
    "ddr4": DramSpec(technology="ddr4", frequency_bins=config.DDR4_FREQUENCY_BINS),
}


def resolve_dram(dram: Union[str, DramSpec, Dict[str, Any], DramDevice]) -> DramSpec:
    """Normalize any DRAM description (name, spec, dict, device) to a spec."""
    if isinstance(dram, DramSpec):
        return dram
    if isinstance(dram, DramDevice):
        return DramSpec.from_device(dram)
    if isinstance(dram, dict):
        return DramSpec.from_dict(dram)
    if isinstance(dram, str):
        if dram not in DRAM_SPECS:
            raise KeyError(
                f"unknown DRAM device {dram!r}; known: {sorted(DRAM_SPECS)}"
            )
        return DRAM_SPECS[dram]
    raise TypeError(f"cannot interpret {type(dram).__name__} as a DRAM description")


@dataclass(frozen=True)
class HardwareSpec:
    """A complete evaluation platform as a frozen, hashable value object.

    The constructor keeps the historical ``PlatformSpec`` keyword surface
    (``tdp``, ``dram``, ``platform_fixed_power``) while exposing every other
    hardware parameter the imperative builders used to hard-code.  ``dram``
    accepts a registered name (``"lpddr3"``, ``"ddr4"``), a :class:`DramSpec`,
    a serialized dict, or a live :class:`DramDevice`.
    """

    # -- package ------------------------------------------------------
    tdp: float = config.SKYLAKE_DEFAULT_TDP
    dram: DramSpec = DRAM_SPECS["lpddr3"]
    platform_fixed_power: float = config.PLATFORM_FIXED_POWER
    # -- identity (presentation metadata: see ``to_dict``) ------------
    name: str = field(default="skylake", compare=False)
    soc_name: str = field(default="Intel Core M-6Y75 (Skylake)", compare=False)
    process_node_nm: int = 14
    # -- compute domain -----------------------------------------------
    cpu_core_count: int = config.SKYLAKE_CORE_COUNT
    cpu_threads_per_core: int = config.SKYLAKE_THREADS_PER_CORE
    cpu_base_frequency: float = config.SKYLAKE_CPU_BASE_FREQUENCY
    cpu_ceff: float = config.CPU_CORE_CEFF
    cpu_leakage_coeff: float = config.CPU_CORE_LEAKAGE_COEFF
    gfx_base_frequency: float = config.SKYLAKE_GFX_BASE_FREQUENCY
    gfx_ceff: float = config.GFX_CEFF
    gfx_leakage_coeff: float = config.GFX_LEAKAGE_COEFF
    uncore_ceff: float = config.UNCORE_CEFF
    uncore_leakage_coeff: float = config.UNCORE_LEAKAGE_COEFF
    llc_bytes: int = config.SKYLAKE_LLC_BYTES
    # -- V/F curves and P-state grids ---------------------------------
    cpu_vf_points: VFPoints = build_cpu_vf_curve().points
    gfx_vf_points: VFPoints = build_gfx_vf_curve().points
    cpu_pstate_frequencies: Tuple[float, ...] = DEFAULT_CPU_FREQUENCIES
    gfx_pstate_frequencies: Tuple[float, ...] = DEFAULT_GFX_FREQUENCIES
    # -- shared-rail VR topology (Fig. 1) -----------------------------
    v_sa_nominal: float = 0.55
    v_io_nominal: float = 0.70
    vddq_nominal: float = 1.2
    v_core_nominal: float = 1.0
    v_gfx_nominal: float = 1.0
    v_sa_low_scale: float = config.V_SA_LOW_SCALE
    v_io_low_scale: float = config.V_IO_LOW_SCALE
    # -- IO interconnect ----------------------------------------------
    io_interconnect_high_frequency: float = config.IO_INTERCONNECT_HIGH_FREQUENCY
    io_interconnect_low_frequency: float = config.IO_INTERCONNECT_LOW_FREQUENCY
    # -- memory/IO power-model coefficients ---------------------------
    mc_power_high: float = config.V_SA_MC_POWER_HIGH
    interconnect_power_high: float = config.V_SA_INTERCONNECT_POWER_HIGH
    io_engines_power_high: float = config.V_SA_IO_ENGINES_POWER_HIGH
    ddrio_digital_power_high: float = config.DDRIO_DIGITAL_POWER_HIGH
    dram_background_power_high: float = config.DRAM_BACKGROUND_POWER_HIGH
    dram_background_frequency_fraction: float = (
        config.DRAM_BACKGROUND_FREQUENCY_SCALED_FRACTION
    )
    dram_operation_energy_per_byte: float = config.DRAM_OPERATION_ENERGY_PER_BYTE
    dram_self_refresh_power: float = config.DRAM_SELF_REFRESH_POWER
    # -- registry metadata (not part of the hardware description) ------
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dram", resolve_dram(self.dram))
        object.__setattr__(self, "cpu_vf_points", _freeze_points(self.cpu_vf_points))
        object.__setattr__(self, "gfx_vf_points", _freeze_points(self.gfx_vf_points))
        object.__setattr__(
            self,
            "cpu_pstate_frequencies",
            _freeze_frequencies(self.cpu_pstate_frequencies),
        )
        object.__setattr__(
            self,
            "gfx_pstate_frequencies",
            _freeze_frequencies(self.gfx_pstate_frequencies),
        )
        if self.tdp <= 0:
            raise ValueError("TDP must be positive")
        if self.platform_fixed_power < 0:
            raise ValueError("platform fixed power must be non-negative")
        if self.cpu_core_count <= 0 or self.cpu_threads_per_core <= 0:
            raise ValueError("core and thread counts must be positive")
        if self.llc_bytes <= 0:
            raise ValueError("LLC capacity must be positive")
        positive = (
            "cpu_base_frequency", "gfx_base_frequency",
            "io_interconnect_high_frequency", "io_interconnect_low_frequency",
            "v_sa_nominal", "v_io_nominal", "vddq_nominal",
            "v_core_nominal", "v_gfx_nominal",
        )
        for field_name in positive:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        non_negative = (
            "cpu_ceff", "cpu_leakage_coeff", "gfx_ceff", "gfx_leakage_coeff",
            "uncore_ceff", "uncore_leakage_coeff", "mc_power_high",
            "interconnect_power_high", "io_engines_power_high",
            "ddrio_digital_power_high", "dram_background_power_high",
            "dram_operation_energy_per_byte", "dram_self_refresh_power",
        )
        for field_name in non_negative:
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        for field_name in ("v_sa_low_scale", "v_io_low_scale"):
            if not 0 < getattr(self, field_name) <= 1.0:
                raise ValueError(f"{field_name} must be in (0, 1]")
        if not 0.0 <= self.dram_background_frequency_fraction <= 1.0:
            raise ValueError("dram_background_frequency_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def derive(self, **overrides: Any) -> "HardwareSpec":
        """A new spec with ``overrides`` applied as a delta over this one.

        Two override forms are accepted:

        * ``field=value`` replaces the field (``dram`` accepts any form
          :func:`resolve_dram` understands);
        * ``<field>_scale=factor`` multiplies a numeric field by ``factor``
          (e.g. ``uncore_leakage_coeff_scale=1.08`` is how Broadwell derives
          from Skylake without restating the coefficient).
        """
        names = {f.name for f in fields(self)}
        changes: Dict[str, Any] = {}
        for key, value in overrides.items():
            if key in names:
                changes[key] = value
                continue
            base = key[: -len("_scale")] if key.endswith("_scale") else None
            if base in names and isinstance(getattr(self, base), (int, float)) \
                    and not isinstance(getattr(self, base), bool):
                if base in overrides:
                    raise ValueError(
                        f"cannot both set and scale {base!r} in one derive()"
                    )
                changes[base] = getattr(self, base) * value
                continue
            raise KeyError(
                f"unknown hardware override {key!r}; expected a HardwareSpec "
                "field or <numeric field>_scale"
            )
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Materialization and presentation
    # ------------------------------------------------------------------
    def build(self):
        """Assemble a fresh :class:`~repro.sim.platform.Platform` (never shared)."""
        from repro.hw.build import build_platform_from_spec  # deferred: avoids cycle

        return build_platform_from_spec(self)

    @property
    def label(self) -> str:
        """Short human-readable identifier for job labels and progress lines."""
        return f"{self.name}/{self.dram.technology}@{self.tdp:g}W"

    def describe(self) -> Dict[str, Any]:
        """Flat summary of the description (no platform assembly required)."""
        return {
            "name": self.name,
            "soc": self.soc_name,
            "tdp_w": self.tdp,
            "process_node_nm": self.process_node_nm,
            "cpu_cores": self.cpu_core_count,
            "cpu_threads": self.cpu_core_count * self.cpu_threads_per_core,
            "cpu_base_frequency_ghz": self.cpu_base_frequency / config.GHZ,
            "gfx_base_frequency_mhz": self.gfx_base_frequency / config.MHZ,
            "llc_mib": self.llc_bytes / (1024 * 1024),
            "dram": self.dram.technology,
            "dram_bins_ghz": [f / config.GHZ for f in self.dram.frequency_bins],
            "dram_capacity_gib": self.dram.capacity_bytes / 1024 ** 3,
            "platform_fixed_power_w": self.platform_fixed_power,
            "content_hash": self.content_hash,
        }

    # ------------------------------------------------------------------
    # Serialization and hashing
    # ------------------------------------------------------------------
    #: Presentation/registry metadata: these fields label a description but do
    #: not change the simulated hardware, so they are excluded from ``to_dict``
    #: (and therefore from equality, content hashes, and job cache keys) --
    #: ``skylake.derive(tdp=7.0)`` and the registered ``skylake-7w`` are the
    #: *same* hardware and must dedupe and share cache entries.
    METADATA_FIELDS: ClassVar[Tuple[str, ...]] = ("name", "soc_name", "description")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document of the hardware description.

        :data:`METADATA_FIELDS` are deliberately excluded: editing a catalog
        name or blurb must never change job content hashes.
        """
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            if spec_field.name in self.METADATA_FIELDS:
                continue
            value = getattr(self, spec_field.name)
            if spec_field.name == "dram":
                value = value.to_dict()
            elif spec_field.name in ("cpu_vf_points", "gfx_vf_points"):
                value = [list(pair) for pair in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HardwareSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        Also accepts the legacy three-knob ``PlatformSpec`` payload
        (``{"tdp", "dram", "platform_fixed_power"}``): the constructor defaults
        fill in the Skylake description those knobs used to imply, and string
        ``dram`` names resolve through :func:`resolve_dram`.  Serialized
        payloads carry no :data:`METADATA_FIELDS`, so a rebuilt spec labels
        itself with the defaults; the hardware (and every hash) is unchanged.
        """
        return cls(**data)

    # A spec is frozen, so its encoding never goes stale: it is encoded on
    # first use and kept in the instance ``__dict__`` (not a field, so
    # equality, hashing and ``to_dict`` never see it).  ``replace`` and
    # ``derive`` build a new instance, which encodes its own.
    @cached_property
    def canonical_text(self) -> str:
        """:func:`repro.hashing.canonical_json` of :meth:`to_dict`; job
        hashes splice it in."""
        return hashing.canonical_json(self.to_dict())

    @property
    def content_hash(self) -> str:
        """Deterministic content hash of the hardware description.

        Covers every field of :meth:`to_dict` -- i.e. everything that changes
        the simulated hardware, and nothing that merely labels it.
        """
        return hashing.content_hash({"schema": HW_SCHEMA_VERSION, **self.to_dict()})
