"""DRAM device model: organization, frequency bins, and self-refresh state.

Sec. 2.2 of the paper sketches the DRAM organization (ranks, banks, rows/columns of
cells); Sec. 2.4 and 3 describe the discrete frequency bins commercial devices
support and the fact that VDDQ cannot be scaled.  This module models a DRAM device
at that level: enough structure to reason about bandwidth, latency, refresh, and
the self-refresh entry/exit that brackets every SysScale DVFS transition
(Fig. 5, steps 4 and 8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.memory.timings import DramTimings, timings_for_frequency


class DramTechnology(str, enum.Enum):
    """DRAM device families used in the paper's evaluation."""

    LPDDR3 = "lpddr3"
    DDR4 = "ddr4"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SelfRefreshError(RuntimeError):
    """Raised when self-refresh entry/exit or frequency changes are mis-sequenced."""


@dataclass(frozen=True)
class DramOrganization:
    """Physical organization of the memory attached to the SoC."""

    ranks: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 32768
    row_size_bytes: int = 4096
    capacity_bytes: int = 8 * 1024 ** 3

    def __post_init__(self) -> None:
        for name in ("ranks", "banks_per_rank", "rows_per_bank", "row_size_bytes", "capacity_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def total_banks(self) -> int:
        """Banks across all ranks (the unit of bank-level parallelism)."""
        return self.ranks * self.banks_per_rank


@dataclass
class DramDevice:
    """A DRAM subsystem supporting a discrete set of frequency bins.

    Parameters
    ----------
    technology:
        Device family (LPDDR3 for the main evaluation, DDR4 for Sec. 7.4).
    frequency_bins:
        Discrete data rates the device supports, highest first (footnote 4:
        "DRAM devices support a few discrete frequency bins, normally only three").
    organization:
        Physical organization (ranks/banks/rows).
    vddq:
        The DRAM supply voltage; fixed, because commercial devices do not support
        voltage scaling of the array (Sec. 2.4).
    """

    technology: DramTechnology
    frequency_bins: Tuple[float, ...]
    organization: DramOrganization = field(default_factory=DramOrganization)
    vddq: float = 1.2
    channels: int = 2
    bus_width_bytes: int = 8
    current_frequency: float = field(init=False)
    in_self_refresh: bool = field(init=False, default=False)
    _frequency_switch_count: int = field(init=False, default=0)
    #: Timing sets by data rate: a pure function of the rate and the device
    #: configuration, and the model stack asks for the same few rates constantly.
    _timings_memo: Dict[float, DramTimings] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.frequency_bins:
            raise ValueError("a DRAM device needs at least one frequency bin")
        if any(f <= 0 for f in self.frequency_bins):
            raise ValueError("frequency bins must be positive")
        bins = tuple(sorted(set(self.frequency_bins), reverse=True))
        object.__setattr__(self, "frequency_bins", bins)
        if self.vddq <= 0:
            raise ValueError("VDDQ must be positive")
        if self.channels <= 0 or self.bus_width_bytes <= 0:
            raise ValueError("channel count and bus width must be positive")
        # The default bin for most systems is the highest frequency (footnote 4).
        self.current_frequency = bins[0]

    # ------------------------------------------------------------------
    # Frequency bins
    # ------------------------------------------------------------------
    @property
    def max_frequency(self) -> float:
        """Highest supported data rate (the default bin)."""
        return self.frequency_bins[0]

    @property
    def min_frequency(self) -> float:
        """Lowest supported data rate."""
        return self.frequency_bins[-1]

    def supports_frequency(self, frequency: float) -> bool:
        """True if ``frequency`` is one of the device's discrete bins."""
        return any(abs(frequency - f) < 1e3 for f in self.frequency_bins)

    def nearest_bin(self, frequency: float) -> float:
        """The supported bin closest to ``frequency``."""
        return min(self.frequency_bins, key=lambda f: abs(f - frequency))

    def next_lower_bin(self, frequency: Optional[float] = None) -> Optional[float]:
        """The bin one step below ``frequency`` (default: the current bin), if any."""
        reference = self.current_frequency if frequency is None else frequency
        lower = [f for f in self.frequency_bins if f < reference - 1e3]
        return lower[0] if lower else None

    def next_higher_bin(self, frequency: Optional[float] = None) -> Optional[float]:
        """The bin one step above ``frequency`` (default: the current bin), if any."""
        reference = self.current_frequency if frequency is None else frequency
        higher = [f for f in reversed(self.frequency_bins) if f > reference + 1e3]
        return higher[0] if higher else None

    # ------------------------------------------------------------------
    # Self-refresh and frequency switching (Fig. 5 steps 4, 6, 8)
    # ------------------------------------------------------------------
    def enter_self_refresh(self) -> None:
        """Put the device into self-refresh; required before a frequency change."""
        if self.in_self_refresh:
            raise SelfRefreshError("device is already in self-refresh")
        self.in_self_refresh = True

    def exit_self_refresh(self, fast_training: bool = True) -> float:
        """Leave self-refresh; returns the exit latency in seconds.

        Sec. 5 budgets "less than 5 us with a fast training process"; without fast
        training (the re-lock path legacy flows use) the exit costs noticeably more,
        which is part of why prior-work transitions are slower.
        """
        if not self.in_self_refresh:
            raise SelfRefreshError("device is not in self-refresh")
        self.in_self_refresh = False
        if fast_training:
            return config.TRANSITION_SELF_REFRESH_EXIT_LATENCY
        return config.TRANSITION_SELF_REFRESH_EXIT_LATENCY * 4.0

    def set_frequency(self, frequency: float) -> None:
        """Switch the device to a new bin; only legal while in self-refresh."""
        if not self.in_self_refresh:
            raise SelfRefreshError(
                "DRAM frequency may only be changed while the device is in "
                "self-refresh (Fig. 5, step 4 precedes step 6)"
            )
        if not self.supports_frequency(frequency):
            raise ValueError(
                f"frequency {frequency / config.GHZ:.2f} GHz is not a supported bin; "
                f"supported bins: {[f / config.GHZ for f in self.frequency_bins]}"
            )
        self.current_frequency = self.nearest_bin(frequency)
        self._frequency_switch_count += 1

    @property
    def frequency_switch_count(self) -> int:
        """Number of frequency-bin switches performed so far."""
        return self._frequency_switch_count

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def timings(self, frequency: Optional[float] = None) -> DramTimings:
        """Timing set at ``frequency`` (default: the current operating frequency).

        The frequency does not need to be one of the device's bins: callers such as
        the Fig. 6 sensitivity sweep evaluate hypothetical frequencies, for which
        the JEDEC reference latencies are simply re-quantized to the new clock.
        Results are memoized per data rate; an invalid rate raises every time.
        """
        target = self.current_frequency if frequency is None else frequency
        timings = self._timings_memo.get(target)
        if timings is None:
            timings = timings_for_frequency(
                target,
                self.technology.value,
                channels=self.channels,
                bus_width_bytes=self.bus_width_bytes,
            )
            self._timings_memo[target] = timings
        return timings

    def peak_bandwidth(self, frequency: Optional[float] = None) -> float:
        """Peak theoretical bandwidth (bytes/second) at ``frequency``."""
        return self.timings(frequency).peak_bandwidth

    def describe(self) -> dict:
        """Flat summary for result tables."""
        return {
            "technology": self.technology.value,
            "frequency_bins_ghz": [f / config.GHZ for f in self.frequency_bins],
            "current_frequency_ghz": self.current_frequency / config.GHZ,
            "channels": self.channels,
            "capacity_gib": self.organization.capacity_bytes / 1024 ** 3,
            "peak_bandwidth_gbps": self.peak_bandwidth() / config.GBPS,
            "vddq": self.vddq,
            "in_self_refresh": self.in_self_refresh,
        }


def lpddr3_device(
    frequency_bins: Tuple[float, ...] = config.LPDDR3_FREQUENCY_BINS,
    capacity_bytes: int = 8 * 1024 ** 3,
    channels: int = 2,
) -> DramDevice:
    """The LPDDR3-1600 dual-channel, 8 GB, non-ECC configuration of Table 2."""
    return DramDevice(
        technology=DramTechnology.LPDDR3,
        frequency_bins=frequency_bins,
        organization=DramOrganization(capacity_bytes=capacity_bytes),
        vddq=1.2,
        channels=channels,
    )


def ddr4_device(
    frequency_bins: Tuple[float, ...] = config.DDR4_FREQUENCY_BINS,
    capacity_bytes: int = 8 * 1024 ** 3,
    channels: int = 2,
) -> DramDevice:
    """The DDR4 configuration used in the Sec. 7.4 sensitivity study."""
    return DramDevice(
        technology=DramTechnology.DDR4,
        frequency_bins=frequency_bins,
        organization=DramOrganization(capacity_bytes=capacity_bytes),
        vddq=1.2,
        channels=channels,
    )
