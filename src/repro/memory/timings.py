"""JEDEC-style DRAM timing sets per frequency bin.

The memory-latency model needs the handful of timing parameters that dominate a
random read: row-activate (tRCD), column access (tCL / tCAS), precharge (tRP), and
the burst transfer time.  JEDEC specifies these in nanoseconds for a device grade;
the cycle counts programmed into the memory controller therefore change with the
interface frequency, which is exactly what the MRC re-training of Sec. 2.5 is about.

This module derives the timing set for any frequency -- the bins the paper uses
(LPDDR3 at 1.6 / 1.06 / 0.8 GHz and DDR4 at 2.13 / 1.86 / 1.33 GHz) or a
hypothetical one -- by holding the analog latencies constant in nanoseconds.
``DramDevice.timings`` memoizes the sets a device is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DramTimings:
    """Timing parameters of a DRAM device at one interface frequency.

    All latencies are in seconds; ``data_rate`` is the effective transfers/second of
    the interface (equal to the DDR frequency for double-data-rate devices, which is
    how the paper quotes "1.6 GHz" LPDDR3).
    """

    data_rate: float
    trcd: float
    tcl: float
    trp: float
    trc: float
    burst_length: int = 8
    bus_width_bytes: int = 8
    channels: int = 2

    def __post_init__(self) -> None:
        if self.data_rate <= 0:
            raise ValueError("data rate must be positive")
        for name in ("trcd", "tcl", "trp", "trc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.burst_length <= 0 or self.bus_width_bytes <= 0 or self.channels <= 0:
            raise ValueError("burst length, bus width, and channel count must be positive")

    @property
    def clock_period(self) -> float:
        """One interface clock period in seconds (DDR: two transfers per clock)."""
        return 2.0 / self.data_rate

    @property
    def burst_duration(self) -> float:
        """Time to transfer one burst (``burst_length`` beats) in seconds."""
        return self.burst_length / self.data_rate

    @property
    def row_hit_latency(self) -> float:
        """Latency of a row-buffer hit: column access plus half a burst."""
        return self.tcl + self.burst_duration / 2

    @property
    def row_miss_latency(self) -> float:
        """Latency of a row-buffer miss: precharge + activate + column access."""
        return self.trp + self.trcd + self.tcl + self.burst_duration / 2

    @property
    def peak_bandwidth(self) -> float:
        """Peak theoretical bandwidth of all channels in bytes/second."""
        return self.data_rate * self.bus_width_bytes * self.channels

    def average_access_latency(self, row_hit_rate: float = 0.55) -> float:
        """Average device access latency for a given row-buffer hit rate."""
        if not 0.0 <= row_hit_rate <= 1.0:
            raise ValueError("row hit rate must be in [0, 1]")
        return (
            row_hit_rate * self.row_hit_latency
            + (1.0 - row_hit_rate) * self.row_miss_latency
        )


#: Reference analog latencies (seconds), held constant across frequency bins because
#: they are set by the DRAM array, not by the interface clock.
_LPDDR3_REFERENCE = {
    "trcd": 18e-9,
    "tcl": 15e-9,
    "trp": 18e-9,
    "trc": 60e-9,
}

_DDR4_REFERENCE = {
    "trcd": 14.06e-9,
    "tcl": 13.5e-9,
    "trp": 14.06e-9,
    "trc": 47e-9,
}


def _quantize(latency: float, clock_period: float) -> float:
    """Round a latency up to an integer number of interface clocks.

    The memory controller programs timings in clock cycles, so the effective
    nanosecond latency is the JEDEC value rounded *up* to the next clock edge.
    This quantization is why lower frequencies have slightly worse-than-constant
    analog latencies, and why per-frequency MRC values matter.
    """
    import math

    cycles = math.ceil(latency / clock_period - 1e-12)
    return cycles * clock_period


def timings_for_frequency(
    data_rate: float,
    technology: str = "lpddr3",
    channels: int = 2,
    bus_width_bytes: int = 8,
) -> DramTimings:
    """Return the timing set for a device of ``technology`` at ``data_rate`` Hz.

    The analog latencies are taken from the technology's reference grade and
    quantized to the interface clock, mirroring what MRC training produces for each
    supported frequency (Sec. 2.5).
    """
    if data_rate <= 0:
        raise ValueError("data rate must be positive")
    technology = technology.lower()
    if technology in ("lpddr3", "ddr3l", "ddr3"):
        reference = _LPDDR3_REFERENCE
    elif technology == "ddr4":
        reference = _DDR4_REFERENCE
    else:
        raise ValueError(f"unknown DRAM technology {technology!r}")

    clock_period = 2.0 / data_rate
    quantized: Dict[str, float] = {
        name: _quantize(latency, clock_period) for name, latency in reference.items()
    }
    return DramTimings(
        data_rate=data_rate,
        trcd=quantized["trcd"],
        tcl=quantized["tcl"],
        trp=quantized["trp"],
        trc=quantized["trc"],
        channels=channels,
        bus_width_bytes=bus_width_bytes,
    )
