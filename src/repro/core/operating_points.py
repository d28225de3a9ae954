"""SysScale DVFS operating points for the IO and memory domains.

An operating point fixes the DRAM frequency bin, the IO-interconnect clock, the
V_SA and V_IO rail scales, and whether the MRC registers are re-optimized for the
selected frequency.  The paper implements two points on the real system
(Sec. 7.4): a high point at LPDDR3-1600 with the interconnect at 0.8 GHz and
nominal rail voltages, and a low point at LPDDR3-1066 with the interconnect at
0.4 GHz, V_SA at 0.8x nominal, and V_IO at 0.85x nominal (Table 1).  The general
algorithm supports more points, deciding between adjacent points with dedicated
thresholds (Sec. 4.3); the table built here can therefore hold an arbitrary
ordered list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import config
from repro.sim.platform import Platform
from repro.sim.policy import PolicyAction


@dataclass(frozen=True)
class OperatingPoint:
    """One IO/memory-domain DVFS operating point."""

    name: str
    dram_frequency: float
    interconnect_frequency: float
    v_sa_scale: float
    v_io_scale: float
    mrc_optimized: bool = True

    def __post_init__(self) -> None:
        if self.dram_frequency <= 0 or self.interconnect_frequency <= 0:
            raise ValueError("operating-point frequencies must be positive")
        for scale_name in ("v_sa_scale", "v_io_scale"):
            if not 0 < getattr(self, scale_name) <= 1.0:
                raise ValueError(f"{scale_name} must be in (0, 1]")

    def provisioned_io_memory_power(self, platform: Platform) -> float:
        """Worst-case IO+memory power at this point -- the budget the PBM charges.

        SysScale charges the compute domain's budget with the *provisioned* power
        of the selected operating point rather than the global worst case, which
        is how scaling the IO and memory domains frees budget for compute
        (Sec. 4.3).
        """
        return platform.worst_case_io_memory_power(
            dram_frequency=self.dram_frequency,
            interconnect_frequency=self.interconnect_frequency,
            v_sa_scale=self.v_sa_scale,
            v_io_scale=self.v_io_scale,
        )

    def to_action(
        self,
        platform: Platform,
        transition_latency: float = config.TRANSITION_TOTAL_LATENCY_BUDGET,
        io_memory_budget: Optional[float] = None,
    ) -> PolicyAction:
        """Convert the operating point into the engine-facing :class:`PolicyAction`."""
        if io_memory_budget is None:
            io_memory_budget = self.provisioned_io_memory_power(platform)
        return PolicyAction(
            name=self.name,
            dram_frequency=self.dram_frequency,
            interconnect_frequency=self.interconnect_frequency,
            v_sa_scale=self.v_sa_scale,
            v_io_scale=self.v_io_scale,
            mrc_optimized=self.mrc_optimized,
            io_memory_budget=io_memory_budget,
            transition_latency=transition_latency,
        )

    def achievable_bandwidth(self, platform: Platform) -> float:
        """Achievable memory bandwidth (bytes/s) at this point with optimized MRC."""
        return platform.controller.achievable_bandwidth(self.dram_frequency, None)


@dataclass
class OperatingPointTable:
    """An ordered list of operating points, highest performance first."""

    points: List[OperatingPoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an operating-point table needs at least one point")
        self.points = sorted(
            self.points, key=lambda p: p.dram_frequency, reverse=True
        )
        frequencies = [p.dram_frequency for p in self.points]
        if len(set(frequencies)) != len(frequencies):
            raise ValueError("operating points must have distinct DRAM frequencies")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def high(self) -> OperatingPoint:
        """The highest-performance point (the boot default)."""
        return self.points[0]

    @property
    def low(self) -> OperatingPoint:
        """The lowest-performance point."""
        return self.points[-1]

    def index_of(self, point: OperatingPoint) -> int:
        """Index of ``point`` in the table (0 = highest performance)."""
        return self.points.index(point)

    def next_lower(self, point: OperatingPoint) -> OperatingPoint:
        """The adjacent lower-performance point (or ``point`` if already lowest)."""
        index = self.index_of(point)
        return self.points[min(len(self.points) - 1, index + 1)]

    def next_higher(self, point: OperatingPoint) -> OperatingPoint:
        """The adjacent higher-performance point (or ``point`` if already highest)."""
        index = self.index_of(point)
        return self.points[max(0, index - 1)]


def build_default_operating_points(
    platform: Optional[Platform] = None,
    include_lowest_bin: bool = False,
    mrc_optimized: bool = True,
) -> OperatingPointTable:
    """Build the two-point (optionally three-point) table the paper implements.

    The high point is LPDDR3-1600 / 0.8 GHz interconnect / nominal rails; the low
    point is LPDDR3-1066 / 0.4 GHz / 0.8 V_SA / 0.85 V_IO (Table 1).  The optional
    third point adds the 0.8 GHz DRAM bin, which Sec. 7.4 evaluates and rejects as
    not energy efficient (V_SA has already hit Vmin at 1.06 GHz); it is exposed
    here for the sensitivity study and the ablation benchmarks.
    """
    del platform  # points are platform-independent; budgets are computed on demand
    bins = config.LPDDR3_FREQUENCY_BINS
    points = [
        OperatingPoint(
            name="high",
            dram_frequency=bins[0],
            interconnect_frequency=config.IO_INTERCONNECT_HIGH_FREQUENCY,
            v_sa_scale=1.0,
            v_io_scale=1.0,
            mrc_optimized=mrc_optimized,
        ),
        OperatingPoint(
            name="low",
            dram_frequency=bins[1],
            interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
            v_sa_scale=config.V_SA_LOW_SCALE,
            v_io_scale=config.V_IO_LOW_SCALE,
            mrc_optimized=mrc_optimized,
        ),
    ]
    if include_lowest_bin:
        points.append(
            OperatingPoint(
                name="lowest",
                dram_frequency=bins[2],
                interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
                # V_SA is already at its minimum functional voltage at 1.06 GHz
                # (Sec. 7.4), so the extra bin cannot reduce the rail further.
                v_sa_scale=config.V_SA_LOW_SCALE,
                v_io_scale=config.V_IO_LOW_SCALE,
                mrc_optimized=mrc_optimized,
            )
        )
    return OperatingPointTable(points=points)


def build_ddr4_operating_points(mrc_optimized: bool = True) -> OperatingPointTable:
    """Operating points for the DDR4 sensitivity study of Sec. 7.4.

    DDR4 scales from 1.86 GHz down to 1.33 GHz; the paper reports ~7 % lower
    average power savings than the LPDDR3 1.6 -> 1.06 GHz scaling.
    """
    return OperatingPointTable(
        points=[
            OperatingPoint(
                name="ddr4_high",
                dram_frequency=config.DDR4_FREQUENCY_BINS[1],
                interconnect_frequency=config.IO_INTERCONNECT_HIGH_FREQUENCY,
                v_sa_scale=1.0,
                v_io_scale=1.0,
                mrc_optimized=mrc_optimized,
            ),
            OperatingPoint(
                name="ddr4_low",
                dram_frequency=config.DDR4_FREQUENCY_BINS[2],
                interconnect_frequency=config.IO_INTERCONNECT_LOW_FREQUENCY,
                v_sa_scale=0.85,
                v_io_scale=0.9,
                mrc_optimized=mrc_optimized,
            ),
        ]
    )


def operating_points_for(platform: Platform) -> OperatingPointTable:
    """The point table matched to ``platform``'s DRAM family.

    A DDR4 device gets the Sec. 7.4 DDR4 table, everything else the LPDDR3
    table of Table 1: scaling a DDR4 interface through LPDDR3 frequency
    points would simulate operating points the device does not have.
    """
    if platform.dram.technology.value == "ddr4":
        return build_ddr4_operating_points()
    return build_default_operating_points(platform)
