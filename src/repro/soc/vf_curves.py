"""Voltage/frequency curves and P-state tables.

Every clocked component in the SoC has a voltage/frequency (V/F) curve: the minimum
functional voltage at which it can run at a given frequency.  The paper relies on
these curves in two places:

* the MD-DVFS setup of Sec. 3 reduces V_SA and V_IO "proportionally to the minimum
  functional voltage corresponding to the new frequencies";
* the compute-domain power-budget manager (Sec. 4.4) picks the highest P-state that
  fits the allocated power budget, where each P-state pairs a frequency with the
  voltage the curve dictates.

The curve is modelled as a piecewise-linear interpolation over (frequency, voltage)
points with a flat floor at the minimum functional voltage ``vmin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


class VFCurveError(ValueError):
    """Raised when a V/F curve is constructed from invalid points."""


@dataclass(frozen=True)
class VFCurve:
    """Piecewise-linear minimum-voltage curve for a clocked component.

    Parameters
    ----------
    points:
        Sequence of ``(frequency_hz, voltage_v)`` pairs sorted by frequency.
        The lowest-frequency point defines the minimum functional voltage
        (``vmin``); the highest-frequency point defines ``fmax``.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise VFCurveError("a V/F curve needs at least two points")
        freqs = [f for f, _ in self.points]
        volts = [v for _, v in self.points]
        if any(f <= 0 for f in freqs):
            raise VFCurveError("frequencies must be positive")
        if any(v <= 0 for v in volts):
            raise VFCurveError("voltages must be positive")
        if sorted(freqs) != freqs or len(set(freqs)) != len(freqs):
            raise VFCurveError("points must be sorted by strictly increasing frequency")
        if sorted(volts) != volts:
            raise VFCurveError("voltage must be non-decreasing with frequency")

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "VFCurve":
        """Build a curve from any iterable of ``(frequency, voltage)`` pairs."""
        ordered = tuple(sorted((float(f), float(v)) for f, v in points))
        return cls(points=ordered)

    @property
    def fmin(self) -> float:
        """Lowest frequency on the curve (Hz)."""
        return self.points[0][0]

    @property
    def fmax(self) -> float:
        """Highest frequency on the curve (Hz)."""
        return self.points[-1][0]

    @property
    def vmin(self) -> float:
        """Minimum functional voltage (volts)."""
        return self.points[0][1]

    @property
    def vmax(self) -> float:
        """Voltage required at the highest frequency (volts)."""
        return self.points[-1][1]

    def voltage_at(self, frequency: float) -> float:
        """Return the minimum functional voltage for ``frequency``.

        Frequencies below ``fmin`` return ``vmin`` (the voltage floor); frequencies
        above ``fmax`` raise, because the component cannot be clocked there.
        """
        if frequency <= 0:
            raise VFCurveError(f"frequency must be positive, got {frequency}")
        if frequency > self.fmax * (1 + 1e-9):
            raise VFCurveError(
                f"frequency {frequency:.3e} Hz exceeds curve maximum {self.fmax:.3e} Hz"
            )
        if frequency <= self.fmin:
            return self.vmin
        for (f_lo, v_lo), (f_hi, v_hi) in zip(self.points, self.points[1:]):
            if f_lo <= frequency <= f_hi:
                if f_hi == f_lo:
                    return v_hi
                frac = (frequency - f_lo) / (f_hi - f_lo)
                return v_lo + frac * (v_hi - v_lo)
        return self.vmax


@dataclass(frozen=True)
class PState:
    """A single DVFS operating point of a compute-domain component (Sec. 4.4).

    ``name`` follows the conventional labelling where ``P0`` is the highest
    performance state and ``Pn`` is the most energy-efficient state (maximum
    frequency at the minimum functional voltage).
    """

    name: str
    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("P-state frequency must be positive")
        if self.voltage <= 0:
            raise ValueError("P-state voltage must be positive")


@dataclass
class PStateTable:
    """An ordered table of P-states for a CPU-core cluster or graphics engine.

    States are kept sorted by ascending frequency.  The table exposes the lookups
    the power-budget manager needs: the lowest and highest states and the most
    efficient state (``pn``).
    """

    states: List[PState] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a P-state table cannot be empty")
        self.states = sorted(self.states, key=lambda s: s.frequency)
        freqs = [s.frequency for s in self.states]
        if len(set(freqs)) != len(freqs):
            raise ValueError("P-state frequencies must be unique")

    @classmethod
    def from_curve(
        cls, curve: VFCurve, frequencies: Sequence[float], prefix: str = "P"
    ) -> "PStateTable":
        """Build a table by sampling a V/F curve at the given frequencies.

        States are named ``P0`` (highest frequency) down to ``P<n>`` (lowest),
        matching the convention of Sec. 4.4.
        """
        ordered = sorted(float(f) for f in frequencies)
        if not ordered:
            raise ValueError("at least one frequency is required")
        states = []
        total = len(ordered)
        for index, frequency in enumerate(ordered):
            name = f"{prefix}{total - 1 - index}"
            states.append(
                PState(name=name, frequency=frequency, voltage=curve.voltage_at(frequency))
            )
        return cls(states=states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    @property
    def min_state(self) -> PState:
        """The lowest-frequency state."""
        return self.states[0]

    @property
    def max_state(self) -> PState:
        """The highest-frequency state."""
        return self.states[-1]

    @property
    def pn(self) -> PState:
        """The most energy-efficient state: max frequency at the minimum voltage.

        The paper (Sec. 7.2) notes that during graphics and battery-life workloads
        the CPU cores run at ``Pn``.
        """
        vmin = self.states[0].voltage
        candidates = [s for s in self.states if abs(s.voltage - vmin) < 1e-9]
        return candidates[-1] if candidates else self.states[0]
