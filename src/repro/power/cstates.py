"""Package C-states, residency profiles, and hardware duty cycling.

Battery-life workloads (Sec. 7.3) have fixed performance demands and long idle
phases: the SoC is in the active C0 state only 10-40 % of the time and spends the
rest in package idle states (C2, C6, C7, C8).  DRAM is active (and therefore
subject to SysScale's DVFS) only in C0 and C2; in deeper states DRAM is in
self-refresh and the compute domain is clock- or power-gated.

Hardware duty cycling (HDC, footnote 10) reduces the *effective* CPU frequency
below Pn at very low TDPs by periodically forcing idle states, which is modelled
here as a duty-cycle multiplier on active residency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro import config
from repro.numeric import ordered_sum


class CState(str, enum.Enum):
    """Package power states referenced by the paper (Sec. 7.3, [24, 26, 27, 101])."""

    C0 = "C0"
    C2 = "C2"
    C6 = "C6"
    C7 = "C7"
    C8 = "C8"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Whether DRAM is active (out of self-refresh) in each package state (Sec. 7.3).
DRAM_ACTIVE_STATES = frozenset({CState.C0, CState.C2})

#: Residual package power (compute domain + always-on logic, excluding the IO and
#: memory domains) in each idle state, watts.
IDLE_PACKAGE_POWER: Dict[CState, float] = {
    CState.C2: config.PACKAGE_C2_POWER,
    CState.C6: config.PACKAGE_C6_POWER,
    CState.C7: config.PACKAGE_C7_POWER,
    CState.C8: config.PACKAGE_C8_POWER,
}


@dataclass(frozen=True)
class CStateResidency:
    """A residency profile: the fraction of time spent in each package state.

    Residencies must sum to 1.  The paper quotes, for video playback, residencies
    of 10 % C0, 5 % C2, and 85 % C8 (Sec. 7.3).
    """

    residencies: Mapping[CState, float] = field(
        default_factory=lambda: {CState.C0: 1.0}
    )

    def __post_init__(self) -> None:
        total = ordered_sum(self.residencies.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"residencies must sum to 1, got {total}")
        for state, value in self.residencies.items():
            if not isinstance(state, CState):
                raise TypeError("residency keys must be CState members")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"residency of {state} must be in [0, 1]")

    @classmethod
    def active_only(cls) -> "CStateResidency":
        """A profile that is 100 % C0 (CPU and graphics benchmarks)."""
        return cls({CState.C0: 1.0})

    @classmethod
    def video_playback(cls) -> "CStateResidency":
        """The C0/C2/C8 = 10/5/85 % profile quoted for video playback (Sec. 7.3)."""
        return cls({CState.C0: 0.10, CState.C2: 0.05, CState.C8: 0.85})

    def fraction(self, state: CState) -> float:
        """Residency of ``state`` (0 if not present)."""
        return self.residencies.get(state, 0.0)

    @property
    def active_fraction(self) -> float:
        """Fraction of time in C0."""
        return self.fraction(CState.C0)

    @property
    def dram_active_fraction(self) -> float:
        """Fraction of time DRAM is out of self-refresh (C0 + C2).

        This bounds how much of the time SysScale's IO/memory DVFS can matter for a
        battery-life workload (Sec. 7.3, third observation).
        """
        return ordered_sum(self.fraction(state) for state in DRAM_ACTIVE_STATES)

    @property
    def idle_fraction(self) -> float:
        """Fraction of time in any non-C0 state."""
        return 1.0 - self.active_fraction

    def idle_package_power(self) -> float:
        """Average residual package power contributed by the idle states (watts)."""
        return ordered_sum(
            self.fraction(state) * IDLE_PACKAGE_POWER.get(state, 0.0)
            for state in self.residencies
            if state is not CState.C0
        )

    def scaled_active(self, active_fraction: float) -> "CStateResidency":
        """Return a profile with C0 residency set to ``active_fraction``.

        The non-C0 states keep their relative proportions.  Used to model
        race-to-sleep effects when compute frequency changes.
        """
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError("active fraction must be in (0, 1]")
        current_idle = self.idle_fraction
        if current_idle <= 0.0:
            return CStateResidency({CState.C0: 1.0})
        new_idle = 1.0 - active_fraction
        scale = new_idle / current_idle
        scaled = {CState.C0: active_fraction}
        for state, value in self.residencies.items():
            if state is CState.C0:
                continue
            scaled[state] = value * scale
        return CStateResidency(scaled)


@dataclass(frozen=True)
class HardwareDutyCycling:
    """Hardware duty cycling (HDC / SoC duty cycling, footnote 10).

    At very low TDPs the effective CPU frequency is reduced below Pn by forcing
    coarse-grained idle periods (C-states with power gating).  The model expresses
    this as a duty cycle in (0, 1]: effective frequency = duty_cycle * frequency.
    """

    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")

    def effective_frequency(self, frequency: float) -> float:
        """Effective (time-averaged) frequency under duty cycling."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        return self.duty_cycle * frequency

    def average_power(self, active_power: float, gated_power: float = 0.0) -> float:
        """Time-averaged power when duty-cycling between active and gated power."""
        if active_power < 0 or gated_power < 0:
            raise ValueError("power values must be non-negative")
        return self.duty_cycle * active_power + (1.0 - self.duty_cycle) * gated_power
