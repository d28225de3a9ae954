"""Phase-transition Markov models: long traces with realistic dwell structure.

Fig. 3 of the paper shows what real mobile workloads look like over time:
bandwidth demand does not wander randomly, it *dwells* in recognizable regimes
(idle, browsing burst, video, compute, memory-heavy) and recurs between them.
A :class:`PhaseMarkovModel` captures exactly that: a set of named states, each
an archetypal phase shape with a mean dwell time, plus a row-stochastic
transition matrix.  Walking the chain with a seeded generator emits arbitrarily
long, deterministic phase sequences with the Fig. 3 recurrence shape.

The models in :data:`MARKOV_MODELS` are reachable from the scenario catalog
through the ``markov`` generator (``model=<name>``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.numeric import ordered_sum
from repro.power.cstates import CStateResidency
from repro.scenarios.generators import (
    DEEP_IDLE_RESIDENCY,
    MIN_PHASE_DURATION,
    make_phase,
    register_generator,
)
from repro.workloads.trace import PerformanceMetric, Phase, WorkloadClass


@dataclass(frozen=True)
class MarkovState:
    """One regime: an archetypal phase shape plus its dwell-time scale.

    Demands are ``(low, high)`` GB/s ranges sampled per visit, so two visits to
    the same state differ in intensity the way Fig. 3's recurring bursts do.
    """

    name: str
    mean_dwell: float
    compute: float = 0.0
    gfx: float = 0.0
    memory_latency: float = 0.0
    memory_bandwidth: float = 0.0
    io: float = 0.0
    cpu_gbps: Tuple[float, float] = (0.2, 1.0)
    gfx_gbps: Tuple[float, float] = (0.0, 0.0)
    io_gbps: Tuple[float, float] = (0.0, 0.0)
    cpu_activity: float = 0.9
    gfx_activity: float = 0.0
    io_activity: float = 0.2
    active_cores: int = 2
    deep_idle: bool = False

    def __post_init__(self) -> None:
        if self.mean_dwell < MIN_PHASE_DURATION:
            raise ValueError(
                f"state {self.name!r}: mean dwell must be at least "
                f"{MIN_PHASE_DURATION} s, got {self.mean_dwell}"
            )
        for label in ("cpu_gbps", "gfx_gbps", "io_gbps"):
            low, high = getattr(self, label)
            if low < 0 or high < low:
                raise ValueError(
                    f"state {self.name!r}: {label} must be a non-negative "
                    f"(low, high) range, got ({low}, {high})"
                )

    def emit(self, rng: np.random.Generator, duration: float, index: int) -> Phase:
        """One phase for a visit of ``duration`` seconds."""
        residency = (
            CStateResidency(DEEP_IDLE_RESIDENCY) if self.deep_idle else None
        )
        return make_phase(
            f"{self.name}_{index}",
            duration,
            compute=self.compute,
            gfx=self.gfx,
            memory_latency=self.memory_latency,
            memory_bandwidth=self.memory_bandwidth,
            io=self.io,
            cpu_gbps=float(rng.uniform(*self.cpu_gbps)),
            gfx_gbps=float(rng.uniform(*self.gfx_gbps)),
            io_gbps=float(rng.uniform(*self.io_gbps)),
            cpu_activity=self.cpu_activity,
            gfx_activity=self.gfx_activity,
            io_activity=self.io_activity,
            active_cores=self.active_cores,
            residency=residency,
        )


@dataclass(frozen=True)
class PhaseMarkovModel:
    """A named chain over :class:`MarkovState` with a row-stochastic matrix."""

    name: str
    states: Tuple[MarkovState, ...]
    transitions: Tuple[Tuple[float, ...], ...]
    initial: Optional[Tuple[float, ...]] = None
    dwell_jitter: float = 0.4

    def __post_init__(self) -> None:
        n = len(self.states)
        if n == 0:
            raise ValueError(f"model {self.name!r} needs at least one state")
        if len(self.transitions) != n or any(len(row) != n for row in self.transitions):
            raise ValueError(f"model {self.name!r}: transition matrix must be {n}x{n}")
        for state, row in zip(self.states, self.transitions):
            if any(p < 0 for p in row):
                raise ValueError(
                    f"model {self.name!r}: negative transition probability "
                    f"from state {state.name!r}"
                )
            if abs(ordered_sum(row) - 1.0) > 1e-9:
                raise ValueError(
                    f"model {self.name!r}: transitions from state "
                    f"{state.name!r} must sum to 1, got {ordered_sum(row):.9f}"
                )
        if self.initial is not None:
            if len(self.initial) != n or abs(ordered_sum(self.initial) - 1.0) > 1e-9:
                raise ValueError(
                    f"model {self.name!r}: initial distribution must be a "
                    f"length-{n} probability vector"
                )
        if not 0.0 <= self.dwell_jitter < 1.0:
            raise ValueError(
                f"model {self.name!r}: dwell jitter must be in [0, 1), "
                f"got {self.dwell_jitter}"
            )

    def generate(self, rng: np.random.Generator, duration: float) -> List[Phase]:
        """Walk the chain until ``duration`` seconds of phases are emitted."""
        if duration < MIN_PHASE_DURATION:
            raise ValueError(
                f"duration must be at least {MIN_PHASE_DURATION} s, got {duration}"
            )
        n = len(self.states)
        initial = self.initial or tuple(1.0 / n for _ in range(n))
        state = int(rng.choice(n, p=initial))
        phases: List[Phase] = []
        elapsed = 0.0
        index = 0
        while duration - elapsed > 1e-9:
            current = self.states[state]
            dwell = current.mean_dwell * float(
                rng.uniform(1.0 - self.dwell_jitter, 1.0 + self.dwell_jitter)
            )
            remaining = duration - elapsed
            # Never leave a sub-tick stub behind: absorb a short remainder
            # into this visit instead of emitting a degenerate final phase.
            if remaining - dwell < MIN_PHASE_DURATION:
                dwell = remaining
            phases.append(current.emit(rng, dwell, index))
            elapsed += dwell
            index += 1
            state = int(rng.choice(n, p=self.transitions[state]))
        return phases


def _mobile_day_model() -> PhaseMarkovModel:
    """The Fig. 3 shape: idle <-> browse bursts, video spans, compute, thrash."""
    states = (
        MarkovState(
            "idle", mean_dwell=0.12, compute=0.08, io=0.05,
            cpu_gbps=(0.1, 0.4), io_gbps=(0.1, 0.4),
            cpu_activity=0.1, io_activity=0.15, active_cores=1, deep_idle=True,
        ),
        MarkovState(
            "browse", mean_dwell=0.06, compute=0.45, memory_latency=0.18,
            memory_bandwidth=0.1, io=0.06,
            cpu_gbps=(2.0, 9.0), io_gbps=(0.2, 1.0), cpu_activity=0.85,
        ),
        MarkovState(
            "video", mean_dwell=0.15, compute=0.15, gfx=0.2, io=0.15,
            memory_bandwidth=0.08,
            cpu_gbps=(0.5, 1.5), gfx_gbps=(1.0, 3.0), io_gbps=(1.5, 3.5),
            cpu_activity=0.3, gfx_activity=0.5, io_activity=0.7, active_cores=1,
        ),
        MarkovState(
            "compute", mean_dwell=0.1, compute=0.8, memory_latency=0.08,
            cpu_gbps=(1.0, 4.0), cpu_activity=0.95,
        ),
        MarkovState(
            "memory_heavy", mean_dwell=0.05, compute=0.2, memory_latency=0.25,
            memory_bandwidth=0.4,
            cpu_gbps=(14.0, 21.0), cpu_activity=0.95,
        ),
    )
    transitions = (
        (0.45, 0.30, 0.15, 0.08, 0.02),
        (0.25, 0.35, 0.10, 0.20, 0.10),
        (0.15, 0.10, 0.65, 0.05, 0.05),
        (0.10, 0.20, 0.05, 0.45, 0.20),
        (0.05, 0.15, 0.05, 0.35, 0.40),
    )
    return PhaseMarkovModel(name="mobile_day", states=states, transitions=transitions)


def _office_model() -> PhaseMarkovModel:
    """Productivity shape: long idle, typing bursts, occasional IO flushes."""
    states = (
        MarkovState(
            "idle", mean_dwell=0.2, compute=0.06, io=0.04,
            cpu_gbps=(0.1, 0.3), io_gbps=(0.1, 0.3),
            cpu_activity=0.08, io_activity=0.1, active_cores=1, deep_idle=True,
        ),
        MarkovState(
            "type", mean_dwell=0.08, compute=0.5, memory_latency=0.12, io=0.05,
            cpu_gbps=(1.0, 4.0), io_gbps=(0.2, 0.8),
            cpu_activity=0.7, active_cores=1,
        ),
        MarkovState(
            "recalc", mean_dwell=0.06, compute=0.65, memory_latency=0.15,
            memory_bandwidth=0.1,
            cpu_gbps=(4.0, 12.0), cpu_activity=0.95,
        ),
        MarkovState(
            "save", mean_dwell=0.04, compute=0.25, io=0.3,
            cpu_gbps=(0.5, 2.0), io_gbps=(2.0, 6.0),
            cpu_activity=0.5, io_activity=0.85, active_cores=1,
        ),
    )
    transitions = (
        (0.55, 0.35, 0.05, 0.05),
        (0.30, 0.45, 0.15, 0.10),
        (0.20, 0.40, 0.30, 0.10),
        (0.50, 0.35, 0.10, 0.05),
    )
    return PhaseMarkovModel(name="office", states=states, transitions=transitions)


def _thrash_cycle_model() -> PhaseMarkovModel:
    """Adversarial shape: compute spans punctuated by sticky thrash regimes."""
    states = (
        MarkovState(
            "compute", mean_dwell=0.08, compute=0.82, memory_latency=0.08,
            cpu_gbps=(1.0, 5.0), cpu_activity=0.95,
        ),
        MarkovState(
            "thrash", mean_dwell=0.07, compute=0.15, memory_latency=0.3,
            memory_bandwidth=0.45,
            cpu_gbps=(16.0, 21.5), cpu_activity=0.98,
        ),
    )
    transitions = (
        (0.7, 0.3),
        (0.35, 0.65),
    )
    return PhaseMarkovModel(name="thrash_cycle", states=states, transitions=transitions)


#: Named models reachable from the ``markov`` generator (``model=<name>``).
MARKOV_MODELS: Dict[str, PhaseMarkovModel] = {
    model.name: model
    for model in (_mobile_day_model(), _office_model(), _thrash_cycle_model())
}


@register_generator(
    "markov", WorkloadClass.CPU_MULTI_THREAD, PerformanceMetric.BENCHMARK_SCORE,
    "phase-transition Markov walk with realistic dwell/recurrence (Fig. 3 shape)",
)
def markov(
    rng: np.random.Generator,
    duration: float = 2.0,
    model: str = "mobile_day",
) -> List[Phase]:
    """A seeded walk of one of the :data:`MARKOV_MODELS` chains."""
    if model not in MARKOV_MODELS:
        raise KeyError(
            f"unknown Markov model {model!r}; known: {sorted(MARKOV_MODELS)}"
        )
    return MARKOV_MODELS[model].generate(rng, duration)
