"""Policy interface between the simulation engine and DVFS policies.

A *policy* is whatever decides the operating point of the IO and memory domains
and how much package budget those domains are charged for: the fixed baseline, the
static MD-DVFS setup of Sec. 3, or SysScale itself (``repro.core``).  The engine
calls the policy once per evaluation interval with a :class:`PolicyObservation`
(averaged performance counters plus the static peripheral configuration -- exactly
the inputs Sec. 4.2/4.3 give the PMU firmware) and receives a
:class:`PolicyAction` describing the target IO/memory configuration, the budget to
charge, and the transition cost of getting there.

A :class:`StaticPolicy` is one that never reads an observation: it picks its
action in ``reset`` and keeps it for the whole run (the SysScale-disabled
baseline and the Table 1 MD-DVFS setup).  Its ``decide`` is inherited, never
overridden, which is how the engine recognises it and skips the evaluations
nobody reads; a subclass that overrides ``decide`` is observed like any other
policy.

A policy class may also declare :attr:`Policy.decides_from_counters`: its
``decide`` reads only the observation's counters and static demand, plus
state that changes only on a transition.  Then a ``decide`` that returned the
action in force would return that same action object for any observation
bit-equal to the one it saw (the ``time`` aside), so the engine skips the
evaluations of each *steady window* -- a whole window of the same segment and
length as the last one whose decision kept the action -- and only counts them.
The declaration is a promise about the class, not a setting; SysScale makes
it (:mod:`repro.core.sysscale`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro import config
from repro.perf.counters import CounterSample
from repro.workloads.io_devices import PeripheralConfiguration
from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class StaticDemandInfo:
    """The static (configuration-determined) demand visible to the PMU (Sec. 4.2)."""

    peripherals: PeripheralConfiguration = field(default_factory=PeripheralConfiguration)

    @property
    def bandwidth_demand(self) -> float:
        """Static memory-bandwidth demand in bytes/s."""
        return self.peripherals.static_bandwidth_demand

    @property
    def latency_sensitive(self) -> bool:
        """True when QoS-critical isochronous traffic is configured."""
        return self.peripherals.has_isochronous_traffic


@dataclass(frozen=True)
class PolicyObservation:
    """What the PMU sees at the end of one evaluation interval.

    ``counters`` is the interval-averaged sample (Sec. 4.3).  ``samples``
    records how many 1 ms PMU samples that average covers; the segment-stepping
    engine accumulates them as running sums rather than materialized samples,
    so this count is the only remaining trace of the individual ticks.  The
    default (0) means "unknown" for observations built outside the engine.
    """

    counters: CounterSample
    static_demand: StaticDemandInfo
    time: float
    workload_class: str
    evaluation_interval: float = config.EVALUATION_INTERVAL
    samples: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation interval must be positive")
        if self.samples < 0:
            raise ValueError("sample count must be non-negative")


@dataclass(frozen=True)
class PolicyAction:
    """The target IO/memory-domain configuration a policy requests.

    ``io_memory_budget`` is the power the PBM charges against the TDP for the IO
    and memory domains while this action is in force; for the baseline this is the
    fixed worst-case reservation, for SysScale it is the (smaller) provisioned
    power of the selected operating point, which is what frees budget for the
    compute domain (Sec. 4.3).  ``transition_latency`` is the cost of moving to
    this action from a *different* one (the engine charges it only on changes).
    """

    name: str
    dram_frequency: float
    interconnect_frequency: float
    v_sa_scale: float
    v_io_scale: float
    mrc_optimized: bool
    io_memory_budget: float
    transition_latency: float = config.TRANSITION_TOTAL_LATENCY_BUDGET

    def __post_init__(self) -> None:
        if self.dram_frequency <= 0 or self.interconnect_frequency <= 0:
            raise ValueError("frequencies must be positive")
        for scale_name in ("v_sa_scale", "v_io_scale"):
            if not 0 < getattr(self, scale_name) <= 1.5:
                raise ValueError(f"{scale_name} must be in (0, 1.5]")
        if self.io_memory_budget < 0:
            raise ValueError("IO+memory budget must be non-negative")
        if self.transition_latency < 0:
            raise ValueError("transition latency must be non-negative")

    def same_operating_point(self, other: Optional["PolicyAction"]) -> bool:
        """True when ``other`` selects the same IO/memory configuration."""
        if other is None:
            return False
        return (
            abs(self.dram_frequency - other.dram_frequency) < 1e3
            and abs(self.interconnect_frequency - other.interconnect_frequency) < 1e3
            and abs(self.v_sa_scale - other.v_sa_scale) < 1e-9
            and abs(self.v_io_scale - other.v_io_scale) < 1e-9
            and self.mrc_optimized == other.mrc_optimized
        )


class Policy(abc.ABC):
    """Base class for IO/memory-domain DVFS policies."""

    #: Human-readable policy name used in result tables.
    name: str = "policy"

    #: The promise that ``decide`` depends only on the observation's counters
    #: and static demand and on state that changes only on a transition: a
    #: decision that returned the action in force returns that same object
    #: again for a bit-equal observation.  The engine then counts, rather
    #: than observes, the evaluations of a steady window.  A subclass whose
    #: ``decide`` breaks the promise must set it back to ``False``.
    decides_from_counters: ClassVar[bool] = False

    @abc.abstractmethod
    def reset(self, platform, trace: WorkloadTrace) -> PolicyAction:
        """Prepare for a new run and return the initial action.

        ``platform`` is a :class:`repro.sim.platform.Platform`; the parameter is
        untyped here to keep this module free of upward imports.
        """

    @abc.abstractmethod
    def decide(self, observation: PolicyObservation) -> PolicyAction:
        """Return the action for the next evaluation interval."""


class StaticPolicy(Policy):
    """A policy whose action is fixed at ``reset`` and never reads a counter.

    Subclasses build the run's single action in ``reset`` and store it in
    ``_action``; the inherited :meth:`decide` returns it unchanged.
    """

    _action: Optional[PolicyAction] = None

    def decide(self, observation: PolicyObservation) -> PolicyAction:
        """Return the action chosen at reset; the observation is ignored."""
        del observation
        if self._action is None:
            raise RuntimeError("reset() must be called before decide()")
        return self._action
