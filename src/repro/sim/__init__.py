"""Trace-driven simulation engine.

The simulator steps a workload trace through time in 1 ms ticks on a modelled
platform (SoC description + power models + performance model), consults a DVFS
policy every evaluation interval (30 ms by default, Sec. 4.3), applies the policy's
operating-point decisions including the transition cost of the DVFS flow, and
integrates energy.  Results are returned as :class:`~repro.sim.result.SimulationResult`
objects that the experiment harness compares across policies.
"""

from repro.sim.policy import (
    Policy,
    PolicyAction,
    PolicyObservation,
    StaticDemandInfo,
)
from repro.sim.platform import Platform, build_platform
from repro.sim.engine import SimulationEngine, SimulationConfig
from repro.sim.result import SimulationResult, DomainEnergyBreakdown

__all__ = [
    "Policy",
    "PolicyAction",
    "PolicyObservation",
    "StaticDemandInfo",
    "Platform",
    "build_platform",
    "SimulationEngine",
    "SimulationConfig",
    "SimulationResult",
    "DomainEnergyBreakdown",
]
