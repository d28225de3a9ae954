"""Shared fixtures: expensive platform/threshold construction is session-scoped."""

from __future__ import annotations

import pytest

from repro.core.operating_points import build_default_operating_points
from repro.core.sysscale import default_thresholds
from repro.experiments import build_context, registry
from repro.sim.engine import SimulationEngine
from repro.sim.platform import build_platform


@pytest.fixture(scope="session")
def platform():
    """The default Skylake 4.5 W evaluation platform."""
    return build_platform(tdp=4.5)


@pytest.fixture(scope="session")
def operating_points(platform):
    """The default high/low operating-point table."""
    return build_default_operating_points(platform)


@pytest.fixture(scope="session")
def thresholds(platform, operating_points):
    """Boundary-calibrated counter thresholds."""
    return default_thresholds(platform, operating_points)


@pytest.fixture(scope="session")
def engine(platform):
    """A simulation engine bound to the session platform."""
    return SimulationEngine(platform)


@pytest.fixture(scope="session")
def full_reports():
    """Every registered experiment at full size, run once per session.

    ``build_context()`` defaults (Skylake, 4.5 W, 1 s workloads), serial, no
    cache: the same outputs ``perfbench/pins.json`` pins as ``repro.full``.
    Keyed by experiment name.
    """
    context = build_context()
    return {name: spec.run(context) for name, spec in registry().items()}
