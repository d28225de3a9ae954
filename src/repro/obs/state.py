"""Process-wide, explicitly-scopable telemetry state.

One :class:`ObsScope` is active at any time.  It bundles everything the
ambient accessors resolve against: whether telemetry is enabled, the log
level, the active :class:`~repro.obs.metrics.MetricsRegistry`, the event
sinks, and whether engine segment tracing is requested.  The default scope
is *disabled*, so an uninstrumented process pays only a list-index plus a
boolean test per call site.

``scoped()`` pushes a fresh scope (inheriting sinks/level unless overridden)
and pops it on exit.  That is how worker processes isolate per-job metrics
(fresh registry, inherited sinks) and how tests keep telemetry from leaking
between cases.

Telemetry state deliberately lives *outside* job specs: nothing here ever
feeds a content hash, a cached payload, or a simulation result.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
)

__all__ = [
    "LEVELS",
    "ObsScope",
    "add_sink",
    "configure",
    "counter",
    "current",
    "disable",
    "emit",
    "enable",
    "enabled",
    "histogram",
    "level",
    "level_enabled",
    "merge_snapshot",
    "registry",
    "remove_sink",
    "reset",
    "scoped",
    "set_level",
    "snapshot",
    "timer",
    "trace_enabled",
]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {number: name for name, number in LEVELS.items()}
_DEFAULT_LEVEL = LEVELS["info"]


def _coerce_level(value: Union[int, str]) -> int:
    if isinstance(value, str):
        try:
            return LEVELS[value.lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {value!r}; expected one of {sorted(LEVELS)}"
            ) from None
    return int(value)


class ObsScope:
    """One layer of telemetry state; see module docstring."""

    __slots__ = ("enabled", "level", "registry", "sinks", "trace_segments")

    def __init__(
        self,
        enabled: bool = False,
        level: int = _DEFAULT_LEVEL,
        registry: Optional[MetricsRegistry] = None,
        sinks: Optional[List[Any]] = None,
        trace_segments: bool = False,
    ) -> None:
        self.enabled = enabled
        self.level = level
        self.registry = registry if registry is not None else MetricsRegistry("ambient")
        self.sinks: List[Any] = sinks if sinks is not None else []
        self.trace_segments = trace_segments


_SCOPES: List[ObsScope] = [ObsScope()]


def current() -> ObsScope:
    return _SCOPES[-1]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def enabled() -> bool:
    return _SCOPES[-1].enabled


def trace_enabled() -> bool:
    scope = _SCOPES[-1]
    return scope.enabled and scope.trace_segments


def level() -> str:
    return _LEVEL_NAMES.get(_SCOPES[-1].level, str(_SCOPES[-1].level))


def level_enabled(name: Union[int, str]) -> bool:
    return _coerce_level(name) >= _SCOPES[-1].level


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def configure(
    enabled: Optional[bool] = None,
    level: Optional[Union[int, str]] = None,
    trace_segments: Optional[bool] = None,
) -> None:
    """Mutate the *current* scope in place."""
    scope = _SCOPES[-1]
    if enabled is not None:
        scope.enabled = enabled
    if level is not None:
        scope.level = _coerce_level(level)
    if trace_segments is not None:
        scope.trace_segments = trace_segments


def enable(trace_segments: Optional[bool] = None) -> None:
    configure(enabled=True, trace_segments=trace_segments)


def disable() -> None:
    configure(enabled=False)


def set_level(name: Union[int, str]) -> None:
    configure(level=name)


def reset() -> None:
    """Drop every scope and return to the disabled default state."""
    _SCOPES[:] = [ObsScope()]


@contextlib.contextmanager
def scoped(
    enabled: bool = True,
    registry: Optional[MetricsRegistry] = None,
    sinks: Optional[List[Any]] = None,
    level: Optional[Union[int, str]] = None,
    trace_segments: Optional[bool] = None,
) -> Iterator[ObsScope]:
    """Push a fresh scope (new registry unless given; inherited sinks, level
    and trace flag unless overridden), yield it, and pop on exit."""
    parent = _SCOPES[-1]
    scope = ObsScope(
        enabled=enabled,
        level=parent.level if level is None else _coerce_level(level),
        registry=registry,
        sinks=list(parent.sinks) if sinks is None else sinks,
        trace_segments=(
            parent.trace_segments if trace_segments is None else trace_segments
        ),
    )
    _SCOPES.append(scope)
    try:
        yield scope
    finally:
        _SCOPES.remove(scope)


# ----------------------------------------------------------------------
# Instruments (ambient accessors; no-op when disabled)
# ----------------------------------------------------------------------
def counter(name: str) -> Counter:
    scope = _SCOPES[-1]
    return scope.registry.counter(name) if scope.enabled else NULL_INSTRUMENT


def histogram(name: str) -> Histogram:
    scope = _SCOPES[-1]
    return scope.registry.histogram(name) if scope.enabled else NULL_INSTRUMENT


def timer(name: str) -> Timer:
    scope = _SCOPES[-1]
    return scope.registry.timer(name) if scope.enabled else NULL_INSTRUMENT


def registry() -> MetricsRegistry:
    """The current scope's registry (live even while telemetry is disabled)."""
    return _SCOPES[-1].registry


def snapshot() -> Dict[str, Any]:
    return _SCOPES[-1].registry.snapshot()


def merge_snapshot(data: Dict[str, Any]) -> None:
    """Fold a worker registry snapshot into the current scope's registry."""
    scope = _SCOPES[-1]
    if scope.enabled:
        scope.registry.merge(data)


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def add_sink(sink: Any) -> Any:
    _SCOPES[-1].sinks.append(sink)
    return sink


def remove_sink(sink: Any) -> None:
    with contextlib.suppress(ValueError):
        _SCOPES[-1].sinks.remove(sink)


def emit(event: Dict[str, Any]) -> None:
    scope = _SCOPES[-1]
    if not scope.enabled:
        return
    for sink in scope.sinks:
        sink.emit(event)
