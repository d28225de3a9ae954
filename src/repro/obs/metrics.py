"""The metrics registry: counters, histograms, and timers.

A :class:`MetricsRegistry` is a plain in-process container of named
instruments.  Registries are *explicitly scopable*: any component may own one
(the :class:`~repro.experiments.runner.ExperimentRuntime` does, so its
accounting works with ambient telemetry off), and the process-wide ambient
registry in :mod:`repro.obs.state` is just the registry the module-level
accessors (``obs.counter(...)``) resolve to.

Instruments are deliberately tiny -- a couple of attribute updates per
operation -- and the ambient accessors return the shared
:data:`NULL_INSTRUMENT` when telemetry is disabled, so instrumented call
sites cost one function call and a no-op method on the fast path.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts, and
:meth:`MetricsRegistry.merge` folds one snapshot into another registry --
counters add, histogram moments combine -- which is how worker processes
report their per-job metrics back to the parent through the pool.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "Timer",
    "render_metrics_text",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Distribution moments of observed values (count/sum/min/max)."""

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "sum": self.sum, "min": self.min, "max": self.max}

    def merge_raw(self, data: Dict[str, Any]) -> None:
        """Fold another histogram's moments into this one."""
        self.count += int(data.get("count", 0))
        self.sum += float(data.get("sum", 0.0))
        for bound, better in (("min", min), ("max", max)):
            other = data.get(bound)
            if other is None:
                continue
            mine = getattr(self, bound)
            setattr(self, bound, other if mine is None else better(mine, other))


class _TimerContext:
    __slots__ = ("_timer", "_started")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self._started = 0.0

    def __enter__(self) -> "_TimerContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.observe(time.perf_counter() - self._started)


class Timer(Histogram):
    """A histogram of elapsed seconds with a ``with timer.time():`` helper."""

    __slots__ = ()

    def time(self) -> _TimerContext:
        return _TimerContext(self)


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class _NullInstrument:
    """The disabled-telemetry fast path: every operation is a no-op."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def time(self) -> _NullContext:
        return _NULL_CONTEXT


_NULL_CONTEXT = _NullContext()

#: Shared no-op instrument returned by the ambient accessors when disabled.
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """A named collection of instruments, created on first use."""

    __slots__ = ("name", "_counters", "_histograms", "_timers")

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    # ------------------------------------------------------------------
    # Snapshots and aggregation
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-able view of every instrument's current state."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {
                name: h.as_dict() for name, h in sorted(self._histograms.items())
            },
            "timers": {name: t.as_dict() for name, t in sorted(self._timers.items())},
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry (e.g. a worker
        process) into this one: counters add, histogram/timer moments
        combine."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_raw(data)
        for name, data in snapshot.get("timers", {}).items():
            self.timer(name).merge_raw(data)

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"MetricsRegistry({self.name!r}: {len(self._counters)} counter(s), "
            f"{len(self._histograms)} histogram(s), {len(self._timers)} timer(s))"
        )


def _format_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_metrics_text(snapshot: Dict[str, Any], title: str = "metrics") -> str:
    """An aligned human-readable rendering of a registry snapshot."""
    lines = [f"{title}:"]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name, value in counters.items():
            lines.append(f"    {name}: {_format_value(value)}")
    for kind in ("histograms", "timers"):
        entries = snapshot.get(kind, {})
        if not entries:
            continue
        lines.append(f"  {kind}:")
        for name, data in entries.items():
            count = data.get("count", 0)
            mean = data.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"    {name}: count={count} sum={_format_value(data.get('sum'))}"
                f" mean={_format_value(mean)}"
                f" min={_format_value(data.get('min'))}"
                f" max={_format_value(data.get('max'))}"
            )
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)
