"""``repro.obs``: the unified telemetry layer.

One subsystem gathers the repo's run statistics (engine loop counts, cache
hits and misses, executor progress, report runtime accounting):

* **metrics** -- counters/histograms/timers in a :class:`MetricsRegistry`;
  ambient accessors (``obs.counter(...)``) are no-ops while telemetry is
  disabled (the default).
* **spans** -- ``with obs.span("executor.run", jobs=n):`` times and nests
  the hot path from the CLI down to the engine.
* **engine traces** -- :class:`repro.sim.trace.EngineTraceRecorder` (owned
  by the sim layer so the engine never imports telemetry) captures the
  segment-stepping loop's per-segment timeline (phase, operating point, MRC
  set, per-domain power, memo hit/miss); the runtime emits its events here.
* **sinks** -- :class:`JsonlSink` event files, :class:`MemorySink` for
  tests, text renderers for ``--profile`` and ``trace describe``.
* **analysis** (:mod:`repro.obs.analysis`) -- the read side: typed trace
  models and their ``trace describe`` summary, ``trace diff`` attribution
  deltas, and Chrome ``trace_event`` export.

Everything is scoped through :func:`scoped`, which is how worker processes
isolate per-job metrics and merge them back to the parent.  Telemetry is
**inert with respect to results**: no job hash, cached payload, or
simulation output ever depends on obs state.

Typical use::

    from repro import obs
    obs.enable(trace_segments=True)
    obs.add_sink(obs.JsonlSink("trace.jsonl"))
    with obs.span("my.workflow"):
        ...
    summary = obs.snapshot()
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    render_metrics_text,
)
from repro.obs.sinks import JsonlSink, MemorySink, read_jsonl
from repro.obs.spans import Span, span
from repro.obs.state import (
    LEVELS,
    ObsScope,
    add_sink,
    configure,
    counter,
    current,
    disable,
    emit,
    enable,
    enabled,
    histogram,
    level,
    level_enabled,
    merge_snapshot,
    registry,
    remove_sink,
    reset,
    scoped,
    set_level,
    snapshot,
    timer,
    trace_enabled,
)
from repro.obs.logging import Console

__all__ = [
    "Console",
    "Counter",
    "Histogram",
    "JsonlSink",
    "LEVELS",
    "MemorySink",
    "MetricsRegistry",
    "ObsScope",
    "Span",
    "Timer",
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
    "read_jsonl",
    "registry",
    "remove_sink",
    "render_metrics_text",
    "reset",
    "scoped",
    "set_level",
    "snapshot",
    "span",
    "timer",
    "trace_enabled",
]
