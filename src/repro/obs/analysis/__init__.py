"""``repro.obs.analysis``: the read side of the telemetry layer.

PR 6 made the stack *emit* telemetry; this package *consumes* it:

* **model** -- :class:`TraceModel` parses a ``--trace-out`` JSONL stream back
  into typed engine runs, segments (with their :class:`OperatingPoint`),
  spans, and logs, and rolls them up into the summary ``repro trace
  describe`` prints.
* **diff** -- :func:`diff_traces` aligns two traces by ``(workload, policy,
  phase, operating point)`` attribution buckets and reports where segment
  time, model evaluations, and memo misses moved (``repro trace diff``).
* **chrome** -- :func:`export_chrome_trace` renders the span waterfall and
  the simulated-time segment timeline as Chrome/Perfetto ``trace_event``
  JSON (``repro trace export --chrome``).

Everything here is read-only over recorded events: analysis can never
perturb simulation results.
"""

from repro.obs.analysis.chrome import chrome_trace_events, export_chrome_trace
from repro.obs.analysis.diff import (
    AttributionBucket,
    DiffRow,
    TraceDiff,
    attribution,
    diff_traces,
    render_diff_text,
)
from repro.obs.analysis.model import (
    EngineRun,
    OperatingPoint,
    TraceModel,
    TraceSegment,
    TraceTransition,
    load_trace,
)

__all__ = [
    "AttributionBucket",
    "DiffRow",
    "EngineRun",
    "OperatingPoint",
    "TraceDiff",
    "TraceModel",
    "TraceSegment",
    "TraceTransition",
    "attribution",
    "chrome_trace_events",
    "diff_traces",
    "export_chrome_trace",
    "load_trace",
    "render_diff_text",
]
