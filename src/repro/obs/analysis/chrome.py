"""Chrome/Perfetto ``trace_event`` export of a recorded telemetry trace.

``repro trace export PATH --chrome OUT`` converts a ``--trace-out`` JSONL
file into the Trace Event Format every Chromium-derived viewer reads
(``chrome://tracing``, https://ui.perfetto.dev): a campaign's whole waterfall
-- CLI span tree down to individual engine segments -- opens in a real trace
viewer instead of a terminal table.

Two kinds of timeline coexist in one export, kept on separate process rows:

* **Spans** (wall time).  Span events are emitted at *exit* and carry only
  depth and duration, so the exporter reconstructs a consistent waterfall:
  exits arrive in post-order, meaning the depth-``d+1`` exits seen since the
  last depth-``d`` exit are exactly that span's children.  Children are laid
  out back-to-back from their parent's start.  Offsets between siblings are
  therefore synthetic (gaps inside a parent are not recoverable), but every
  duration and every nesting edge is real.
* **Engine segments and transitions** (simulated time).  These carry exact
  simulated timestamps, so they plot verbatim -- one thread row per engine
  run, segment name = phase, args = operating point, per-domain power, memo
  hit/miss.  Transitions render on the same row.

Timestamps are microseconds (the format's unit); log events have no
timestamps at all and are skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.analysis.model import EngineRun, TraceModel

__all__ = ["chrome_trace_events", "export_chrome_trace"]

#: Process ids for the two timeline families (arbitrary but stable).
_SPAN_PID = 1
_ENGINE_PID = 2


@dataclass
class _SpanNode:
    """One reconstructed span with its children (post-order assembly)."""

    name: str
    duration: float
    fields: Dict[str, Any]
    children: List["_SpanNode"] = field(default_factory=list)
    start: float = 0.0


def _build_span_forest(spans: List[Dict[str, Any]]) -> List[_SpanNode]:
    """Rebuild the span tree from exit-ordered events (see module docstring)."""
    pending: Dict[int, List[_SpanNode]] = {}
    for event in spans:
        depth = int(event.get("depth", 0))
        fields = {
            key: value
            for key, value in event.items()
            if key not in ("type", "name", "depth", "duration_s")
        }
        node = _SpanNode(
            name=str(event.get("name", "?")),
            duration=float(event.get("duration_s", 0.0)),
            fields=fields,
            children=pending.pop(depth + 1, []),
        )
        pending.setdefault(depth, []).append(node)
    # Any depth>0 leftovers (a trace cut mid-span) surface as roots rather
    # than vanishing.
    roots: List[_SpanNode] = []
    for depth in sorted(pending):
        roots.extend(pending[depth])
    return roots


def _place(node: _SpanNode, start: float) -> float:
    """Assign start times: children back-to-back from the parent's start."""
    node.start = start
    cursor = start
    for child in node.children:
        cursor = _place(child, cursor)
    return max(cursor, start + node.duration)


def _span_events(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    roots = _build_span_forest(spans)
    cursor = 0.0
    for root in roots:
        cursor = _place(root, cursor)
    events: List[Dict[str, Any]] = []

    def emit(node: _SpanNode, depth: int) -> None:
        events.append(
            {
                "ph": "X",
                "pid": _SPAN_PID,
                "tid": 1,
                "name": node.name,
                "cat": "span",
                "ts": node.start * 1e6,
                "dur": node.duration * 1e6,
                "args": {"depth": depth, **node.fields},
            }
        )
        for child in node.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return events


def _engine_events(runs: List[EngineRun]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for tid, run in enumerate(runs, start=1):
        title = f"{run.workload or run.key}/{run.policy}" if run.policy else (
            run.workload or run.key
        )
        events.append(
            {
                "ph": "M",
                "pid": _ENGINE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": title},
            }
        )
        for segment in run.segments:
            events.append(
                {
                    "ph": "X",
                    "pid": _ENGINE_PID,
                    "tid": tid,
                    "name": segment.phase,
                    "cat": "engine.segment",
                    "ts": segment.time * 1e6,
                    "dur": segment.duration * 1e6,
                    "args": {
                        "ticks": segment.ticks,
                        "memo_hit": segment.memo_hit,
                        "bandwidth_gbps": segment.bandwidth / 1e9,
                        "power_w": segment.total_power,
                        **segment.point.to_dict(),
                    },
                }
            )
        for transition in run.transitions:
            events.append(
                {
                    "ph": "X",
                    "pid": _ENGINE_PID,
                    "tid": tid,
                    "name": "transition",
                    "cat": "engine.transition",
                    "ts": transition.time * 1e6,
                    "dur": transition.latency * 1e6,
                    "args": {
                        "from_dram_frequency": transition.from_dram_frequency,
                        "to_dram_frequency": transition.to_dram_frequency,
                    },
                }
            )
    return events


def chrome_trace_events(model: TraceModel) -> Dict[str, Any]:
    """The full Trace Event Format document for one parsed trace."""
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _SPAN_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro spans (wall time, reconstructed)"},
        },
        {
            "ph": "M",
            "pid": _ENGINE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro engine (simulated time)"},
        },
    ]
    events.extend(_span_events(model.spans))
    events.extend(_engine_events(model.runs))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro trace export --chrome",
            "skipped_log_events": len(model.logs),
        },
    }


def export_chrome_trace(
    model: TraceModel, path: Union[str, Path]
) -> Dict[str, Any]:
    """Write the Chrome trace document for ``model`` to ``path``."""
    document = chrome_trace_events(model)
    out = Path(path)
    if str(out.parent) not in ("", "."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return document
