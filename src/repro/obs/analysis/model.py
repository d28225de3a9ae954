"""A typed model over recorded telemetry event streams.

PR 6's sinks write flat JSONL: one dict per event, ``type`` discriminated
(``span``, ``log``, ``engine.segment``, ``engine.transition``, ``engine.run``).
That format is perfect for appending from forked workers and terrible for
asking questions.  :class:`TraceModel` parses a stream back into structure:

* engine events regroup into :class:`EngineRun`\\ s -- segments and
  transitions attached to the run that produced them.  Events stamped with a
  ``job_hash`` (everything the runtime emits via ``execute_job_with_stats``)
  group by that hash, so traces written by interleaved worker processes
  reassemble correctly; unstamped events (a bare ``EngineTraceRecorder``)
  fall back to stream order, closing at each ``engine.run`` summary.
* each segment carries its :class:`OperatingPoint` -- the exact
  (frequencies, rail scales, MRC set) tuple the engine's memo keys on --
  which is what lets ``trace diff`` align two runs phase-by-phase even when
  the runs executed jobs in different orders.
* spans and logs are collected as-is for the waterfall export and the
  :meth:`TraceModel.summary` that ``repro trace describe`` prints.

Nothing here re-derives simulation results; the model is a read-only view of
what the recorder observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.sinks import read_jsonl

__all__ = [
    "EngineRun",
    "OperatingPoint",
    "TraceModel",
    "TraceSegment",
    "TraceTransition",
    "load_trace",
]


@dataclass(frozen=True)
class OperatingPoint:
    """The SoC state a segment ran under, as the memo key sees it.

    Hashable so attribution buckets key on it directly; formatted compactly
    for tables (``1.067GHz io=0.8GHz cpu=2.6GHz opt``).
    """

    dram_frequency: float
    interconnect_frequency: float
    cpu_frequency: float
    gfx_frequency: float
    v_sa_scale: float
    v_io_scale: float
    mrc_optimized: bool

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "OperatingPoint":
        return cls(
            dram_frequency=float(event.get("dram_frequency", 0.0)),
            interconnect_frequency=float(event.get("interconnect_frequency", 0.0)),
            cpu_frequency=float(event.get("cpu_frequency", 0.0)),
            gfx_frequency=float(event.get("gfx_frequency", 0.0)),
            v_sa_scale=float(event.get("v_sa_scale", 1.0)),
            v_io_scale=float(event.get("v_io_scale", 1.0)),
            mrc_optimized=bool(event.get("mrc_optimized", False)),
        )

    @property
    def label(self) -> str:
        parts = [
            f"dram={self.dram_frequency / 1e9:.3f}GHz",
            f"io={self.interconnect_frequency / 1e9:.2f}GHz",
            f"cpu={self.cpu_frequency / 1e9:.2f}GHz",
        ]
        if self.mrc_optimized:
            parts.append("mrc-opt")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dram_frequency": self.dram_frequency,
            "interconnect_frequency": self.interconnect_frequency,
            "cpu_frequency": self.cpu_frequency,
            "gfx_frequency": self.gfx_frequency,
            "v_sa_scale": self.v_sa_scale,
            "v_io_scale": self.v_io_scale,
            "mrc_optimized": self.mrc_optimized,
        }


@dataclass(frozen=True)
class TraceSegment:
    """One replayed segment, typed: an ``engine.segment`` event read back
    (written by ``repro.sim.trace.EngineTraceRecorder.record_segment``)."""

    time: float
    duration: float
    ticks: int
    phase: str
    memo_hit: bool
    point: OperatingPoint
    bandwidth: float
    compute_power: float
    io_power: float
    memory_power: float
    platform_power: float

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "TraceSegment":
        return cls(
            time=float(event.get("t", 0.0)),
            duration=float(event.get("duration_s", 0.0)),
            ticks=int(event.get("ticks", 0)),
            phase=str(event.get("phase", "?")),
            memo_hit=bool(event.get("memo_hit", False)),
            point=OperatingPoint.from_event(event),
            bandwidth=float(event.get("bandwidth", 0.0)),
            compute_power=float(event.get("compute_power", 0.0)),
            io_power=float(event.get("io_power", 0.0)),
            memory_power=float(event.get("memory_power", 0.0)),
            platform_power=float(event.get("platform_power", 0.0)),
        )

    @property
    def total_power(self) -> float:
        return (
            self.compute_power + self.io_power + self.memory_power + self.platform_power
        )


@dataclass(frozen=True)
class TraceTransition:
    """One operating-point transition, typed."""

    time: float
    latency: float
    from_dram_frequency: float
    to_dram_frequency: float

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "TraceTransition":
        return cls(
            time=float(event.get("t", 0.0)),
            latency=float(event.get("latency_s", 0.0)),
            from_dram_frequency=float(event.get("from_dram_frequency", 0.0)),
            to_dram_frequency=float(event.get("to_dram_frequency", 0.0)),
        )


@dataclass
class EngineRun:
    """One engine run reassembled from its segment/transition/summary events."""

    key: str
    workload: str = ""
    policy: str = ""
    job_hash: Optional[str] = None
    segments: List[TraceSegment] = field(default_factory=list)
    transitions: List[TraceTransition] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return sum(segment.duration for segment in self.segments)

    @property
    def ticks(self) -> int:
        return sum(segment.ticks for segment in self.segments)

    @property
    def model_evaluations(self) -> int:
        return sum(1 for segment in self.segments if not segment.memo_hit)


class TraceModel:
    """A parsed telemetry event stream; see the module docstring."""

    def __init__(self, events: Iterable[Dict[str, Any]]) -> None:
        self.events: List[Dict[str, Any]] = list(events)
        self.runs: List[EngineRun] = []
        self.spans: List[Dict[str, Any]] = []
        self.logs: List[Dict[str, Any]] = []
        self.other: List[Dict[str, Any]] = []
        self._parse()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceModel":
        """Parse a ``--trace-out`` JSONL file."""
        return cls(read_jsonl(path))

    def _run_for(
        self, runs_by_key: Dict[str, EngineRun], event: Dict[str, Any]
    ) -> EngineRun:
        """The open run this engine event belongs to (created on first use).

        ``job_hash``-stamped events key by hash; unstamped events share the
        anonymous in-order run, which ``engine.run`` summaries close.
        """
        key = event.get("job_hash")
        key = str(key) if key is not None else "<stream>"
        run = runs_by_key.get(key)
        if run is None:
            run = EngineRun(
                key=f"run-{len(self.runs)}",
                job_hash=event.get("job_hash"),
            )
            runs_by_key[key] = run
            self.runs.append(run)
        return run

    def _parse(self) -> None:
        open_runs: Dict[str, EngineRun] = {}
        for event in self.events:
            event_type = str(event.get("type", "unknown"))
            if event_type == "engine.segment":
                self._run_for(open_runs, event).segments.append(
                    TraceSegment.from_event(event)
                )
            elif event_type == "engine.transition":
                self._run_for(open_runs, event).transitions.append(
                    TraceTransition.from_event(event)
                )
            elif event_type == "engine.run":
                run = self._run_for(open_runs, event)
                run.workload = str(event.get("workload", ""))
                run.policy = str(event.get("policy", ""))
                # The summary is the recorder's final event: close the run so
                # a later unstamped run starts fresh.
                key = event.get("job_hash")
                open_runs.pop(str(key) if key is not None else "<stream>", None)
            elif event_type == "span":
                self.spans.append(event)
            elif event_type == "log":
                self.logs.append(event)
            else:
                self.other.append(event)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def segments(self) -> List[TraceSegment]:
        return [segment for run in self.runs for segment in run.segments]

    @property
    def transitions(self) -> List[TraceTransition]:
        return [transition for run in self.runs for transition in run.transitions]

    def describe(self) -> Dict[str, Any]:
        """Headline counts, for quick orientation and error messages."""
        return {
            "events": len(self.events),
            "engine_runs": len(self.runs),
            "segments": len(self.segments),
            "transitions": len(self.transitions),
            "spans": len(self.spans),
            "logs": len(self.logs),
        }

    def summary(self) -> Dict[str, Any]:
        """The ``repro trace describe`` document: event counts by type,
        engine totals, per-domain energy, DRAM-frequency and phase residency,
        span timings, and log levels.  Empty sections are omitted."""
        by_type: Dict[str, int] = {}
        for event in self.events:
            event_type = str(event.get("type", "unknown"))
            by_type[event_type] = by_type.get(event_type, 0) + 1
        segments = self.segments
        engine: Dict[str, Any] = {
            "runs": by_type.get("engine.run", 0),
            "segments": len(segments),
            "ticks": 0,
            "memo_hits": 0,
            "transitions": len(self.transitions),
            "simulated_s": 0.0,
        }
        energy = {"compute": 0.0, "io": 0.0, "memory": 0.0, "platform": 0.0}
        dram_residency: Dict[str, float] = {}
        phase_residency: Dict[str, float] = {}
        for segment in segments:
            duration = segment.duration
            engine["ticks"] += segment.ticks
            engine["memo_hits"] += int(segment.memo_hit)
            engine["simulated_s"] += duration
            energy["compute"] += segment.compute_power * duration
            energy["io"] += segment.io_power * duration
            energy["memory"] += segment.memory_power * duration
            energy["platform"] += segment.platform_power * duration
            dram = f"{segment.point.dram_frequency / 1e9:.3f}GHz"
            dram_residency[dram] = dram_residency.get(dram, 0.0) + duration
            phase_residency[segment.phase] = (
                phase_residency.get(segment.phase, 0.0) + duration
            )

        summary: Dict[str, Any] = {
            "events": len(self.events),
            "by_type": dict(sorted(by_type.items())),
            "engine": engine,
        }
        spans: Dict[str, Dict[str, float]] = {}
        for event in self.spans:
            entry = spans.setdefault(
                str(event.get("name", "?")), {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            duration = float(event.get("duration_s", 0.0))
            entry["count"] += 1
            entry["total_s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
        if spans:
            summary["spans"] = dict(sorted(spans.items()))
        logs: Dict[str, int] = {}
        for event in self.logs:
            level = str(event.get("level", "info"))
            logs[level] = logs.get(level, 0) + 1
        if logs:
            summary["logs"] = dict(sorted(logs.items()))
        if segments:
            engine["memo_hit_rate"] = engine["memo_hits"] / len(segments)
            summary["energy_j"] = energy
            summary["dram_residency_s"] = dict(sorted(dram_residency.items()))
            summary["phase_residency_s"] = dict(sorted(phase_residency.items()))
        return summary


def load_trace(path: Union[str, Path]) -> TraceModel:
    """Module-level convenience mirroring :meth:`TraceModel.load`."""
    return TraceModel.load(path)
