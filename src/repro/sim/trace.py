"""The engine trace recorder: per-segment timelines as inspectable artifacts.

The segment-stepping loop evaluates the model stack once per ``(phase,
action, MRC)`` segment and replays it tick-by-tick.  When tracing is enabled
(``SimulationConfig(trace_segments=True)``), the engine hands each segment to
an :class:`EngineTraceRecorder`, which stores it as the ``engine.segment``
event it will emit, carrying exactly what SysScale's figures are drawn from:
the phase, the operating point (DRAM/interconnect frequency, rail scales, MRC
register set), the per-domain power, the achieved bandwidth, and whether the
segment-model memo hit.  Operating-point transitions are stored as
``engine.transition`` events with their latencies.  The typed read side of
these events is :mod:`repro.obs.analysis.model`.

Recording happens once per *segment*, never per tick, so a traced run builds
one dict per segment -- the tight replay loop is untouched.  The events are
deliberately *derived* observations: nothing the recorder touches feeds back
into the simulation, so results are bit-identical with tracing on or off.

The recorder lives in the sim layer on purpose: it is plain data collection
with zero dependencies, so the engine can trace without importing the
telemetry stack.  Publication is inverted -- :mod:`repro.runtime.jobs` turns
tracing on when ambient ``repro.obs`` tracing is requested and emits the
recorded events (stamped with the job hash) to the active sinks.  The sim
layer therefore never imports ``repro.obs``, which is what keeps telemetry
*structurally* unable to perturb results (``repro lint`` enforces it).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

__all__ = ["EngineTraceRecorder"]


class EngineTraceRecorder:
    """Accumulates the segment/transition events of one engine run.

    Only the segment-stepping loop records (the reference loop has no
    segments to speak of -- its recorder stays empty by design).
    """

    def __init__(self, workload: str = "", policy: str = "") -> None:
        self.workload = workload
        self.policy = policy
        self.segments: List[Dict[str, Any]] = []
        self.transitions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Recording (called by the engine, once per segment/transition)
    # ------------------------------------------------------------------
    def record_segment(
        self, time: float, ticks: int, tick: float, phase: str, memo_hit: bool, segment: Any
    ) -> None:
        """Capture one replayed segment from the engine's ``_SegmentModel``."""
        state = segment.state
        inc_compute, inc_io, inc_memory, inc_platform = segment.energy_ticks
        self.segments.append(
            {
                "type": "engine.segment",
                "t": time,
                "duration_s": ticks * tick,
                "ticks": ticks,
                "phase": phase,
                "memo_hit": memo_hit,
                "dram_frequency": state.dram_frequency,
                "interconnect_frequency": state.interconnect_frequency,
                "cpu_frequency": state.cpu_frequency,
                "gfx_frequency": state.gfx_frequency,
                "v_sa_scale": state.v_sa_scale,
                "v_io_scale": state.v_io_scale,
                "mrc_optimized": state.mrc_optimized,
                "low_point": segment.low_point,
                "bandwidth": segment.bandwidth,
                "compute_power": inc_compute / tick,
                "io_power": inc_io / tick,
                "memory_power": inc_memory / tick,
                "platform_power": inc_platform / tick,
            }
        )

    def record_transition(
        self,
        time: float,
        latency: float,
        from_dram_frequency: float,
        to_dram_frequency: float,
    ) -> None:
        self.transitions.append(
            {
                "type": "engine.transition",
                "t": time,
                "latency_s": latency,
                "from_dram_frequency": from_dram_frequency,
                "to_dram_frequency": to_dram_frequency,
            }
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The run's identity and counts.  Energy and residencies are rolled
        up from the segment events by ``TraceModel.summary`` on the read
        side."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "segments": len(self.segments),
            "ticks": sum(s["ticks"] for s in self.segments),
            "memo_hits": sum(1 for s in self.segments if s["memo_hit"]),
            "transitions": len(self.transitions),
        }

    def events(self, **extra: Any) -> Iterator[Dict[str, Any]]:
        """The run as an event stream: segments, transitions, then a
        ``engine.run`` summary event.  ``extra`` fields (job label/hash) are
        stamped onto every event."""
        for record in self.segments + self.transitions:
            yield {**record, **extra}
        summary = self.summary()
        summary["type"] = "engine.run"
        summary.update(extra)
        yield summary
