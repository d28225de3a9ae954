"""Background metric time-series sampling over the live registry.

An end-of-run ``obs.snapshot()`` collapses a whole campaign into one number
per instrument -- a gauge like ``executor.queue_depth`` reads whatever it
happened to be at teardown (usually zero).  :class:`MetricsSampler` keeps
the *time dimension* of queue depth, in-flight jobs, worker count, and cache
behaviour: the series ``repro trace describe`` summarizes.  A daemon thread
polls the active :class:`~repro.obs.metrics.MetricsRegistry` on a fixed
cadence and emits one ``timeseries.sample`` event per poll to the active
sinks -- the same JSONL stream ``--trace-out`` records, so samples line up
with spans and engine segments on one timeline.

Each sample carries a monotonic sequence number, the elapsed seconds since
the sampler started, the executor gauges, the headline throughput counters,
and the derived cache-hit ratio.  A sample is taken immediately on
:meth:`start` and once more on :meth:`stop`, so even a run shorter than one
interval produces a usable (begin, end) pair.

Sampling is *pure observation*: the thread only reads instrument values and
writes events.  It cannot perturb results -- job hashes, payloads, and
exports are bit-identical with the sampler on or off (bench- and test-gated,
like the rest of ``repro.obs``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import state as obs_state
from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsSampler", "summarize_timeseries"]

#: Gauges copied verbatim into every sample (name -> sample field).
SAMPLED_GAUGES = {
    "executor.queue_depth": "queue_depth",
    "executor.in_flight": "in_flight",
    "executor.workers": "workers",
}

#: Counters copied verbatim into every sample (cumulative totals).
SAMPLED_COUNTERS = {
    "executor.executed": "jobs_executed",
    "executor.cache_hits": "jobs_from_cache",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "engine.ticks": "engine_ticks",
}


class MetricsSampler:
    """Polls the live registry on a cadence; see the module docstring.

    ``registry`` defaults to resolving the *ambient* registry at each poll
    (so a sampler started before ``obs.scoped()`` blocks still reads
    whichever scope is current); pass an explicit registry to pin one.
    ``emit`` defaults to :func:`repro.obs.state.emit` (the active sinks).
    """

    def __init__(
        self,
        interval: float,
        registry: Optional[MetricsRegistry] = None,
        emit: Optional[Callable[[Dict[str, Any]], None]] = None,
        extra_counters: Sequence[str] = (),
        extra_gauges: Sequence[str] = (),
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.interval = interval
        self._registry = registry
        self._emit = emit if emit is not None else obs_state.emit
        self._extra_counters = tuple(extra_counters)
        self._extra_gauges = tuple(extra_gauges)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _resolve_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else obs_state.registry()

    def sample_once(self) -> Dict[str, Any]:
        """Take one sample now and emit it; returns the event."""
        registry = self._resolve_registry()
        with self._lock:
            seq = self._seq
            self._seq += 1
            event: Dict[str, Any] = {
                "type": "timeseries.sample",
                "seq": seq,
                "t": time.monotonic() - self._started_at if self._started_at else 0.0,
                "interval_s": self.interval,
            }
            for name, label in SAMPLED_GAUGES.items():
                event[label] = registry.gauge(name).value
            for name in self._extra_gauges:
                event[name] = registry.gauge(name).value
            for name, label in SAMPLED_COUNTERS.items():
                event[label] = registry.counter(name).value
            for name in self._extra_counters:
                event[name] = registry.counter(name).value
            lookups = event.get("cache_hits", 0.0) + event.get("cache_misses", 0.0)
            event["cache_hit_ratio"] = (
                event["cache_hits"] / lookups if lookups else None
            )
            self._emit(event)
            return event

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MetricsSampler":
        """Begin sampling (emits an immediate t=0 sample)."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._started_at = time.monotonic()
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._loop, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def stop(self, final_sample: bool = True) -> int:
        """Stop the thread (taking one last sample); returns samples taken."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        if final_sample and self._started_at:
            self.sample_once()
        return self._seq

    @property
    def samples_taken(self) -> int:
        return self._seq

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def summarize_timeseries(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Condense ``timeseries.sample`` events into per-metric statistics.

    Used by ``repro trace describe``: for every numeric field (gauges,
    counters, derived ratios) report min/mean/max/last over the run -- the
    sustained-load view a single end-of-run snapshot cannot give.
    """
    if not samples:
        return {}
    skip = {"type", "seq", "t", "interval_s"}
    metrics: Dict[str, Dict[str, Any]] = {}
    for sample in samples:
        for name, value in sample.items():
            if name in skip or not isinstance(value, (int, float)):
                continue
            entry = metrics.setdefault(
                name, {"min": value, "max": value, "sum": 0.0, "count": 0, "last": value}
            )
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
            entry["sum"] += value
            entry["count"] += 1
            entry["last"] = value
    summary: Dict[str, Any] = {
        "samples": len(samples),
        "span_s": max(float(s.get("t", 0.0)) for s in samples),
        "metrics": {},
    }
    for name in sorted(metrics):
        entry = metrics[name]
        summary["metrics"][name] = {
            "min": entry["min"],
            "mean": entry["sum"] / entry["count"] if entry["count"] else 0.0,
            "max": entry["max"],
            "last": entry["last"],
        }
    return summary
