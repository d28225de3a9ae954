"""Bottleneck decomposition of workloads (Fig. 2(b)).

Fig. 2(b) of the paper plots, for each motivation workload, "what fraction of the
performance is bound by main memory latency, main memory bandwidth or non-main
memory related events".  This module computes that decomposition from a workload
trace: the duration-weighted average of each phase's bottleneck mix, with
everything that is not main-memory folded into the *non-memory* bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.numeric import ordered_sum
from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class BottleneckBreakdown:
    """Duration-weighted bottleneck fractions of a workload."""

    workload: str
    memory_latency_bound: float
    memory_bandwidth_bound: float
    non_memory_bound: float

    def __post_init__(self) -> None:
        total = (
            self.memory_latency_bound
            + self.memory_bandwidth_bound
            + self.non_memory_bound
        )
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"bottleneck fractions must sum to 1, got {total}")
        for name in ("memory_latency_bound", "memory_bandwidth_bound", "non_memory_bound"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"{name} must be non-negative")

    @property
    def memory_bound(self) -> float:
        """Total main-memory-bound fraction (latency + bandwidth)."""
        return self.memory_latency_bound + self.memory_bandwidth_bound

    @property
    def dominant(self) -> str:
        """Name of the dominant bucket."""
        buckets = {
            "memory_latency": self.memory_latency_bound,
            "memory_bandwidth": self.memory_bandwidth_bound,
            "non_memory": self.non_memory_bound,
        }
        return max(buckets, key=buckets.get)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view."""
        return {
            "workload": self.workload,
            "memory_latency_bound": self.memory_latency_bound,
            "memory_bandwidth_bound": self.memory_bandwidth_bound,
            "non_memory_bound": self.non_memory_bound,
        }


def analyze_bottlenecks(trace: WorkloadTrace) -> BottleneckBreakdown:
    """Compute the Fig. 2(b)-style bottleneck decomposition of ``trace``."""
    total = trace.total_duration
    latency = ordered_sum(p.memory_latency_fraction * p.duration for p in trace.phases) / total
    bandwidth = ordered_sum(p.memory_bandwidth_fraction * p.duration for p in trace.phases) / total
    non_memory = max(0.0, 1.0 - latency - bandwidth)
    return BottleneckBreakdown(
        workload=trace.name,
        memory_latency_bound=latency,
        memory_bandwidth_bound=bandwidth,
        non_memory_bound=non_memory,
    )
