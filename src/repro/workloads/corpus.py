"""Synthetic workload corpus for Fig. 6 and the threshold sensitivity study.

Sec. 4.2 of the paper evaluates the demand predictor on more than 1600 workloads
spanning three classes (single-threaded CPU, multi-threaded CPU, graphics) and
three DRAM frequency pairs.  The original corpus (SPEC06, SYSmark, MobileMark,
3DMark traces) is not redistributable, so this module generates a synthetic
corpus with the same *structure*: per-class populations of workloads with
controlled, widely varying memory sensitivity, each with a known ground truth for
how much it slows down when the memory subsystem is scaled.

The corpus feeds :mod:`repro.experiments.fig6`, which reproduces the nine panels
of Fig. 6 (actual vs. predicted performance impact, accuracy and false
positives), and :mod:`repro.experiments.sensitivity`.  Both reach it through the
runtime's ``corpus`` trace builder, which replays :meth:`CorpusGenerator.generate_class`
calls.  The thresholds themselves do not come from the corpus: see
:mod:`repro.core.thresholds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import config
from repro.workloads.trace import (
    PerformanceMetric,
    Phase,
    WorkloadClass,
    WorkloadTrace,
)


@dataclass(frozen=True)
class CorpusWorkload:
    """One synthetic workload plus the latent parameters used to generate it."""

    trace: WorkloadTrace
    workload_class: WorkloadClass
    memory_sensitivity: float
    demand_gbps: float
    index: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.memory_sensitivity <= 1.0:
            raise ValueError("memory sensitivity must be in [0, 1]")
        if self.demand_gbps < 0:
            raise ValueError("demand must be non-negative")


@dataclass
class CorpusGenerator:
    """Generates the synthetic evaluation corpus.

    Parameters
    ----------
    seed:
        Random seed; the corpus is fully deterministic for a given seed.
    duration:
        Duration (seconds) of each generated workload at the reference config.
    """

    seed: int = config.DEFAULT_SEED
    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # Single-workload generation
    # ------------------------------------------------------------------
    def _cpu_workload(
        self, index: int, workload_class: WorkloadClass, rng: np.random.Generator
    ) -> CorpusWorkload:
        """A CPU workload with random memory sensitivity and demand.

        Memory-latency sensitivity and bandwidth demand are drawn (mostly)
        independently: plenty of real workloads stream several GB/s without being
        latency bound, and plenty of pointer-chasing workloads are latency bound
        at a fraction of a GB/s.  Only near the bandwidth ceiling does demand
        force a bandwidth-bound fraction.
        """
        # Latency sensitivity: most mobile workloads are only mildly latency
        # sensitive, a tail is heavily latency bound.
        if rng.random() < 0.65:
            latency_fraction = float(rng.uniform(0.0, 0.25))
        else:
            latency_fraction = float(rng.uniform(0.25, 0.75))

        if workload_class is WorkloadClass.CPU_SINGLE_THREAD:
            active_cores = 1
            demand_scale = 0.6
        else:
            active_cores = config.SKYLAKE_CORE_COUNT
            demand_scale = 1.0
        demand_gbps = float(demand_scale * rng.uniform(0.3, 12.0))

        # Bandwidth-bound fraction grows only as demand approaches the interface
        # ceiling (dual-channel LPDDR3-1600: ~22 GB/s achievable).
        ceiling_gbps = 22.0
        pressure = max(0.0, demand_gbps / ceiling_gbps - 0.3)
        bandwidth_fraction = float(min(0.6, pressure * rng.uniform(0.6, 1.4)))

        # Office/productivity-style traces touch IO devices too: a small
        # IO-latency-bound fraction and some display/storage streaming traffic.
        io_fraction = float(rng.uniform(0.0, 0.12)) if rng.random() < 0.4 else 0.0
        io_demand_gbps = float(rng.uniform(0.0, 5.0)) if rng.random() < 0.5 else 0.0

        other_fraction = float(rng.uniform(0.02, 0.06))
        total_memory = latency_fraction + bandwidth_fraction
        available = 1.0 - other_fraction - io_fraction
        if total_memory > available:
            scale = available / total_memory
            latency_fraction *= scale
            bandwidth_fraction *= scale
        sensitivity = latency_fraction + bandwidth_fraction
        compute_fraction = 1.0 - sensitivity - other_fraction - io_fraction
        phase = Phase(
            name=f"corpus_{index}",
            duration=self.duration,
            compute_fraction=compute_fraction,
            memory_latency_fraction=latency_fraction,
            memory_bandwidth_fraction=bandwidth_fraction,
            io_fraction=io_fraction,
            other_fraction=other_fraction,
            cpu_bandwidth_demand=config.gbps(demand_gbps),
            io_bandwidth_demand=config.gbps(io_demand_gbps),
            cpu_activity=float(rng.uniform(0.8, 1.0)),
            io_activity=float(rng.uniform(0.05, 0.3)),
            active_cores=active_cores,
        )
        trace = WorkloadTrace(
            name=f"{workload_class.value}_{index:04d}",
            workload_class=workload_class,
            phases=(phase,),
            metric=PerformanceMetric.BENCHMARK_SCORE,
            description="synthetic corpus workload",
        )
        return CorpusWorkload(
            trace=trace,
            workload_class=workload_class,
            memory_sensitivity=sensitivity,
            demand_gbps=demand_gbps,
            index=index,
        )

    def _graphics_workload(self, index: int, rng: np.random.Generator) -> CorpusWorkload:
        """A graphics workload with random bandwidth appetite."""
        gfx_fraction = float(rng.uniform(0.55, 0.85))
        sensitivity = float(rng.uniform(0.02, 0.45))
        sensitivity = min(sensitivity, 1.0 - gfx_fraction - 0.04)
        latency_fraction = sensitivity * 0.35
        bandwidth_fraction = sensitivity * 0.65
        head_room = 1.0 - gfx_fraction - latency_fraction - bandwidth_fraction
        compute_fraction = head_room * 0.7
        other_fraction = head_room - compute_fraction
        gfx_demand = float(rng.uniform(2.0, 11.0))
        phase = Phase(
            name=f"corpus_gfx_{index}",
            duration=self.duration,
            compute_fraction=compute_fraction,
            gfx_fraction=gfx_fraction,
            memory_latency_fraction=latency_fraction,
            memory_bandwidth_fraction=bandwidth_fraction,
            other_fraction=other_fraction,
            cpu_bandwidth_demand=config.gbps(float(rng.uniform(0.5, 2.0))),
            gfx_bandwidth_demand=config.gbps(gfx_demand),
            io_bandwidth_demand=config.gbps(0.5),
            cpu_activity=float(rng.uniform(0.3, 0.6)),
            gfx_activity=float(rng.uniform(0.8, 1.0)),
            io_activity=float(rng.uniform(0.2, 0.5)),
            active_cores=config.SKYLAKE_CORE_COUNT,
        )
        trace = WorkloadTrace(
            name=f"graphics_{index:04d}",
            workload_class=WorkloadClass.GRAPHICS,
            phases=(phase,),
            metric=PerformanceMetric.FRAMES_PER_SECOND,
            description="synthetic corpus graphics workload",
        )
        return CorpusWorkload(
            trace=trace,
            workload_class=WorkloadClass.GRAPHICS,
            memory_sensitivity=sensitivity,
            demand_gbps=gfx_demand,
            index=index,
        )

    # ------------------------------------------------------------------
    # Population generation
    # ------------------------------------------------------------------
    def generate_class(
        self, workload_class: WorkloadClass, count: int
    ) -> List[CorpusWorkload]:
        """Generate ``count`` workloads of one class."""
        if count <= 0:
            raise ValueError("count must be positive")
        rng = np.random.default_rng(self._rng.integers(0, 2 ** 31 - 1))
        workloads: List[CorpusWorkload] = []
        for index in range(count):
            if workload_class is WorkloadClass.GRAPHICS:
                workloads.append(self._graphics_workload(index, rng))
            elif workload_class in (
                WorkloadClass.CPU_SINGLE_THREAD,
                WorkloadClass.CPU_MULTI_THREAD,
            ):
                workloads.append(self._cpu_workload(index, workload_class, rng))
            else:
                raise ValueError(f"corpus generation does not cover {workload_class}")
        return workloads
