"""Shared experiment plumbing: context construction and the runtime bridge.
(The result types and renderers live in :mod:`repro.experiments.report`.)

Experiments never drive ``SimulationEngine`` themselves: they build
declarative jobs (``repro.runtime.jobs``) and submit them through the context's
:class:`ExperimentRuntime`, which deduplicates, consults the content-addressed
result cache, and optionally fans the work out over a process pool.  The
default runtime (serial, no cache) runs every job in-process, so
``get_spec(name).run(build_context())`` needs no further setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span as obs_span
from repro.core.operating_points import OperatingPointTable
from repro.core.sysscale import SysScaleController, calibration_for
from repro.core.thresholds import CounterThresholds
from repro.hw import HardwareSpec, resolve_hardware
from repro.numeric import ordered_sum
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExecutionReport, Executor, ProgressCallback
from repro.experiments.report import RunInfo
from repro.runtime.jobs import (
    DegradationJob,
    DegradationMeasurement,
    Job,
    PointSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    platform_for,
)
from repro.sim.engine import SimulationConfig
from repro.sim.platform import Platform
from repro.sim.result import SimulationResult


class ExperimentRuntime:
    """The execution backend experiments submit their jobs through.

    Wraps one executor and (optionally) one result cache.  Accounting lives
    in a :class:`~repro.obs.metrics.MetricsRegistry` owned by the runtime --
    always live, independent of whether ambient ``repro.obs`` telemetry is
    enabled -- and every submission folds its :class:`ExecutionReport` (job
    counts, batch latency, engine loop totals) into it.  The legacy
    ``submitted``/``unique``/``executed``/``cache_hits`` integers are now
    read-only views over the registry, so report run accounting is populated
    from the registry rather than ad-hoc counters.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.executor = executor if executor is not None else Executor()
        self.cache = cache
        self.progress = progress
        self.metrics = metrics if metrics is not None else MetricsRegistry("runtime")

    # ------------------------------------------------------------------
    # Registry-backed accounting views
    # ------------------------------------------------------------------
    @property
    def submitted(self) -> int:
        return int(self.metrics.counter("runtime.jobs_submitted").value)

    @property
    def unique(self) -> int:
        return int(self.metrics.counter("runtime.jobs_unique").value)

    @property
    def executed(self) -> int:
        return int(self.metrics.counter("runtime.jobs_executed").value)

    @property
    def cache_hits(self) -> int:
        return int(self.metrics.counter("runtime.cache_hits").value)

    def run_jobs(self, jobs: Sequence[Job]) -> ExecutionReport:
        """Execute ``jobs`` and fold the report into the metrics registry."""
        with obs_span("runtime.run_jobs", jobs=len(jobs)):
            report = self.executor.run(jobs, cache=self.cache, progress=self.progress)
        metrics = self.metrics
        metrics.counter("runtime.jobs_submitted").inc(report.submitted)
        metrics.counter("runtime.jobs_unique").inc(report.unique_jobs)
        metrics.counter("runtime.jobs_executed").inc(report.executed)
        metrics.counter("runtime.cache_hits").inc(report.cache_hits)
        metrics.timer("runtime.batch_seconds").observe(report.elapsed)
        for name, value in report.engine_stats().items():
            metrics.counter(f"runtime.engine_{name}").inc(value)
        return report

    def simulate(self, jobs: Sequence[SimulationJob]) -> List[SimulationResult]:
        """Run simulation jobs and decode the results in submission order."""
        return self.run_jobs(jobs).results()

    def measure(self, jobs: Sequence[DegradationJob]) -> List[DegradationMeasurement]:
        """Run degradation jobs and decode the measurements in submission order."""
        return self.run_jobs(jobs).results()

    def summary(self) -> str:
        """One-line accounting across every submission so far."""
        return (
            f"{self.submitted} job(s) submitted, {self.unique} unique, "
            f"{self.executed} simulated, {self.cache_hits} cache hit(s)"
        )

    def close(self) -> None:
        """Release the executor's resources (the parallel worker pool).

        One runtime serves every experiment of a session, so a multi-worker
        :class:`~repro.runtime.executor.Executor` keeps a single warm process
        pool alive across submissions; call this when the session is done
        (the CLI does, after its last target).
        """
        self.executor.close()

    def accounting(self) -> RunInfo:
        """A snapshot of the running totals (see :meth:`RunInfo.since`)."""
        return RunInfo(
            submitted=self.submitted,
            unique=self.unique,
            executed=self.executed,
            cache_hits=self.cache_hits,
        )


@dataclass
class ExperimentContext:
    """Everything an experiment needs: the hardware description, engine
    limits, and the runtime its jobs are submitted through.

    ``platform``, ``operating_points`` and ``thresholds`` read the process's
    memoized platform for ``hardware`` (:func:`~repro.runtime.jobs.platform_for`,
    the one in-process jobs run on) and its SysScale calibration
    (:func:`~repro.core.sysscale.calibration_for`), so the paper's offline
    calibration runs once per platform; an evicted platform is rebuilt.
    """

    hardware: HardwareSpec
    workload_duration: float = 1.0
    sim: SimSpec = SimSpec()
    runtime: ExperimentRuntime = field(default_factory=ExperimentRuntime)

    @property
    def platform(self) -> Platform:
        """The platform ``hardware`` describes."""
        return platform_for(self.hardware)

    @property
    def operating_points(self) -> OperatingPointTable:
        """SysScale's operating points, matched to the platform's DRAM."""
        return calibration_for(self.platform)[0]

    @property
    def thresholds(self) -> CounterThresholds:
        """SysScale's counter thresholds, calibrated for the platform."""
        return calibration_for(self.platform)[1]

    def sysscale(self) -> SysScaleController:
        """A fresh SysScale controller bound to this context's platform."""
        return SysScaleController(platform=self.platform)

    # ------------------------------------------------------------------
    # Job construction
    # ------------------------------------------------------------------
    def simulation_job(
        self,
        trace: TraceSpec,
        policy: PolicySpec,
        peripherals: Optional[str] = None,
    ) -> SimulationJob:
        """A simulation job on this context's hardware and engine limits."""
        return SimulationJob(
            trace=trace,
            policy=policy,
            platform=self.hardware,
            sim=self.sim,
            peripherals=peripherals,
        )

    def simulate_policy_matrix(
        self,
        traces: Sequence[TraceSpec],
        policies: Sequence[PolicySpec],
        peripherals: Optional[str] = None,
    ) -> List[tuple]:
        """Simulate every trace under every policy; one result tuple per trace.

        Keeps the submit-order/read-order pairing in one place: figures that
        compare policies per workload (Figs. 2 and 7-9) get ``(baseline,
        sysscale, ...)`` tuples aligned with ``traces`` instead of
        hand-indexing a flat result list.
        """
        jobs = [
            self.simulation_job(trace, policy, peripherals=peripherals)
            for trace in traces
            for policy in policies
        ]
        results = self.runtime.simulate(jobs)
        width = len(policies)
        return [
            tuple(results[index * width : (index + 1) * width])
            for index in range(len(traces))
        ]

    def degradation_job(self, trace: TraceSpec, high, low) -> DegradationJob:
        """A degradation measurement between two operating points (specs or points)."""
        if not isinstance(high, PointSpec):
            high = PointSpec.from_point(high)
        if not isinstance(low, PointSpec):
            low = PointSpec.from_point(low)
        return DegradationJob(trace=trace, high=high, low=low, platform=self.hardware)


def build_context(
    tdp: Optional[float] = None,
    workload_duration: float = 1.0,
    sim_config: Optional[SimulationConfig] = None,
    runtime: Optional[ExperimentRuntime] = None,
    hardware: Optional[object] = None,
) -> ExperimentContext:
    """Build an experiment context for a hardware description.

    ``hardware`` is a registered platform name, a
    :class:`~repro.hw.spec.HardwareSpec`, or ``None`` for the default Skylake
    M-6Y75 of Table 2.  ``tdp``, when given, is applied as a derivation over
    that description (the historical ``build_context(tdp=...)`` call shape).
    Nothing is built or calibrated here: the context does that on first use.
    """
    spec = resolve_hardware(hardware)
    if tdp is not None and tdp != spec.tdp:
        spec = spec.derive(tdp=tdp)
    return ExperimentContext(
        hardware=spec,
        workload_duration=workload_duration,
        sim=SimSpec.from_config(sim_config) if sim_config is not None else SimSpec(),
        runtime=runtime or ExperimentRuntime(),
    )


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""
    values = list(values)
    if not values:
        raise ValueError("cannot average an empty sequence")
    return ordered_sum(values) / len(values)
