"""Shared experiment plumbing: context construction and the runtime bridge.
(The result types and renderers live in :mod:`repro.experiments.report`.)

Experiments no longer loop ``SimulationEngine.run`` themselves: they build
declarative jobs (``repro.runtime.jobs``) and submit them through the context's
:class:`ExperimentRuntime`, which deduplicates, consults the content-addressed
result cache, and optionally fans the work out over a process pool.  The
default runtime (serial, no cache) reproduces the old in-process behaviour
exactly, so calling any ``run_*`` function with no arguments still works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro import config
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span as obs_span
from repro.core.operating_points import OperatingPointTable, build_default_operating_points
from repro.core.sysscale import SysScaleController, default_thresholds
from repro.core.thresholds import CounterThresholds
from repro.hw import HardwareSpec, resolve_hardware
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    ExecutionReport,
    Executor,
    ProgressCallback,
    SerialExecutor,
)
from repro.experiments.report import RunInfo
from repro.runtime.jobs import (
    DegradationJob,
    DegradationMeasurement,
    Job,
    PlatformSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
)
from repro.sim.engine import SimulationConfig, SimulationEngine
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
        self.executor = executor if executor is not None else SerialExecutor()
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

        One runtime serves every experiment of a session, so its
        :class:`~repro.runtime.executor.ParallelExecutor` keeps a single warm
        process pool alive across submissions; call this when the session is
        done (the CLI does, after its last target).
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
    """Everything an experiment needs: platform, engine, thresholds, operating
    points, and the runtime its jobs are submitted through.

    Building the context once and sharing it across experiments avoids repeating
    the threshold calibration (the paper's offline procedure) for every figure.
    """

    platform: Platform
    engine: SimulationEngine
    thresholds: CounterThresholds
    operating_points: OperatingPointTable
    workload_duration: float = 1.0
    runtime: ExperimentRuntime = field(default_factory=ExperimentRuntime)
    #: The hardware description ``platform`` was built from, when known.
    #: ``build_context`` always sets it; contexts wrapping hand-built
    #: platforms leave it ``None`` and fall back to spec verification.
    hardware: Optional[HardwareSpec] = None
    _verified_platform_spec: Optional[PlatformSpec] = field(
        default=None, init=False, repr=False
    )

    def sysscale(self) -> SysScaleController:
        """A fresh SysScale controller bound to this context's platform."""
        return SysScaleController(
            platform=self.platform,
            operating_points=self.operating_points,
            thresholds=self.thresholds,
        )

    # ------------------------------------------------------------------
    # Job construction
    # ------------------------------------------------------------------
    def platform_spec(self) -> PlatformSpec:
        """The declarative hardware description matching this context's platform.

        Contexts built by :func:`build_context` carry their
        :class:`~repro.hw.spec.HardwareSpec` directly -- the platform was
        materialized from it, so jobs built from the spec simulate exactly
        this hardware.  For contexts wrapping a hand-built platform the
        default description is derived from the platform's knobs and verified
        against it once; a platform the derived spec cannot reproduce (a
        customized SoC, modified DRAM timings) raises rather than letting
        runtime jobs silently simulate different hardware.
        """
        if self.hardware is not None:
            return self.hardware
        spec = PlatformSpec(
            tdp=self.platform.tdp,
            dram=self.platform.dram.technology.value,
            platform_fixed_power=self.platform.soc_power.platform_fixed_power,
        )
        if self._verified_platform_spec != spec:
            # describe() reports live state too (DRAM frequency, self-refresh)
            # which a previous direct engine run may have left at the low
            # operating point; compare boot states so only *configuration*
            # differences are flagged.
            self.platform.reset_to_boot()
            if spec.build().describe() != self.platform.describe():
                raise ValueError(
                    "this context's platform cannot be expressed as a "
                    "PlatformSpec (customized SoC or DRAM device?); runtime "
                    "jobs would simulate different hardware"
                )
            self._verified_platform_spec = spec
        return spec

    def sim_spec(self) -> SimSpec:
        """The declarative spec matching this context's engine configuration."""
        return SimSpec.from_config(self.engine.config)

    def simulation_job(
        self,
        trace: TraceSpec,
        policy: PolicySpec,
        peripherals: Optional[str] = None,
    ) -> SimulationJob:
        """A simulation job on this context's platform and engine configuration."""
        return SimulationJob(
            trace=trace,
            policy=policy,
            platform=self.platform_spec(),
            sim=self.sim_spec(),
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
        compare policies per workload (Figs. 7-9) get ``(baseline, sysscale,
        ...)`` tuples aligned with ``traces`` instead of hand-indexing a flat
        result list.
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
        from repro.runtime.jobs import PointSpec

        if not isinstance(high, PointSpec):
            high = PointSpec.from_point(high)
        if not isinstance(low, PointSpec):
            low = PointSpec.from_point(low)
        return DegradationJob(
            trace=trace, high=high, low=low, platform=self.platform_spec()
        )


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
    """
    spec = resolve_hardware(hardware)
    if tdp is not None and tdp != spec.tdp:
        spec = spec.derive(tdp=tdp)
    platform = spec.build()
    if spec.dram.technology == "ddr4":
        # Match the operating-point table to the DRAM family, exactly as the
        # runtime's sysscale builder does for DDR4 platforms.
        from repro.core.operating_points import build_ddr4_operating_points

        operating_points = build_ddr4_operating_points()
    else:
        operating_points = build_default_operating_points(platform)
    thresholds = default_thresholds(platform, operating_points)
    engine = SimulationEngine(platform, sim_config)
    return ExperimentContext(
        platform=platform,
        engine=engine,
        thresholds=thresholds,
        operating_points=operating_points,
        workload_duration=workload_duration,
        runtime=runtime or ExperimentRuntime(),
        hardware=spec,
    )


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""
    values = list(values)
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)
