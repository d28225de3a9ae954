"""Declarative simulation jobs with deterministic content hashes.

The runtime never ships live objects (platforms, traces, policies) between
processes: a job is a *specification* -- which trace builder to call, which
policy to construct, which platform knobs to set, which engine parameters to
use -- expressed entirely in JSON-scalar parameters.  That buys three things:

* a **deterministic content hash** (the cache key): two jobs that would run the
  exact same simulation hash identically, no matter where or when they were
  built;
* **process isolation**: every worker rebuilds its own :class:`Platform` from
  the spec, so live MRC register state is never shared across concurrent runs
  (the engine mutates the register file while simulating);
* **replayability**: ``to_dict`` fully describes the run, and
  :func:`job_from_dict` rebuilds it, so a fleet queue entry or quarantine
  record that carries it can run or resubmit the job anywhere.  A cache
  entry needs only the hash: it stores the result under it.

Two job kinds exist:

* :class:`SimulationJob` -- one ``SimulationEngine.run`` (trace x policy x
  platform x engine config), producing a serialized
  :class:`~repro.sim.result.SimulationResult`;
* :class:`DegradationJob` -- one calibrator measurement (slowdown of a trace
  between two IO/memory operating points plus its high-point counters), the
  unit of work of the Fig. 6 predictor evaluation and the Sec. 7.4 sensitivity
  sweep.

``execute_job`` is the executor's single entry point; worker-local
memoization (platforms, synthetic corpora, built traces) lives here so
in-process and pool execution share one code path and produce bit-identical
results.
Jobs that share a :class:`TraceSpec` in one process share the trace it built:
a :class:`~repro.workloads.trace.WorkloadTrace` is frozen (its phases a tuple
of frozen phases), and every builder is a pure function of its parameters, as
job hashing already assumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Union

from repro import config
from repro.obs import state as obs_state
from repro.obs.spans import span as _span
from repro.hashing import Encoded, content_hash
from repro.params import (
    Params,
    normalize_params as _normalize_params,
    params_to_jsonable as _params_to_jsonable,
)
from repro.hw import DRAM_SPECS, HardwareSpec
from repro.core.operating_points import (
    OperatingPoint,
    OperatingPointTable,
    build_ddr4_operating_points,
    operating_points_for,
)
from repro.core.sysscale import SysScaleController, default_thresholds
from repro.core.thresholds import ThresholdCalibrator
from repro.baselines.fixed import FixedBaselinePolicy
from repro.baselines.md_dvfs import StaticMdDvfsPolicy
from repro.perf.counters import CounterName, CounterSample
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import Platform
from repro.sim.policy import Policy
from repro.sim.result import EngineRunStats, SimulationResult
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.graphics import graphics_workload
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS
from repro.workloads.microbenchmarks import peak_bandwidth_microbenchmark
from repro.workloads.spec2006 import spec_workload
from repro.workloads.trace import WorkloadClass, WorkloadTrace

#: Bump when the job schema changes incompatibly; part of every content hash,
#: so stale cache entries from older schemas can never be returned.
SCHEMA_VERSION = 1

def _cached_job_hash(job) -> str:
    """Compute a job's content hash once and memoize it on the instance.

    Executors, caches, and campaign dedup all key on the hash, so one job's
    hash is consulted many times per run; the spec is frozen, so the digest can
    never change after construction.

    The digest is ``content_hash({"schema": SCHEMA_VERSION, **job.to_dict()})``.
    The platform, most of those bytes, goes in as its spec's cached
    :attr:`~repro.hw.spec.HardwareSpec.canonical_text`, which
    :mod:`repro.hashing` splices in, so a job hash encodes only the job's
    small members and jobs sharing a spec encode it once.
    """
    cached = job.__dict__.get("_content_hash")
    if cached is None:
        members = job_members(job, Encoded(job.platform.canonical_text))
        cached = content_hash({"schema": SCHEMA_VERSION, **members})
        object.__setattr__(job, "_content_hash", cached)
    return cached


def job_members(job, platform: Any) -> Dict[str, Any]:
    """``job.to_dict()`` with ``platform`` as its platform member.

    Both job kinds serialize ``kind``, then each field in declaration order,
    a spec field through its own ``to_dict``.  This builds those members
    without running ``HardwareSpec.to_dict``, so a job hash can take the
    platform as its spec's cached ``canonical_text``
    (:class:`repro.hashing.Encoded`).
    Each kind's explicit ``to_dict`` stays the definition the ``hash-surface``
    lint rule checks; tests hold this function to it.
    """
    members: Dict[str, Any] = {"kind": job.kind}
    for spec_field in fields(job):
        value = getattr(job, spec_field.name)
        if spec_field.name == "platform":
            value = platform
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        members[spec_field.name] = value
    return members


# ---------------------------------------------------------------------------
# Trace specifications
# ---------------------------------------------------------------------------

TraceBuilder = Callable[..., WorkloadTrace]


@lru_cache(maxsize=32)
def _corpus_traces(
    seed: int, duration: float, calls: Tuple[str, ...]
) -> Tuple[Tuple[WorkloadTrace, ...], ...]:
    """Replay a ``CorpusGenerator`` call sequence and memoize the traces.

    ``generate_class`` draws from the generator's own RNG once per call, so a
    corpus workload is only reproducible given the *whole sequence* of calls
    made on one generator.  ``calls`` encodes that sequence as
    ``"<workload_class>:<count>"`` strings; replaying it verbatim yields the
    exact corpora the experiment built in the parent process.
    """
    generator = CorpusGenerator(seed=seed, duration=duration)
    populations: List[Tuple[WorkloadTrace, ...]] = []
    for call in calls:
        class_name, _, count = call.rpartition(":")
        corpus = generator.generate_class(WorkloadClass(class_name), int(count))
        populations.append(tuple(workload.trace for workload in corpus))
    return tuple(populations)


def _build_corpus_trace(
    seed: int,
    calls: Tuple[str, ...],
    call: int,
    index: int,
    duration: float = 1.0,
) -> WorkloadTrace:
    """One synthetic corpus workload, addressed by (call sequence, call, index)."""
    populations = _corpus_traces(seed, duration, calls)
    return populations[call][index]


def _build_scenario_trace(**params: Any) -> WorkloadTrace:
    """Synthesize a ``repro.scenarios`` trace (generator + params + seed).

    The import is deferred so that any process able to import this module --
    including a spawn-started worker that unpickles a ``TraceSpec`` -- can
    execute scenario jobs without the parent having imported the scenarios
    package first.
    """
    from repro.scenarios.registry import build_scenario_trace

    return build_scenario_trace(**params)


TRACE_BUILDERS: Dict[str, TraceBuilder] = {
    "spec": spec_workload,
    "graphics": graphics_workload,
    "battery_life": battery_life_workload,
    "corpus": _build_corpus_trace,
    "scenario": _build_scenario_trace,
    "microbenchmark": peak_bandwidth_microbenchmark,
}


@dataclass(frozen=True)
class TraceSpec:
    """A workload trace, by builder name and JSON-scalar parameters."""

    builder: str
    params: Params = ()

    def __post_init__(self) -> None:
        if self.builder not in TRACE_BUILDERS:
            raise KeyError(
                f"unknown trace builder {self.builder!r}; known: {sorted(TRACE_BUILDERS)}"
            )

    @classmethod
    def make(cls, builder: str, **params: Any) -> "TraceSpec":
        """Build a spec from keyword parameters (order-insensitive)."""
        return cls(builder=builder, params=_normalize_params(params))

    def build(self) -> WorkloadTrace:
        """Materialize the trace, or return the one this process built for
        an equal spec (LRU-bounded, see :data:`_TRACE_MEMO`)."""
        # Parameter types are part of the key: ``1 == 1.0 == True`` in Python
        # but not in the JSON a job hashes, so the memo is no coarser than
        # job identity.
        key = (self, tuple(type(value) for _, value in self.params))
        trace = _TRACE_MEMO.get(key)
        if trace is None:
            trace = TRACE_BUILDERS[self.builder](**dict(self.params))
            _TRACE_MEMO[key] = trace
            while len(_TRACE_MEMO) > MEMO_MAX_ENTRIES:
                _TRACE_MEMO.popitem(last=False)
        else:
            _TRACE_MEMO.move_to_end(key)
        return trace

    @property
    def label(self) -> str:
        """Short human-readable identifier for progress reporting."""
        params = dict(self.params)
        if "name" in params:
            return str(params["name"])
        if self.builder == "corpus":
            return f"corpus[{params.get('call', 0)}][{params.get('index', 0)}]"
        return self.builder

    def to_dict(self) -> Dict[str, Any]:
        return {"builder": self.builder, "params": _params_to_jsonable(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSpec":
        return cls.make(data["builder"], **data["params"])


# ---------------------------------------------------------------------------
# Policy specifications
# ---------------------------------------------------------------------------


#: Process-local memo of (operating points, thresholds) per platform, keyed by
#: platform identity (platforms themselves are memoized per spec, so identity
#: is stable).  Threshold calibration is the paper's *offline* procedure: it
#: depends only on the platform and point table, so recalibrating per job
#: would dominate short smoke simulations.  The stored platform reference
#: guards against id() reuse after garbage collection.  Bounded like
#: :data:`_PLATFORM_MEMO` (it grows with the same sweep axes).
_SYSSCALE_MEMO: "OrderedDict[Tuple[int, str], Tuple[Platform, Any, Any]]" = OrderedDict()

#: Entries kept per worker-local memo.  Long platform sweeps (many TDPs x DRAM
#: devices) would otherwise grow the memos without bound; a platform is a few
#: MB of model state, so a handful covers every real campaign's working set.
MEMO_MAX_ENTRIES = 8


def _build_sysscale(platform: Platform, operating_points: str = "default") -> Policy:
    """SysScale with thresholds calibrated (once per platform) for it.

    ``"default"`` means *matched to the platform*
    (:func:`~repro.core.operating_points.operating_points_for`).
    """
    key = (id(platform), operating_points)
    memoized = _SYSSCALE_MEMO.get(key)
    if memoized is None or memoized[0] is not platform:
        if operating_points == "default":
            points = operating_points_for(platform)
        elif operating_points == "ddr4":
            points = build_ddr4_operating_points()
        else:
            raise KeyError(f"unknown operating-point table {operating_points!r}")
        memoized = (platform, points, default_thresholds(platform, points))
        _SYSSCALE_MEMO[key] = memoized
        while len(_SYSSCALE_MEMO) > MEMO_MAX_ENTRIES:
            _SYSSCALE_MEMO.popitem(last=False)
    else:
        _SYSSCALE_MEMO.move_to_end(key)
    _, points, thresholds = memoized
    return SysScaleController(
        platform=platform, operating_points=points, thresholds=thresholds
    )


POLICY_BUILDERS: Dict[str, Callable[..., Policy]] = {
    "baseline": lambda platform, **params: FixedBaselinePolicy(**params),
    "sysscale": _build_sysscale,
    "md_dvfs": lambda platform, **params: StaticMdDvfsPolicy(**params),
}


@dataclass(frozen=True)
class PolicySpec:
    """A DVFS policy, by builder name and JSON-scalar parameters."""

    builder: str
    params: Params = ()

    def __post_init__(self) -> None:
        if self.builder not in POLICY_BUILDERS:
            raise KeyError(
                f"unknown policy builder {self.builder!r}; known: {sorted(POLICY_BUILDERS)}"
            )

    @classmethod
    def make(cls, builder: str, **params: Any) -> "PolicySpec":
        return cls(builder=builder, params=_normalize_params(params))

    def build(self, platform: Platform) -> Policy:
        """Materialize the policy against ``platform``."""
        kwargs = {key: value for key, value in self.params}
        return POLICY_BUILDERS[self.builder](platform, **kwargs)

    @property
    def label(self) -> str:
        return self.builder

    def to_dict(self) -> Dict[str, Any]:
        return {"builder": self.builder, "params": _params_to_jsonable(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicySpec":
        return cls.make(data["builder"], **data["params"])


# ---------------------------------------------------------------------------
# Platform and engine specifications
# ---------------------------------------------------------------------------

#: The platform dimension of a job IS the full hardware description: jobs hash
#: (and cache, and parallelize) over every field of the
#: :class:`~repro.hw.spec.HardwareSpec`, so arbitrary hardware variants behave
#: like any other job dimension.  The historical three-knob constructor
#: (``PlatformSpec(tdp=..., dram="lpddr3", platform_fixed_power=...)``) still
#: works: the remaining fields default to the Skylake description those knobs
#: used to imply, and ``from_dict`` accepts the legacy compact payload.
PlatformSpec = HardwareSpec


#: Process-local platform memo.  Within one worker, jobs sharing a platform
#: spec reuse the same platform object -- safe because jobs run serially inside
#: a worker and ``SimulationEngine.run`` restores boot MRC state on entry.
#: LRU-bounded to :data:`MEMO_MAX_ENTRIES`: a sweep over arbitrarily many
#: distinct platform specs (TDP grids, fuzzed campaigns) keeps only the most
#: recently used platforms alive instead of growing without limit.
_PLATFORM_MEMO: "OrderedDict[PlatformSpec, Platform]" = OrderedDict()

#: Process-local memo of built traces (see :meth:`TraceSpec.build`), keyed by
#: spec and parameter types and LRU-bounded like :data:`_PLATFORM_MEMO`: jobs
#: that run one trace under several policies or platforms build it once.
_TRACE_MEMO: "OrderedDict[tuple, WorkloadTrace]" = OrderedDict()


def platform_for(spec: PlatformSpec) -> Platform:
    """The memoized platform for ``spec`` in this process (LRU-bounded)."""
    platform = _PLATFORM_MEMO.get(spec)
    if platform is None:
        platform = spec.build()
        _PLATFORM_MEMO[spec] = platform
        while len(_PLATFORM_MEMO) > MEMO_MAX_ENTRIES:
            evicted_spec, evicted = _PLATFORM_MEMO.popitem(last=False)
            # Drop the evicted platform's calibration entries too: they are
            # keyed by platform identity and would otherwise pin its memory
            # (the identity guard makes stale entries harmless, not free).
            for key in [k for k in _SYSSCALE_MEMO if _SYSSCALE_MEMO[k][0] is evicted]:
                del _SYSSCALE_MEMO[key]
    else:
        _PLATFORM_MEMO.move_to_end(spec)
    return platform


def clear_memos() -> None:
    """Explicitly empty the worker-local platform/calibration/trace memos."""
    _PLATFORM_MEMO.clear()
    _SYSSCALE_MEMO.clear()
    _TRACE_MEMO.clear()


@dataclass(frozen=True)
class SimSpec:
    """The :class:`SimulationConfig` fields a job varies, as a hashable value
    object.

    Neither ``SimulationConfig.reference_loop`` (the parity suite's arbiter
    switch, which builds its engines directly) nor ``trace_segments``
    (telemetry, never part of job identity) is a job dimension.
    """

    tick: float = config.COUNTER_SAMPLING_INTERVAL
    evaluation_interval: float = config.EVALUATION_INTERVAL
    max_simulated_time: float = 120.0
    record_bandwidth_samples: bool = False

    def to_config(self) -> SimulationConfig:
        return SimulationConfig(
            tick=self.tick,
            evaluation_interval=self.evaluation_interval,
            max_simulated_time=self.max_simulated_time,
            record_bandwidth_samples=self.record_bandwidth_samples,
        )

    @classmethod
    def from_config(cls, sim_config: SimulationConfig) -> "SimSpec":
        return cls(
            tick=sim_config.tick,
            evaluation_interval=sim_config.evaluation_interval,
            max_simulated_time=sim_config.max_simulated_time,
            record_bandwidth_samples=sim_config.record_bandwidth_samples,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "evaluation_interval": self.evaluation_interval,
            "max_simulated_time": self.max_simulated_time,
            "record_bandwidth_samples": self.record_bandwidth_samples,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimSpec":
        return cls(**data)


@dataclass(frozen=True)
class PointSpec:
    """An IO/memory operating point, by value (name-free, so hashes are pure)."""

    dram_frequency: float
    interconnect_frequency: float
    v_sa_scale: float = 1.0
    v_io_scale: float = 1.0
    mrc_optimized: bool = True

    @classmethod
    def from_point(cls, point: OperatingPoint) -> "PointSpec":
        return cls(
            dram_frequency=point.dram_frequency,
            interconnect_frequency=point.interconnect_frequency,
            v_sa_scale=point.v_sa_scale,
            v_io_scale=point.v_io_scale,
            mrc_optimized=point.mrc_optimized,
        )

    def to_point(self, name: Optional[str] = None) -> OperatingPoint:
        return OperatingPoint(
            name=name or f"{self.dram_frequency / config.GHZ:.2f}GHz",
            dram_frequency=self.dram_frequency,
            interconnect_frequency=self.interconnect_frequency,
            v_sa_scale=self.v_sa_scale,
            v_io_scale=self.v_io_scale,
            mrc_optimized=self.mrc_optimized,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dram_frequency": self.dram_frequency,
            "interconnect_frequency": self.interconnect_frequency,
            "v_sa_scale": self.v_sa_scale,
            "v_io_scale": self.v_io_scale,
            "mrc_optimized": self.mrc_optimized,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointSpec":
        return cls(**data)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationJob:
    """One ``SimulationEngine.run``: trace x policy x platform x engine config."""

    kind: ClassVar[str] = "simulate"

    trace: TraceSpec
    policy: PolicySpec
    platform: PlatformSpec = PlatformSpec()
    sim: SimSpec = SimSpec()
    peripherals: Optional[str] = None

    def __post_init__(self) -> None:
        if self.peripherals is not None and self.peripherals not in STANDARD_CONFIGURATIONS:
            raise KeyError(
                f"unknown peripheral configuration {self.peripherals!r}; "
                f"known: {sorted(STANDARD_CONFIGURATIONS)}"
            )

    @property
    def label(self) -> str:
        return f"{self.trace.label}/{self.policy.label}@{self.platform.label}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "trace": self.trace.to_dict(),
            "policy": self.policy.to_dict(),
            "platform": self.platform.to_dict(),
            "sim": self.sim.to_dict(),
            "peripherals": self.peripherals,
        }

    @property
    def content_hash(self) -> str:
        return _cached_job_hash(self)


@dataclass(frozen=True)
class DegradationJob:
    """One calibrator measurement: slowdown between two operating points.

    The unit of work of the Fig. 6 predictor evaluation and the Sec. 7.4
    sensitivity study: the fractional slowdown of ``trace`` at ``low`` vs.
    ``high``, plus the trace's duration-weighted counters at ``high``.
    """

    kind: ClassVar[str] = "degradation"

    trace: TraceSpec
    high: PointSpec
    low: PointSpec
    platform: PlatformSpec = PlatformSpec()

    @property
    def label(self) -> str:
        pair = (
            f"{self.high.dram_frequency / config.GHZ:.2f}"
            f"->{self.low.dram_frequency / config.GHZ:.2f}GHz"
        )
        return f"{self.trace.label}/{pair}@{self.platform.label}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "trace": self.trace.to_dict(),
            "high": self.high.to_dict(),
            "low": self.low.to_dict(),
            "platform": self.platform.to_dict(),
        }

    @property
    def content_hash(self) -> str:
        return _cached_job_hash(self)


Job = Union[SimulationJob, DegradationJob]

JOB_KINDS: Dict[str, type] = {
    SimulationJob.kind: SimulationJob,
    DegradationJob.kind: DegradationJob,
}


def job_from_dict(data: Dict[str, Any]) -> Job:
    """Rebuild a job serialized with ``to_dict`` (dispatches on ``kind``)."""
    if not isinstance(data, dict):
        raise TypeError(f"a job is a dict, not {type(data).__name__}")
    kind = data.get("kind")
    if kind == SimulationJob.kind:
        return SimulationJob(
            trace=TraceSpec.from_dict(data["trace"]),
            policy=PolicySpec.from_dict(data["policy"]),
            platform=PlatformSpec.from_dict(data["platform"]),
            sim=SimSpec.from_dict(data["sim"]),
            peripherals=data.get("peripherals"),
        )
    if kind == DegradationJob.kind:
        return DegradationJob(
            trace=TraceSpec.from_dict(data["trace"]),
            high=PointSpec.from_dict(data["high"]),
            low=PointSpec.from_dict(data["low"]),
            platform=PlatformSpec.from_dict(data["platform"]),
        )
    raise KeyError(f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}")


# ---------------------------------------------------------------------------
# Execution and result decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationMeasurement:
    """Decoded result of a :class:`DegradationJob`."""

    degradation: float
    counters: CounterSample

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DegradationMeasurement":
        values = {CounterName(name): value for name, value in payload["counters"].items()}
        return cls(degradation=payload["degradation"], counters=CounterSample(values=values))


def execute_job_with_stats(
    job: Job,
) -> Tuple[Dict[str, Any], Optional[EngineRunStats]]:
    """Run one job and return ``(payload, engine_stats)``.

    This is the single execution path of the executor, in process and in its
    pool workers alike, which is what makes their results bit-identical.

    The engine's per-run loop statistics (``last_run_stats``) travel *next to*
    the payload, never inside it: cached payloads stay byte-identical whether
    or not anyone was watching.  Degradation jobs run the calibrator rather
    than one engine pass, so their stats slot is ``None``.  When ambient
    telemetry is enabled, the run is wrapped in an ``execute_job`` span,
    engine counters accumulate into the active registry, and any recorded
    segment trace is emitted to the active sinks.
    """
    platform = platform_for(job.platform)
    if isinstance(job, SimulationJob):
        sim_config = job.sim.to_config()
        if obs_state.trace_enabled() and not sim_config.trace_segments:
            # Ambient tracing flips the engine's own flag (the engine never
            # consults obs state) -- the spec, and thus the job hash, is
            # untouched because tracing is not part of job identity.
            sim_config = replace(sim_config, trace_segments=True)
        engine = SimulationEngine(platform, sim_config)
        peripherals = (
            STANDARD_CONFIGURATIONS[job.peripherals] if job.peripherals else None
        )
        with _span("execute_job", kind=job.kind, job=job.label):
            result = engine.run(
                job.trace.build(), job.policy.build(platform), peripherals
            )
        stats = engine.last_run_stats
        if obs_state.enabled():
            if stats is not None:
                obs_state.counter("engine.runs").inc()
                obs_state.counter("engine.ticks").inc(stats.ticks)
                obs_state.counter("engine.segments").inc(stats.segments)
                obs_state.counter("engine.model_evaluations").inc(
                    stats.model_evaluations
                )
                obs_state.counter("engine.memo_hits").inc(stats.memo_hits)
                obs_state.counter("engine.transitions").inc(stats.transitions)
            trace = engine.last_run_trace
            if trace is not None:
                for event in trace.events(job_hash=job.content_hash):
                    obs_state.emit(event)
        return result.to_dict(), stats
    if isinstance(job, DegradationJob):
        high = job.high.to_point("high")
        low = job.low.to_point("low")
        calibrator = ThresholdCalibrator(
            platform=platform,
            operating_points=OperatingPointTable(points=[high, low]),
        )
        trace = job.trace.build()
        with _span("execute_job", kind=job.kind, job=job.label):
            counters = calibrator.measure_counters(trace)
            payload = {
                "degradation": calibrator.measure_degradation(trace, high, low),
                "counters": {name.value: counters[name] for name in CounterName},
            }
        return payload, None
    raise TypeError(f"cannot execute {type(job).__name__}")


def execute_job(job: Job) -> Dict[str, Any]:
    """Run one job in this process and return its JSON-serializable payload."""
    return execute_job_with_stats(job)[0]


def decode_result(job: Job, payload: Dict[str, Any]):
    """Turn a job's raw payload back into its natural result object."""
    if isinstance(job, SimulationJob):
        return SimulationResult.from_dict(payload)
    if isinstance(job, DegradationJob):
        return DegradationMeasurement.from_payload(payload)
    raise TypeError(f"cannot decode results of {type(job).__name__}")
