"""Parallel experiment executor with content-addressed result caching.

The runtime turns the reproduction's simulation sweeps into declarative jobs:

* :mod:`repro.runtime.jobs` -- frozen job specs (trace x policy x platform x
  engine config) with deterministic content hashes;
* :mod:`repro.runtime.cache` -- an on-disk JSON result store keyed by job hash;
* :mod:`repro.runtime.executor` -- a serial executor and a process-pool
  executor that rebuild platforms per worker and report per-job progress;
* :mod:`repro.runtime.campaign` -- declarative sweep grids (workload x policy
  x TDP x DRAM device, or x explicit hardware variants), deduplicated before
  submission, and the named campaigns behind ``resolve_campaign``.

The ``python -m repro`` command line that drives all of this is the app-layer
:mod:`repro.cli` package, not part of the runtime.
"""

from repro.hw import DramSpec, HardwareSpec
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.campaign import (
    CAMPAIGNS,
    Campaign,
    build_grid_campaign,
    build_hardware_grid_campaign,
    dedupe_jobs,
)
from repro.runtime.executor import (
    ExecutionReport,
    Executor,
    JobOutcome,
    ParallelExecutor,
    ProgressUpdate,
    SerialExecutor,
    make_executor,
)
from repro.runtime.jobs import (
    DegradationJob,
    DegradationMeasurement,
    Job,
    PlatformSpec,
    PointSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    clear_memos,
    decode_result,
    execute_job,
    job_from_dict,
)

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "DegradationJob",
    "DegradationMeasurement",
    "DramSpec",
    "ExecutionReport",
    "HardwareSpec",
    "Executor",
    "Job",
    "JobOutcome",
    "ParallelExecutor",
    "PlatformSpec",
    "PointSpec",
    "PolicySpec",
    "ProgressUpdate",
    "ResultCache",
    "SerialExecutor",
    "SimSpec",
    "SimulationJob",
    "TraceSpec",
    "build_grid_campaign",
    "build_hardware_grid_campaign",
    "clear_memos",
    "decode_result",
    "dedupe_jobs",
    "default_cache_dir",
    "execute_job",
    "job_from_dict",
    "make_executor",
]
