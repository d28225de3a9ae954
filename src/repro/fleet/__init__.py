"""``repro.fleet``: the sweep service layer.

A long-lived service over the existing runtime: a durable content-addressed
job queue (:mod:`repro.fleet.queue`), a sharded result store with
``spec_hash``-level sweep-report warm starts (:mod:`repro.fleet.store`),
explicit failure semantics -- deterministic retry backoff, a quarantine that
is the one record of a job out of attempts (as the store is of a done one)
and of corrupt entries, and the ``fleet doctor`` consistency audit
(:mod:`repro.fleet.resilience`) -- with a seeded chaos harness to prove them
(:mod:`repro.fleet.faults`), and the service loop plus submit/status/verify
entry points (:mod:`repro.fleet.service`) behind ``repro serve`` /
``repro submit`` / ``repro fleet ...``.  The service runs a fixed pool of
``--workers`` processes.

Layering: fleet sits above runtime and scenarios and below the CLI; nothing
in the model or runtime layers knows the fleet exists.  The fleet never adds
a second execution path -- workers run the same ``execute_job_with_stats``
as a serial run, which is why fleet results are bit-identical to serial ones.
"""

from repro.fleet.faults import FaultPlan, FaultRule, InjectedFault
from repro.fleet.queue import JobQueue, QueueEntry
from repro.fleet.resilience import (
    DoctorReport,
    FailureRecord,
    Quarantine,
    backoff_seconds,
    run_doctor,
)
from repro.fleet.service import (
    FleetConfig,
    FleetService,
    fleet_status,
    resolve_campaign,
    submit_campaign,
    sweep_spec_hash,
    verify_campaign,
)
from repro.fleet.store import ShardedResultStore

__all__ = [
    "DoctorReport",
    "FailureRecord",
    "FaultPlan",
    "FaultRule",
    "FleetConfig",
    "FleetService",
    "InjectedFault",
    "JobQueue",
    "Quarantine",
    "QueueEntry",
    "ShardedResultStore",
    "backoff_seconds",
    "fleet_status",
    "resolve_campaign",
    "run_doctor",
    "submit_campaign",
    "sweep_spec_hash",
    "verify_campaign",
]
