"""Failure semantics for the fleet: backoff, quarantine, and the doctor.

PR 9's fleet assumed the happy path: one misbehaving job failed its whole
leased batch, a corrupt entry file simply vanished from every scan, and a
poison job retried forever with no paper trail.  This module is the other
half of the failure state machine:

* :func:`backoff_seconds` -- deterministic exponential backoff with jitter
  derived from ``(job_hash, attempt)`` through :func:`content_hash`, so retry
  schedules are reproducible (and chaos tests can pin them) while still
  decorrelating retries across jobs.  ``JobQueue.fail`` stamps the result
  into ``QueueEntry.not_before``; ``lease`` honors it.

* :class:`FailureRecord` / :class:`Quarantine` -- when a job exhausts
  ``max_attempts`` (or repeatedly breaks the worker pool, or its entry
  cannot run under its hash), its queue entry is
  replaced by a structured record under ``<fleet_root>/quarantine/``: error
  class, message, attempt count, and the per-attempt history the service
  observed (tracebacks included).  The quarantine is the failed state, as
  the store is the done state: the queue keeps no record of an exhausted
  job, and :meth:`Quarantine.absorb_exhausted`, which the service calls
  with what ``JobQueue.fail`` returned, is the one path out of the queue
  for one.  Corrupt queue-entry files get moved -- bytes intact -- into the
  same namespace instead of being silently ignored.  Quarantine is
  terminal: nothing retries out of it without an explicit resubmit.

* :func:`run_doctor` -- the consistency audit behind ``repro fleet doctor
  [--fix]``.  It cross-checks queue, store, campaign manifests, heartbeat,
  and quarantine, reporting findings by severity; ``fix=True`` applies the
  safe repairs (remove an entry file shadowed by another of the same job,
  drop a corrupt entry whose result reads back and quarantine any other,
  complete queued or leased entries whose result reads back, sweep stray
  temp files, quarantine unreadable campaign manifests).  An expired lease
  is reported, never repaired: only ``repro serve`` knows the attempt
  budget (``--max-attempts``) to judge it by, and its first poll recovers
  every expired lease.  The store is the done state, so a finished job has
  no entry to audit: a result that reads back is the whole record.  The
  exit contract: a directory is healthy iff no *unfixed* error-severity
  finding remains.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.queue import (
    STATE_LEASED,
    JobQueue,
    QueueEntry,
    entry_hash,
    is_drained,
    tally,
)
from repro.fleet.store import FleetPaths, ShardedResultStore, read_manifests
from repro.hashing import content_hash
from repro.runtime.cache import atomic_write_json

__all__ = [
    "RESILIENCE_SCHEMA_VERSION",
    "DoctorReport",
    "FailureRecord",
    "Finding",
    "Quarantine",
    "backoff_seconds",
    "run_doctor",
]

#: Stamped on every quarantine record (and the backoff jitter payloads).
RESILIENCE_SCHEMA_VERSION = 1

#: Subdirectory of a fleet root holding the quarantine namespace.
QUARANTINE_SUBDIR = "quarantine"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

#: Temp files older than this are stray (no atomic write takes seconds).
STRAY_TMP_AGE = 60.0

#: ``service.json`` ``state``: ``running`` each poll, ``stopped`` on exit.
SERVICE_RUNNING = "running"
SERVICE_STOPPED = "stopped"


# ---------------------------------------------------------------------------
# Deterministic retry backoff
# ---------------------------------------------------------------------------


def backoff_seconds(
    job_hash: str,
    attempt: int,
    base: float = 0.25,
    cap: float = 30.0,
    jitter: float = 0.5,
) -> float:
    """Delay before retry ``attempt + 1`` of ``job_hash`` may be leased.

    Exponential in the attempt number (``base * 2**(attempt-1)``, capped),
    scaled by ``1 + jitter * u`` where ``u in [0, 1)`` is derived from
    ``content_hash((job_hash, attempt))`` -- so the schedule is a pure
    function of job identity and attempt count: reproducible everywhere,
    pinnable in fixtures, yet decorrelated across jobs (no thundering-herd
    retry waves after a batch failure).
    """
    if attempt < 1:
        return 0.0
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    digest = content_hash(
        {
            "schema": RESILIENCE_SCHEMA_VERSION,
            "kind": "fleet_backoff",
            "job_hash": job_hash,
            "attempt": attempt,
        }
    )
    unit = int(digest[:12], 16) / float(16**12)
    return delay * (1.0 + jitter * unit)


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureRecord:
    """Why one job left the queue for quarantine, with its paper trail."""

    job_hash: str
    #: ``exhausted`` (max_attempts spent), ``poison-pool`` (repeatedly broke
    #: the worker pool), ``corrupt-entry`` (unreadable queue file), or
    #: ``invalid-entry`` (a readable entry whose job does not build, or
    #: builds into a job of another hash).
    reason: str
    error_class: str
    message: str
    attempts: int
    #: The serialized job payload, when the queue entry still carried one --
    #: enough to resubmit the exact job after a fix.
    job: Optional[Dict[str, Any]] = None
    #: Per-attempt failures the recording service observed, oldest first
    #: (``{"attempt", "error", "traceback"?}`` dicts).
    history: Tuple[Dict[str, Any], ...] = ()
    recorded_unix: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESILIENCE_SCHEMA_VERSION,
            "job_hash": self.job_hash,
            "reason": self.reason,
            "error_class": self.error_class,
            "message": self.message,
            "attempts": self.attempts,
            "job": self.job,
            "history": list(self.history),
            "recorded_unix": self.recorded_unix,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureRecord":
        return cls(
            job_hash=data["job_hash"],
            reason=data["reason"],
            error_class=data.get("error_class", "Exception"),
            message=data.get("message", ""),
            attempts=int(data.get("attempts", 0)),
            job=data.get("job"),
            history=tuple(data.get("history", ())),
            recorded_unix=data.get("recorded_unix"),
        )


@dataclass
class Quarantine:
    """The terminal namespace for poison jobs and corrupt queue files.

    ``<root>/jobs/<job_hash>.json`` holds one :class:`FailureRecord` per
    quarantined job; ``<root>/corrupt/<hash>.json`` holds corrupt queue-entry
    files (and campaign manifests) moved out of the scan path with their
    bytes intact (forensics beats deletion).  Nothing in here is ever leased
    again.
    """

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def add(self, record: FailureRecord) -> Path:
        path = self.jobs_dir / f"{record.job_hash}.json"
        atomic_write_json(path, record.to_dict())
        return path

    def get(self, job_hash: str) -> Optional[FailureRecord]:
        try:
            with (self.jobs_dir / f"{job_hash}.json").open(
                "r", encoding="utf-8"
            ) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != RESILIENCE_SCHEMA_VERSION
        ):
            return None
        try:
            return FailureRecord.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    def has(self, job_hash: str) -> bool:
        """True when ``job_hash`` is accounted for in quarantine -- either a
        structured record or a corrupt entry file moved here under its name."""
        if (self.jobs_dir / f"{job_hash}.json").is_file():
            return True
        return (self.corrupt_dir / f"{job_hash}.json").is_file()

    def absorb_exhausted(
        self,
        queue: JobQueue,
        entry: QueueEntry,
        now: float,
        history: Tuple[Dict[str, Any], ...] = (),
        reason: str = "exhausted",
    ) -> None:
        """Record an entry :meth:`JobQueue.fail` returned exhausted (or one
        that can never run, under ``reason``), then remove its files from
        ``queue``.

        The record is written first, so a crash before the removal leaves a
        lease that expires and is quarantined again, never a job with no
        record.  ``history`` is what the caller observed of the job's
        attempts; its last entry names the error class.
        """
        error_class = (
            history[-1].get("error_class", "Exception") if history else "Exception"
        )
        self.add(
            FailureRecord(
                job_hash=entry.job_hash,
                reason=reason,
                error_class=error_class,
                message=entry.error or "",
                attempts=entry.attempts,
                job=entry.job,
                history=history,
                recorded_unix=now,
            )
        )
        queue.remove(entry.job_hash)

    def absorb_corrupt(self, path: Path) -> Path:
        """Move a corrupt file into the quarantine as ``<hash>.json``: the
        hash its name carries (:func:`~repro.fleet.queue.entry_hash`)."""
        self.corrupt_dir.mkdir(parents=True, exist_ok=True)
        target = self.corrupt_dir / f"{entry_hash(path.name)}.json"
        os.replace(path, target)
        return target

    def counts(self) -> Dict[str, int]:
        jobs = len(list(self.jobs_dir.glob("*.json"))) if self.jobs_dir.is_dir() else 0
        corrupt = (
            len(list(self.corrupt_dir.iterdir())) if self.corrupt_dir.is_dir() else 0
        )
        return {"jobs": jobs, "corrupt": corrupt}


# ---------------------------------------------------------------------------
# The doctor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One doctor observation: what, about which object, how bad, fixed?"""

    severity: str
    code: str
    subject: str
    message: str
    fixed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "code": self.code,
            "subject": self.subject,
            "message": self.message,
            "fixed": self.fixed,
        }


@dataclass
class DoctorReport:
    """Everything ``repro fleet doctor`` found, plus the health verdict."""

    root: str
    fix: bool
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Healthy iff no error-severity finding is left unfixed."""
        return not any(
            finding.severity == SEVERITY_ERROR and not finding.fixed
            for finding in self.findings
        )

    @property
    def fixed_count(self) -> int:
        return sum(1 for finding in self.findings if finding.fixed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "fix": self.fix,
            "ok": self.ok,
            "fixed": self.fixed_count,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists, just not ours to signal
    return True


#: Seconds after which a running service's heartbeat reads as stale, in
#: ``fleet status`` and the doctor alike.
HEARTBEAT_STALE_AFTER = 30.0


def _read_heartbeat(path: Path, now: float) -> Optional[Dict[str, Any]]:
    """The service heartbeat at ``path`` plus a ``health`` verdict, or None.

    ``health`` carries the beat's age, ``alive`` (a running beat with a live
    pid) and ``stale`` (age beyond :data:`HEARTBEAT_STALE_AFTER` or a dead
    pid).  A ``stopped`` beat, written when the loop exits, is never stale.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            beat = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(beat, dict):
        return None
    age = now - float(beat.get("updated_unix", 0.0))
    pid = int(beat.get("pid", -1))
    stopped = beat.get("state") == SERVICE_STOPPED
    alive = not stopped and pid > 0 and _pid_alive(pid)
    beat["health"] = {
        "age_seconds": age,
        "alive": alive,
        "stale": not stopped and (age > HEARTBEAT_STALE_AFTER or not alive),
    }
    return beat


def run_doctor(
    root: Path,
    fix: bool = False,
    now: Optional[float] = None,
) -> DoctorReport:
    """Audit one fleet directory's queue/store/manifest/heartbeat consistency.

    Pure observation by default; ``fix=True`` additionally applies every
    repair that cannot lose information.  Findings come back ordered by
    check, each tagged with severity and whether it was fixed.  ``now`` is
    injectable so tests audit frozen directories deterministically.
    """
    now = time.time() if now is None else now
    paths = FleetPaths(Path(root))
    queue = JobQueue(paths.queue_dir)
    store = ShardedResultStore(paths.store_dir)
    quarantine = Quarantine(paths.root / QUARANTINE_SUBDIR)
    report = DoctorReport(root=str(paths.root), fix=fix)
    findings = report.findings

    # -- 1. duplicate and corrupt queue entries --------------------------
    # One job with two entry files (a transition whose cleanup never ran,
    # or two racing submitters) reads as the winning file; the other is
    # never read or leased.
    for path in queue.duplicates():
        repaired = False
        if fix:
            try:
                path.unlink()
                repaired = True
            except OSError:
                pass
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "duplicate-entry",
                entry_hash(path.name),
                f"{path.relative_to(paths.root)} is shadowed by another entry "
                "file of the same job" + ("; removed" if repaired else ""),
                repaired,
            )
        )
    # scan_settled retries transient-hidden entries so a one-scan read
    # blip cannot fabricate a lost-job/skew verdict out of thin air.
    scan = queue.scan_settled()
    for path in scan.corrupt:
        job_hash = entry_hash(path.name)
        repaired = fix
        if fix:
            if store.job_payload(job_hash) is not None:
                path.unlink(missing_ok=True)
                message = "corrupt queue entry dropped: its result is stored"
            else:
                quarantine.absorb_corrupt(path)
                message = "corrupt queue entry moved to quarantine"
        elif path.parent == queue.entries_dir:
            message = "queue entry in the schema-1 flat layout"
        else:
            message = "unreadable queue entry (json or schema)"
        findings.append(
            Finding(SEVERITY_ERROR, "corrupt-entry", job_hash, message, repaired)
        )

    # -- 2/3. queue-vs-store state skew ---------------------------------
    for entry in scan.entries:
        if store.job_payload(entry.job_hash) is not None:
            repaired = False
            if fix:
                queue.complete(entry)
                repaired = True
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "already-stored",
                    entry.job_hash,
                    f"{entry.state} entry already has a stored result",
                    repaired,
                )
            )
        elif (
            entry.state == STATE_LEASED
            and entry.lease_deadline is not None
            and entry.lease_deadline <= now
        ):
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "expired-lease",
                    entry.job_hash,
                    f"lease expired (worker {entry.worker or 'unknown'}); "
                    "the next serve poll recovers it",
                )
            )

    # -- 4. heartbeat liveness ------------------------------------------
    # Pending work is read by the one drained rule, after any repair above.
    if fix:
        scan = queue.scan_settled()
    undrained = not is_drained(tally(*scan))
    beat = _read_heartbeat(paths.heartbeat, now)
    if beat is None or beat.get("state") == SERVICE_STOPPED:
        if undrained:
            why = (
                "no service heartbeat exists"
                if beat is None
                else f"the service stopped ({beat.get('exit')})"
            )
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "no-service",
                    "service.json",
                    f"work is pending but {why}",
                )
            )
    elif beat["health"]["stale"]:
        age, alive = beat["health"]["age_seconds"], beat["health"]["alive"]
        state = "stale" if age > HEARTBEAT_STALE_AFTER else "dead-pid"
        findings.append(
            Finding(
                SEVERITY_WARNING if undrained else SEVERITY_INFO,
                "stale-heartbeat",
                "service.json",
                f"heartbeat is {state} (age {age:.1f}s, pid "
                f"{beat.get('pid', -1)} {'alive' if alive else 'not running'})"
                + ("; queued/leased work is waiting" if undrained else ""),
            )
        )

    # -- 5. stray temp files --------------------------------------------
    for base in (queue.entries_dir, store.root, paths.campaigns_dir):
        if not base.is_dir():
            continue
        for tmp in sorted(base.rglob("*.tmp")):
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age <= STRAY_TMP_AGE:
                continue
            repaired = False
            if fix:
                try:
                    tmp.unlink()
                    repaired = True
                except OSError:
                    pass
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "stray-tmp",
                    str(tmp.relative_to(paths.root)),
                    f"orphaned temp file ({age:.0f}s old)",
                    repaired,
                )
            )

    # -- 6. manifest accounting ------------------------------------------
    known = {entry.job_hash for entry in scan.entries}
    manifests, unreadable = read_manifests(paths)
    for manifest_path in unreadable:
        repaired = False
        if fix:
            quarantine.absorb_corrupt(manifest_path)
            repaired = True
        findings.append(
            Finding(
                SEVERITY_ERROR,
                "corrupt-manifest",
                str(manifest_path.relative_to(paths.root)),
                "unreadable campaign manifest (json, schema or spec hash); "
                "no service can finalize its sweep"
                + ("; moved to quarantine" if repaired else ""),
                repaired,
            )
        )
    for manifest in manifests:
        for job_hash in manifest["jobs"]:
            if job_hash in known or store.job_payload(job_hash) is not None:
                continue
            if quarantine.has(job_hash):
                findings.append(
                    Finding(
                        SEVERITY_INFO,
                        "quarantined-job",
                        job_hash,
                        f"manifest job is quarantined "
                        f"(campaign {manifest['campaign']})",
                    )
                )
            else:
                findings.append(
                    Finding(
                        SEVERITY_ERROR,
                        "lost-job",
                        job_hash,
                        "manifest job has no queue entry, readable result, "
                        "or quarantine record",
                    )
                )

    quarantine_counts = quarantine.counts()
    if quarantine_counts["jobs"] or quarantine_counts["corrupt"]:
        findings.append(
            Finding(
                SEVERITY_INFO,
                "quarantine",
                QUARANTINE_SUBDIR,
                (
                    f"{quarantine_counts['jobs']} quarantined job(s), "
                    f"{quarantine_counts['corrupt']} corrupt file(s) preserved"
                ),
            )
        )
    return report
