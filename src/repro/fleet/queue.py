"""The durable job queue behind ``repro serve`` / ``repro submit``.

Every queue entry is one JSON file named by the job's content hash, written
atomically (same-directory temp file + ``os.replace``) on every state
transition -- a killed service or submitter never leaves a truncated entry,
and the queue's full state survives process restarts by construction.
Submitters (``repro submit``) and the service (``repro serve``) are separate
processes sharing nothing but the queue directory; the service discovers new
entries by rescanning it each poll.

An entry moves through four states::

    queued --lease()--> leased --complete()--> done
       ^                  |
       |                  +--fail() / lease timeout--+
       +--(attempts left)--------------------------- +--> failed (exhausted)

Leases carry a deadline: a worker that dies mid-job simply stops renewing,
:meth:`JobQueue.requeue_expired` flips the entry back to ``queued`` (or to
``failed`` once ``max_attempts`` is spent), and another turn of the service
loop picks it up.  A failed attempt also stamps ``not_before`` with a
deterministic exponential backoff (:func:`repro.fleet.resilience.backoff_seconds`,
jitter derived from ``(job_hash, attempt)``), which ``lease`` honors -- a
flapping job cannot hot-loop through its attempt budget.  Dispatch order is
priority first (higher sooner), then submission sequence -- a FIFO within
each priority band.

Corrupt entry files (truncated JSON, wrong schema, missing fields) are
**counted, not swallowed**: :meth:`JobQueue.scan` classifies them,
:meth:`JobQueue.counts` surfaces them under ``"corrupt"``, and the service's
healing sweep restores or quarantines them.  Transient read errors
(``OSError``, including injected ones) just hide an entry for one scan --
the bytes on disk are fine and the next scan sees them.

Deduplication happens **before** anything is enqueued: a job whose hash is
already live in the queue is returned as-is, and a job whose result already
sits in the shared :class:`~repro.fleet.store.ShardedResultStore` is recorded
straight to ``done`` (``note="store-hit"``) without ever touching a worker.
Jobs are content-addressed, so two racing submitters at worst both write the
same entry -- never conflicting ones.

Chaos seams: an optional :class:`~repro.fleet.faults.FaultPlan` attached to
the queue intercepts entry writes (torn/lost/OSError), entry reads
(transient OSError), and lease hand-out (forced pre-expired deadlines) --
all decided deterministically from the plan's seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.cache import atomic_write_json
from repro.runtime.jobs import Job, job_from_dict

__all__ = [
    "FLEET_QUEUE_SCHEMA_VERSION",
    "JobQueue",
    "QueueEntry",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_LEASED",
    "STATE_QUEUED",
]

#: Version stamp on every entry file; mismatched entries read as corrupt.
FLEET_QUEUE_SCHEMA_VERSION = 1

STATE_QUEUED = "queued"
STATE_LEASED = "leased"
STATE_DONE = "done"
STATE_FAILED = "failed"

#: All states, in lifecycle order (used by ``counts()`` and the status CLI).
STATES = (STATE_QUEUED, STATE_LEASED, STATE_DONE, STATE_FAILED)

#: Extra ``counts()`` key for unreadable entry files.
COUNT_CORRUPT = "corrupt"

#: Extra ``counts()`` key for entries hidden by a transient read error this
#: scan.  A non-zero value marks the scan as degraded: state conclusions
#: (like "drained") drawn from it would be guesses, not observations.
COUNT_TRANSIENT = "transient"


@dataclass(frozen=True)
class QueueEntry:
    """One durable queue record; the job payload rides along in full."""

    job_hash: str
    job: Dict[str, Any]
    priority: int
    seq: int
    state: str
    attempts: int = 0
    lease_deadline: Optional[float] = None
    #: Earliest wall-clock time the entry may be leased again (retry backoff).
    not_before: Optional[float] = None
    worker: Optional[str] = None
    error: Optional[str] = None
    note: Optional[str] = None

    def build_job(self) -> Job:
        """Rehydrate the executable job from its serialized payload."""
        return job_from_dict(self.job)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FLEET_QUEUE_SCHEMA_VERSION,
            "job_hash": self.job_hash,
            "job": self.job,
            "priority": self.priority,
            "seq": self.seq,
            "state": self.state,
            "attempts": self.attempts,
            "lease_deadline": self.lease_deadline,
            "not_before": self.not_before,
            "worker": self.worker,
            "error": self.error,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueueEntry":
        return cls(
            job_hash=data["job_hash"],
            job=data["job"],
            priority=int(data["priority"]),
            seq=int(data["seq"]),
            state=data["state"],
            attempts=int(data.get("attempts", 0)),
            lease_deadline=data.get("lease_deadline"),
            not_before=data.get("not_before"),
            worker=data.get("worker"),
            error=data.get("error"),
            note=data.get("note"),
        )


class _SeqLock:
    """A directory-level ``O_EXCL`` lockfile guarding the sequence counter.

    Held for microseconds per submit; a lock older than ``stale_after`` is
    treated as abandoned (a submitter killed between create and unlink) and
    broken.
    """

    def __init__(self, path: Path, stale_after: float = 10.0) -> None:
        self.path = path
        self.stale_after = stale_after

    def __enter__(self) -> "_SeqLock":
        while True:
            try:
                descriptor = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(descriptor)
                return self
            except FileExistsError:
                try:
                    held_for = time.time() - self.path.stat().st_mtime
                    if held_for > self.stale_after:
                        self.path.unlink()
                        continue
                except OSError:
                    continue  # holder released between the open and the stat
                time.sleep(0.005)

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


@dataclass
class JobQueue:
    """Durable priority/FIFO queue rooted at ``root``."""

    root: Path
    lease_timeout: float = 60.0
    max_attempts: int = 3
    #: Optional chaos plan (:class:`repro.fleet.faults.FaultPlan`); ``None``
    #: in production.  Declared ``Any`` to keep the import graph acyclic.
    faults: Optional[Any] = None
    _entries_dir: Path = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._entries_dir = self.root / "entries"
        self._entries_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Durable primitives
    # ------------------------------------------------------------------
    @property
    def entries_dir(self) -> Path:
        return self._entries_dir

    def _entry_path(self, job_hash: str) -> Path:
        return self._entries_dir / f"{job_hash}.json"

    def _write(self, entry: QueueEntry) -> None:
        atomic_write_json(
            self._entry_path(entry.job_hash),
            entry.to_dict(),
            faults=self.faults,
            fault_op="queue.write",
        )

    def _read_classified(
        self, path: Path
    ) -> Tuple[Optional[QueueEntry], Optional[str]]:
        """Read one entry file: ``(entry, None)``, ``(None, "transient")``
        for filesystem errors (bytes intact, retry next scan), or
        ``(None, "corrupt")`` for undecodable/mis-schemaed content."""
        if self.faults is not None:
            try:
                self.faults.intercept_read("queue.read", path)
            except OSError:
                return None, "transient"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None, "transient"
        try:
            data = json.loads(text)
        except ValueError:
            return None, "corrupt"
        if (
            not isinstance(data, dict)
            or data.get("schema") != FLEET_QUEUE_SCHEMA_VERSION
        ):
            return None, "corrupt"
        try:
            return QueueEntry.from_dict(data), None
        except (KeyError, TypeError, ValueError):
            return None, "corrupt"

    def _read(self, path: Path) -> Optional[QueueEntry]:
        entry, _ = self._read_classified(path)
        return entry

    def _next_seq(self) -> int:
        counter = self.root / "seq"
        with _SeqLock(self.root / "seq.lock"):
            try:
                value = int(counter.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                value = 0
            counter.write_text(str(value + 1), encoding="utf-8")
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_hash: str) -> Optional[QueueEntry]:
        return self._read(self._entry_path(job_hash))

    def scan(self) -> Tuple[List[QueueEntry], List[Path], List[Path]]:
        """One full rescan: readable entries (dispatch order), the paths of
        corrupt entry files, and the paths hidden by transient read errors.

        A non-empty transient list means this scan under-reports the queue:
        callers deciding anything terminal (drain exit, doctor verdicts)
        must rescan rather than conclude from a degraded snapshot."""
        found: List[QueueEntry] = []
        corrupt: List[Path] = []
        transient: List[Path] = []
        for path in sorted(self._entries_dir.glob("*.json")):
            entry, problem = self._read_classified(path)
            if entry is not None:
                found.append(entry)
            elif problem == "corrupt":
                corrupt.append(path)
            elif problem == "transient":
                transient.append(path)
        found.sort(key=lambda entry: (-entry.priority, entry.seq))
        return found, corrupt, transient

    def entries(self) -> List[QueueEntry]:
        """Every readable entry, rescanned from disk (sorted by dispatch
        order: priority desc, then submission sequence)."""
        return self.scan()[0]

    def scan_settled(self, attempts: int = 3) -> Tuple[List[QueueEntry], List[Path]]:
        """Rescan until no entry is transient-hidden (or ``attempts`` runs
        out), then return ``(entries, corrupt_paths)``.

        Doctor-grade readers use this so a one-scan read blip cannot turn
        into a false "lost-job" or premature-drain verdict; a path that
        stays unreadable across every attempt is treated as corrupt."""
        for _ in range(max(1, attempts)):
            found, corrupt, transient = self.scan()
            if not transient:
                return found, corrupt
        return found, corrupt + transient

    def counts(self) -> Dict[str, int]:
        """Entry counts per state, plus ``"corrupt"`` for unreadable files
        and ``"transient"`` for entries this scan could not read (every key
        present, zero included)."""
        totals = {state: 0 for state in STATES}
        entries, corrupt, transient = self.scan()
        for entry in entries:
            totals[entry.state] = totals.get(entry.state, 0) + 1
        totals[COUNT_CORRUPT] = len(corrupt)
        totals[COUNT_TRANSIENT] = len(transient)
        return totals

    def drained(self) -> bool:
        """True when no entry is waiting or running.

        Conservative under degraded scans: an entry hidden by a transient
        read error *might* be queued or leased, so it counts as not drained
        -- a draining service must never exit on a scan it could not trust.
        """
        totals = self.counts()
        return (
            totals[STATE_QUEUED] == 0
            and totals[STATE_LEASED] == 0
            and totals[COUNT_TRANSIENT] == 0
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        priority: int = 0,
        store: Optional[Any] = None,
    ) -> QueueEntry:
        """Enqueue ``job`` unless it is already live or already answered.

        ``store`` is the shared result store dedup consults: a job whose
        result is already on disk is recorded straight to ``done``.  Returns
        the (possibly pre-existing) entry either way.
        """
        job_hash = job.content_hash
        existing = self.get(job_hash)
        if existing is not None and existing.state != STATE_FAILED:
            return existing
        if store is not None and store.has_job(job_hash):
            entry = QueueEntry(
                job_hash=job_hash,
                job=job.to_dict(),
                priority=priority,
                seq=self._next_seq(),
                state=STATE_DONE,
                note="store-hit",
            )
            self._write(entry)
            return entry
        entry = QueueEntry(
            job_hash=job_hash,
            job=job.to_dict(),
            priority=priority,
            seq=self._next_seq(),
            state=STATE_QUEUED,
        )
        self._write(entry)
        return entry

    def submit_many(
        self,
        jobs: List[Job],
        priority: int = 0,
        store: Optional[Any] = None,
    ) -> Dict[str, int]:
        """Submit a batch; returns ``{enqueued, deduped_store, deduped_queue}``."""
        accounting = {"enqueued": 0, "deduped_store": 0, "deduped_queue": 0}
        seen_before = {
            entry.job_hash for entry in self.entries() if entry.state != STATE_FAILED
        }
        for job in jobs:
            job_hash = job.content_hash
            if job_hash in seen_before:
                accounting["deduped_queue"] += 1
                continue
            seen_before.add(job_hash)
            entry = self.submit(job, priority=priority, store=store)
            if entry.note == "store-hit":
                accounting["deduped_store"] += 1
            else:
                accounting["enqueued"] += 1
        return accounting

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def lease(
        self,
        limit: int = 1,
        worker: str = "worker",
        now: Optional[float] = None,
    ) -> List[QueueEntry]:
        """Claim up to ``limit`` queued entries for ``worker``.

        Each lease carries ``now + lease_timeout`` as its deadline and counts
        one attempt.  Entries still inside their retry backoff window
        (``not_before > now``) are skipped.  ``now`` is injectable so tests
        drive lease expiry and backoff without sleeping.
        """
        if limit < 1:
            raise ValueError("lease limit must be at least 1")
        now = time.time() if now is None else now
        leased: List[QueueEntry] = []
        for entry in self.entries():
            if len(leased) >= limit:
                break
            if entry.state != STATE_QUEUED:
                continue
            if entry.not_before is not None and entry.not_before > now:
                continue
            deadline = now + self.lease_timeout
            attempts = entry.attempts + 1
            if self.faults is not None and self.faults.lease_expired(
                entry.job_hash, attempts
            ):
                # Forced-expiry fault: hand out a lease that is already past
                # its deadline, exercising the takeover/requeue path.
                deadline = now - 1.0
            claimed = replace(
                entry,
                state=STATE_LEASED,
                attempts=attempts,
                lease_deadline=deadline,
                not_before=None,
                worker=worker,
            )
            self._write(claimed)
            leased.append(claimed)
        return leased

    def complete(
        self, job_hash: str, fallback: Optional[QueueEntry] = None
    ) -> QueueEntry:
        """Mark a leased entry done (idempotent for already-done entries).

        ``fallback`` is the caller's in-memory copy of the entry (the service
        holds the leased entry it dispatched): if the on-disk file has gone
        corrupt or missing in the meantime -- a torn write, an injected
        fault -- the completion is recorded over it instead of being lost.
        """
        entry = self.get(job_hash)
        if entry is None:
            if fallback is None:
                raise KeyError(f"no queue entry for {job_hash}")
            entry = fallback
        if entry.state == STATE_DONE:
            return entry
        finished = replace(
            entry,
            state=STATE_DONE,
            lease_deadline=None,
            not_before=None,
            error=None,
        )
        self._write(finished)
        return finished

    def fail(
        self,
        job_hash: str,
        error: str,
        now: Optional[float] = None,
        fallback: Optional[QueueEntry] = None,
    ) -> QueueEntry:
        """Record a failed attempt: back to ``queued`` behind a deterministic
        backoff window, or ``failed`` when ``max_attempts`` is exhausted.

        ``fallback`` plays the same torn-write-healing role as in
        :meth:`complete`.
        """
        # Deferred import: resilience imports this module at top level.
        from repro.fleet.resilience import backoff_seconds

        now = time.time() if now is None else now
        entry = self.get(job_hash)
        if entry is None:
            if fallback is None:
                raise KeyError(f"no queue entry for {job_hash}")
            entry = fallback
        exhausted = entry.attempts >= self.max_attempts
        not_before = None
        if not exhausted:
            not_before = now + backoff_seconds(job_hash, entry.attempts)
        failed = replace(
            entry,
            state=STATE_FAILED if exhausted else STATE_QUEUED,
            lease_deadline=None,
            not_before=not_before,
            worker=None,
            error=error,
        )
        self._write(failed)
        return failed

    def release(
        self,
        job_hash: str,
        note: Optional[str] = None,
        fallback: Optional[QueueEntry] = None,
    ) -> QueueEntry:
        """Return a leased entry to ``queued`` *refunding* its attempt.

        For entries that did not get a fair attempt -- e.g. co-leased
        bystanders of a pool collapse whose culprit is unknown.  No backoff
        is applied: the entry is immediately leasable (typically solo, so a
        repeat collapse identifies it exactly)."""
        entry = self.get(job_hash)
        if entry is None:
            if fallback is None:
                raise KeyError(f"no queue entry for {job_hash}")
            entry = fallback
        released = replace(
            entry,
            state=STATE_QUEUED,
            attempts=max(0, entry.attempts - 1),
            lease_deadline=None,
            not_before=None,
            worker=None,
            note=note if note is not None else entry.note,
        )
        self._write(released)
        return released

    def record_done(
        self, job_hash: str, job: Dict[str, Any], note: Optional[str] = None
    ) -> QueueEntry:
        """(Re)write a ``done`` entry from its serialized job -- the healing
        path for corrupt entries whose results already landed in the store."""
        entry = QueueEntry(
            job_hash=job_hash,
            job=job,
            priority=0,
            seq=self._next_seq(),
            state=STATE_DONE,
            note=note,
        )
        self._write(entry)
        return entry

    def record_queued(
        self, entry: QueueEntry, note: Optional[str] = None
    ) -> QueueEntry:
        """Rewrite ``entry`` as immediately-leasable ``queued`` state."""
        requeued = replace(
            entry,
            state=STATE_QUEUED,
            lease_deadline=None,
            not_before=None,
            worker=None,
            note=note if note is not None else entry.note,
        )
        self._write(requeued)
        return requeued

    def remove(self, job_hash: str) -> bool:
        """Delete an entry file outright (quarantine/GC use only)."""
        try:
            self._entry_path(job_hash).unlink()
            return True
        except OSError:
            return False

    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Return timed-out leases to the queue; exhausted ones fail.

        The service calls this once per poll, so a worker crash costs at most
        one lease timeout before the job runs elsewhere.
        """
        now = time.time() if now is None else now
        recovered = 0
        for entry in self.entries():
            if entry.state != STATE_LEASED:
                continue
            if entry.lease_deadline is not None and entry.lease_deadline > now:
                continue
            self.fail(
                entry.job_hash,
                error=(
                    f"lease expired after attempt {entry.attempts} "
                    f"(worker {entry.worker or 'unknown'})"
                ),
                now=now,
            )
            recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def gc(
        self,
        ttl: float = 3600.0,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Compact terminal entries older than ``ttl`` seconds.

        Removes ``done``/``failed`` entry files whose last state transition
        (file mtime) is older than the TTL, plus stray ``*.tmp`` files of the
        same age -- queued/leased entries are never touched.  ``dry_run``
        counts without deleting.  Returns
        ``{scanned, removed_done, removed_failed, removed_tmp, kept}``.
        """
        now = time.time() if now is None else now
        summary = {
            "scanned": 0,
            "removed_done": 0,
            "removed_failed": 0,
            "removed_tmp": 0,
            "kept": 0,
        }
        for path in sorted(self._entries_dir.glob("*.json")):
            summary["scanned"] += 1
            entry, _ = self._read_classified(path)
            if entry is None or entry.state not in (STATE_DONE, STATE_FAILED):
                summary["kept"] += 1
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                summary["kept"] += 1
                continue
            if age < ttl:
                summary["kept"] += 1
                continue
            key = "removed_done" if entry.state == STATE_DONE else "removed_failed"
            if not dry_run:
                if not self.remove(entry.job_hash):
                    summary["kept"] += 1
                    continue
            summary[key] += 1
        for tmp in sorted(self._entries_dir.glob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime < ttl:
                    continue
                if not dry_run:
                    tmp.unlink()
            except OSError:
                continue
            summary["removed_tmp"] += 1
        return summary
