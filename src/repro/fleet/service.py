"""The sweep service: campaigns in, bit-identical sweep reports out.

One fleet directory is the whole coordination surface::

    <root>/
      queue/      durable job queue (repro.fleet.queue)
      store/      sharded result store (repro.fleet.store)
      campaigns/  submitted sweep manifests, one per spec_hash
      service.json   service heartbeat (pid, workers, queue counts, state)

``repro submit`` resolves a named campaign to jobs, writes a **manifest**
(campaign name + ordered job hashes, keyed by the sweep's ``spec_hash``), and
enqueues the jobs -- deduplicating against both the live queue and results
already in the store.  A campaign whose report already exists is a pure warm
start: nothing is enqueued at all.

``repro serve`` runs :class:`FleetService`: each poll it recovers expired
leases, leases a slice of the queue, runs it through a batched
:class:`~repro.runtime.executor.Executor` of ``--workers`` processes
writing straight into the store's job namespace, completes each job whose
result reads back, finalizes any manifest whose jobs have all landed into a
``spec_hash``-keyed sweep report, and writes a ``running`` heartbeat.  When
the loop exits it rewrites that heartbeat as ``stopped`` with the exit
reason, so status and doctor can tell a clean exit from a crash.

The store is the done state.  After a dispatch the service reads each
job's result once; one that reads back completes the entry (its file is
unlinked), and one that does not -- a torn or lost result write -- releases
the entry with its attempt refunded, so the job runs again and is never
counted done or served.  The quarantine is the failed state: a job that
used up its attempts leaves the queue for a ``FailureRecord`` in the poll
that exhausts it, and an entry whose job cannot run under its hash (it does
not build, or builds into another job) in the poll that leases it.  The
queue therefore holds only unfinished work, and a drained directory holds no
entry file.

Every queue transition writes the entry the service holds, and the service
keeps each entry it dispatched as it last wrote it: the lease, or what
``fail`` or ``release`` returned.  When a poll's scan finds that entry's
file torn, healing writes the kept copy back unchanged
(:meth:`~repro.fleet.queue.JobQueue.restore`): a requeue keeps its refund,
backoff, error and note, and a lease stays leased until it expires.

A poll reads the queue once: one :meth:`~repro.fleet.queue.JobQueue.scan` at
its top feeds corrupt-entry healing, lease expiry, quarantine and the lease,
and is dropped before dispatch.  That scan lists both state directories but
reads only what the poll can act on: the queued entries in dispatch order
until ``lease_limit`` of them are leasable, and every leased entry.  The
drain check between polls is a listing that reads no entry file, so no
transient read error can hold it up.

The heartbeat's ``queue`` block is always the tally of a real scan, never
in-memory bookkeeping (files listed but not read count in their directory's
state): a ``running`` beat carries the tally of that poll's scan, taken at
its ``updated_unix``; the ``stopped`` beat carries the loop's latest scan,
which for a ``drained`` or ``blocked`` exit is the drain check's listing
after the last poll.  Done jobs are counted where they are recorded: in
``fleet status``, per campaign (``landed``) and in the store (``jobs``).

Determinism contract: the service orchestrates *which* jobs run where and
when, but every job still executes ``execute_job_with_stats`` and every
result payload is the job's pure function of its spec -- so fleet-run
payloads and reports are bit-identical to a serial run of the same campaign
(:func:`verify_campaign` asserts exactly that, and CI runs it).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

from repro.fleet.faults import directive_hook
from repro.fleet.queue import (
    PRIORITIES,
    STATE_EXHAUSTED,
    STATE_QUEUED,
    JobQueue,
    QueueEntry,
    entry_hash,
    is_drained,
    tally,
)
from repro.fleet.resilience import (
    QUARANTINE_SUBDIR,
    SERVICE_RUNNING,
    SERVICE_STOPPED,
    FailureRecord,
    Quarantine,
    _read_heartbeat,
)
from repro.fleet.store import (
    FLEET_SCHEMA_VERSION,
    FleetPaths,
    ShardedResultStore,
    read_manifests,
)
from repro.hashing import content_hash
from repro.obs import state as obs_state
from repro.runtime.campaign import Campaign, resolve_campaign
from repro.runtime.cache import atomic_write_json
from repro.runtime.executor import Executor, JobFailure

__all__ = [
    "FleetConfig",
    "FleetPaths",
    "FleetService",
    "fleet_status",
    "resolve_campaign",
    "submit_campaign",
    "sweep_spec_hash",
    "verify_campaign",
]


# ---------------------------------------------------------------------------
# Sweep identity
# ---------------------------------------------------------------------------


def sweep_spec_hash(campaign: Campaign) -> str:
    """The sweep's identity: what was asked for, not what came back.

    Hashes the campaign name plus the *ordered* job hashes under a schema
    stamp.  Two submissions asking for the same jobs in the same order share
    one report; capping ``max_simulated_time`` or swapping a policy changes
    every job hash and therefore the spec hash.
    """
    return content_hash(
        {
            "schema": FLEET_SCHEMA_VERSION,
            "kind": "fleet_sweep",
            "campaign": campaign.name,
            "jobs": [job.content_hash for job in campaign.jobs],
        }
    )


def build_sweep_report(
    campaign_name: str,
    spec_hash: str,
    job_hashes: List[str],
    results: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """The canonical sweep-report document (pure function of its inputs)."""
    return {
        "schema": FLEET_SCHEMA_VERSION,
        "campaign": campaign_name,
        "spec_hash": spec_hash,
        "jobs": list(job_hashes),
        "results": {job_hash: results[job_hash] for job_hash in job_hashes},
    }


# ---------------------------------------------------------------------------
# Producer side (repro submit)
# ---------------------------------------------------------------------------


def submit_campaign(
    root: Path, campaign: Campaign, priority: int = 0
) -> Dict[str, Any]:
    """Submit a campaign's jobs to the fleet directory at ``root``.

    Writes the manifest, then enqueues jobs with store/queue dedup: a job
    whose result reads back from the store is done, counts under
    ``deduped_store``, and gets no queue entry.  If the sweep's report is
    already stored, this is a pure warm start: no jobs are enqueued and
    ``warm_start`` is true in the returned summary.  A priority
    outside :data:`~repro.fleet.queue.PRIORITIES` raises ``ValueError``
    before anything is written.
    """
    if priority not in PRIORITIES:
        raise ValueError(
            f"priority must be within [{PRIORITIES[0]}, {PRIORITIES[-1]}], "
            f"got {priority}"
        )
    paths = FleetPaths(Path(root))
    store = ShardedResultStore(paths.store_dir)
    queue = JobQueue(paths.queue_dir)
    spec_hash = sweep_spec_hash(campaign)
    job_hashes = [job.content_hash for job in campaign.jobs]
    manifest = {
        "schema": FLEET_SCHEMA_VERSION,
        "kind": "fleet_manifest",
        "campaign": campaign.name,
        "spec_hash": spec_hash,
        "jobs": job_hashes,
    }
    atomic_write_json(paths.campaigns_dir / f"{spec_hash}.json", manifest)

    summary: Dict[str, Any] = {
        "campaign": campaign.name,
        "spec_hash": spec_hash,
        "jobs": len(job_hashes),
        "warm_start": store.get_report(spec_hash) is not None,
        "enqueued": 0,
        "deduped_store": 0,
        "deduped_queue": 0,
    }
    if summary["warm_start"]:
        return summary
    accounting = queue.submit_many(
        list(campaign.jobs), priority=priority, store=store
    )
    summary.update(accounting)
    obs_state.counter("fleet.submitted_jobs").inc(accounting["enqueued"])
    return summary


# ---------------------------------------------------------------------------
# The service loop (repro serve)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Every knob ``repro serve`` exposes, in one place.

    The worker pool is pinned at ``workers`` for the service's lifetime.
    """

    root: Path
    workers: int = 2
    poll_interval: float = 0.2
    lease_timeout: float = 60.0
    #: Jobs leased (and handed to the executor) per poll.
    lease_limit: int = 64
    max_attempts: int = 3
    #: Accepted only as ``False``, so callers that pass ``autoscale=False``
    #: keep working; the pool never changes size.
    autoscale: bool = False
    #: Drain mode: exit once the queue is empty and every manifest is
    #: finalized (after waiting up to ``drain_grace`` seconds for the first
    #: work to appear), or ``blocked`` once a pending manifest's missing jobs
    #: are quarantined, or lost for ``drain_grace`` seconds with the queue
    #: empty.  This is what CI and tests run.
    drain: bool = False
    drain_grace: float = 10.0
    #: Non-drain services exit after this many seconds with nothing to do
    #: (None = run until killed).
    idle_timeout: Optional[float] = None
    #: Optional chaos plan (:class:`repro.fleet.faults.FaultPlan`) threaded
    #: into the queue, the store's report namespace, and job dispatch.
    #: ``None`` in production (``repro serve --faults`` / ``REPRO_FLEET_FAULTS``
    #: set it for chaos runs).
    faults: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.autoscale:
            raise ValueError(
                "autoscale=True is not supported: the pool is pinned at workers"
            )
        # A bad value here would only fail later, inside the loop: a lease
        # limit of 0 makes every poll raise, so ``drain`` never exits.
        for name in ("workers", "lease_limit", "max_attempts"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {self.lease_timeout}")
        for name in ("poll_interval", "drain_grace", "idle_timeout"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


class FleetService:
    """A long-lived worker loop over one fleet directory."""

    #: Entry note marking a suspected pool-breaker (dispatched solo).
    POOL_SUSPECT = "pool-suspect"

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.paths = FleetPaths(Path(config.root))
        self.store = ShardedResultStore(self.paths.store_dir, faults=config.faults)
        self.queue = JobQueue(
            self.paths.queue_dir,
            lease_timeout=config.lease_timeout,
            max_attempts=config.max_attempts,
            faults=config.faults,
        )
        self.quarantine = Quarantine(self.paths.root / QUARANTINE_SUBDIR)
        self.executor = Executor(workers=config.workers)
        self.worker_name = f"service-{os.getpid()}"
        self.rounds = 0
        self.jobs_run = 0
        self.jobs_failed = 0
        self.jobs_quarantined = 0
        self.reports_finalized = 0
        self.poll_errors = 0
        #: Tally of the loop's latest queue scan: the poll's own, or the
        #: serve loop's drain check.  The heartbeat writes it.
        self._last_counts: Optional[Dict[str, int]] = None
        #: Every entry this service has leased and not completed or
        #: quarantined, as its dispatch last wrote it: the lease, or what
        #: ``fail`` or ``release`` returned.  Healing writes it back when
        #: its file is torn.
        self._known: Dict[str, QueueEntry] = {}
        #: Spec hashes whose stored report read back valid.
        self._reported: Set[str] = set()
        #: Per-job failure history observed by this process (feeds the
        #: quarantine ``FailureRecord``; tracebacks included).
        self._failure_history: Dict[str, List[Dict[str, Any]]] = {}

    # -- one poll's worth of work ---------------------------------------
    def run_once(self, now: Optional[float] = None) -> int:
        """Heal, recover, lease, execute, quarantine, finalize -- once.

        Returns the number of jobs *completed* (0 means the poll found
        nothing, or nothing it ran has a result that reads back).  Per-job
        failures never propagate out of here: culprits are ``fail()``ed
        behind a backoff window (and eventually quarantined), healthy
        co-leased jobs complete.  ``now`` is injectable for tests; the
        default is the wall clock, which only ever gates *scheduling*
        (leases, cooldowns, backoff), never results.
        """
        now = time.time() if now is None else now
        self.rounds += 1
        leased = self._scan_and_lease(now)
        completed = 0
        if leased:
            # Suspected pool-breakers run solo so a repeat collapse names its
            # culprit exactly; everything else shares one dispatch.
            solo = [e for e in leased if e.note == self.POOL_SUSPECT]
            grouped = [e for e in leased if e.note != self.POOL_SUSPECT]
            for entry in leased:
                self._known[entry.job_hash] = entry
            for dispatch in [[entry] for entry in solo] + (
                [grouped] if grouped else []
            ):
                completed += self._dispatch(dispatch, now)
        self.reports_finalized += self.finalize_reports()
        self._write_heartbeat(now)
        return completed

    def _scan_and_lease(self, now: float) -> List[QueueEntry]:
        """The poll's one queue scan: heal, expire, quarantine, lease.

        Each step updates the snapshot with the entries it rewrote, so the
        lease sees what a rescan would: the queued entries the scan did not
        read all come after ``lease_limit`` leasable ones.  The scan's tally
        becomes the heartbeat's counts.  Only the leased entries outlive
        this call: dispatch does not hold the snapshot.
        """
        scan = self.queue.scan(lease_limit=self.config.lease_limit, now=now)
        self._last_counts = tally(*scan)
        snapshot = {entry.job_hash: entry for entry in scan.entries}
        for entry in self._heal_corrupt(scan.corrupt, now):
            snapshot[entry.job_hash] = entry
        for entry in self.queue.expire_leases(snapshot.values(), now):
            snapshot[entry.job_hash] = entry
            self._quarantine(entry, now)
        return self.queue.lease(
            limit=self.config.lease_limit,
            worker=self.worker_name,
            now=now,
            entries=snapshot.values(),
        )

    def _complete(self, entry: QueueEntry) -> bool:
        """Complete a dispatched entry if its result reads back.

        The store is the done state, so one read of the result decides.  A
        result that does not read back (a torn or lost write) releases the
        entry with its attempt refunded: the job runs again, and is never
        counted done or served.  Returns whether the entry completed.
        """
        if self.store.job_payload(entry.job_hash) is None:
            self._known[entry.job_hash] = self.queue.release(entry)
            return False
        self.queue.complete(entry)
        self._known.pop(entry.job_hash, None)
        return True

    # -- dispatch and failure isolation ---------------------------------
    def _dispatch(self, leased: List[QueueEntry], now: float) -> int:
        """Run one leased slice; complete survivors, fail culprits.

        An entry whose job does not build, or does not hash to the entry's
        hash (:meth:`QueueEntry.build_job`), would never complete: it is
        quarantined as ``invalid-entry`` here, and the rest of the slice
        runs.  The job memoizes the hash that check computes, so the
        executor does not hash it again.
        """
        entries: List[QueueEntry] = []
        jobs = []
        for entry in leased:
            try:
                jobs.append(entry.build_job())
            except (KeyError, TypeError, ValueError) as error:
                self._record_history(entry, type(error).__name__, str(error))
                invalid = replace(entry, error=f"{type(error).__name__}: {error}")
                self._absorb(invalid, now, "invalid-entry")
            else:
                entries.append(entry)
        if not entries:
            return 0
        pre_hook = None
        if self.config.faults is not None:
            directives = self.config.faults.job_directives(
                [(entry.job_hash, entry.attempts) for entry in entries]
            )
            if directives:
                pre_hook = directive_hook(directives)
        failures: Dict[str, JobFailure] = {}

        def on_error(job: Any, failure: JobFailure) -> None:
            failures[job.content_hash] = failure

        try:
            self.executor.run(
                jobs,
                cache=self.store.job_cache(),
                on_error=on_error,
                pre_hook=pre_hook,
            )
        except BrokenExecutor:
            self._recover_pool_break(entries, now)
            return 0
        except Exception as error:  # noqa: BLE001 - infrastructure failure
            # Not a per-job error (isolation would have routed it): charge
            # the whole slice one attempt and keep the service alive.
            obs_state.counter("fleet.failures.dispatch").inc()
            failure = JobFailure(
                job_hash="",
                kind=type(error).__name__,
                message=str(error),
                traceback="",
            )
            for entry in entries:
                self._fail_entry(entry, failure, now)
            return 0
        completed = 0
        for entry in entries:
            failure = failures.get(entry.job_hash)
            if failure is not None:
                self._fail_entry(entry, failure, now)
            elif self._complete(entry):
                completed += 1
        if completed:
            self.jobs_run += completed
            obs_state.counter("fleet.jobs_completed").inc(completed)
        return completed

    def _recover_pool_break(self, entries: List[QueueEntry], now: float) -> None:
        """A worker died and poisoned the pool: requeue, suspect, recover.

        The executor has already torn the broken pool down (a fresh one is
        built lazily on the next dispatch).  Results from this slice never
        landed, so: a solo dispatch identifies its culprit exactly and is
        charged the attempt; a shared dispatch releases every entry with the
        attempt *refunded* and marks them pool-suspects to be retried solo.
        Repeat solo breakers exhaust their budget and end up quarantined as
        poison.
        """
        obs_state.counter("fleet.failures.pool_breaks").inc()
        for entry in entries:
            if self.store.has_job(entry.job_hash):  # landed before the break
                self._complete(entry)
                continue
            if len(entries) == 1:
                self._record_history(
                    entry,
                    "BrokenProcessPool",
                    "worker process died during solo dispatch",
                )
                updated = self.queue.fail(
                    entry,
                    error="BrokenProcessPool: worker died during solo dispatch",
                    now=now,
                )
                self.jobs_failed += 1
                obs_state.counter("fleet.failures.jobs").inc()
                if updated.state == STATE_QUEUED:
                    self._known[entry.job_hash] = updated
                self._quarantine(updated, now)
            else:
                self._known[entry.job_hash] = self.queue.release(
                    entry, note=self.POOL_SUSPECT
                )
                obs_state.counter("fleet.retries.pool_suspects").inc()

    def _fail_entry(
        self, entry: QueueEntry, failure: JobFailure, now: float
    ) -> None:
        self._record_history(
            entry, failure.kind, failure.message, failure.traceback
        )
        updated = self.queue.fail(entry, error=failure.describe(), now=now)
        self.jobs_failed += 1
        obs_state.counter("fleet.failures.jobs").inc()
        if updated.state == STATE_QUEUED:
            obs_state.counter("fleet.retries.scheduled").inc()
            self._known[entry.job_hash] = updated
        self._quarantine(updated, now)

    def _record_history(
        self,
        entry: QueueEntry,
        error_class: str,
        message: str,
        traceback: str = "",
    ) -> None:
        record: Dict[str, Any] = {
            "attempt": entry.attempts,
            "error_class": error_class,
            "error": f"{error_class}: {message}",
        }
        if traceback:
            record["traceback"] = traceback
        self._failure_history.setdefault(entry.job_hash, []).append(record)

    # -- healing and quarantine -----------------------------------------
    def _heal_corrupt(self, corrupt: List[Path], now: float) -> List[QueueEntry]:
        """Drop, restore or quarantine the poll scan's unreadable entry files.

        A file whose job's result reads back is dropped: the job is done.
        Otherwise an entry this service last wrote is written back as it
        was (:meth:`JobQueue.restore`): a torn requeue keeps its refund,
        backoff, error and note, and a torn lease stays leased and expires
        like any lease.  A corrupt file with neither is left alone until it
        is older than the lease timeout -- the service holding an in-flight
        torn write rewrites or removes it within one poll -- then moved,
        bytes intact, into quarantine with a ``FailureRecord``.  Returns the
        restored entries, which this poll may expire or lease.
        """
        restored: List[QueueEntry] = []
        for path in corrupt:
            job_hash = entry_hash(path.name)
            if self.store.job_payload(job_hash) is not None:
                path.unlink(missing_ok=True)
                obs_state.counter("fleet.failures.corrupt_healed").inc()
                continue
            known = self._known.get(job_hash)
            if known is not None:
                restored.append(self.queue.restore(known))
                obs_state.counter("fleet.failures.corrupt_healed").inc()
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age <= self.config.lease_timeout:
                continue
            self.quarantine.add(
                FailureRecord(
                    job_hash=job_hash,
                    reason="corrupt-entry",
                    error_class="ValueError",
                    message="unreadable queue entry with no recovery source",
                    attempts=0,
                    recorded_unix=now,
                )
            )
            self.quarantine.absorb_corrupt(path)
            self.jobs_quarantined += 1
            obs_state.counter("fleet.failures.quarantined").inc()
        return restored

    def _quarantine(self, entry: QueueEntry, now: float) -> None:
        """Quarantine ``entry`` if :meth:`JobQueue.fail` returned it exhausted.

        Callers pass what ``fail`` just returned, so an entry is quarantined
        in the poll that exhausts it, before a draining loop can observe it
        and exit.
        """
        if entry.state == STATE_EXHAUSTED:
            reason = "poison-pool" if entry.note == self.POOL_SUSPECT else "exhausted"
            self._absorb(entry, now, reason)

    def _absorb(self, entry: QueueEntry, now: float, reason: str) -> None:
        """Move ``entry`` into quarantine under ``reason``, with this
        service's history of it."""
        self.quarantine.absorb_exhausted(
            self.queue,
            entry,
            now,
            history=tuple(self._failure_history.pop(entry.job_hash, ())),
            reason=reason,
        )
        self._known.pop(entry.job_hash, None)
        self.jobs_quarantined += 1
        obs_state.counter("fleet.failures.quarantined").inc()

    def finalize_reports(self) -> int:
        """Turn fully-landed manifests into stored ``spec_hash`` reports.

        A manifest's payloads are read only once every one of its jobs has a
        result on disk, and a report that read back valid is not read again.
        A freshly written report is not taken on trust: the next check reads
        it, so one torn by a faulted write reads as absent and is rewritten.
        """
        finalized = 0
        manifests, _ = read_manifests(self.paths)
        for manifest in manifests:
            spec_hash = manifest["spec_hash"]
            job_hashes = list(manifest["jobs"])
            if self._report_stored(spec_hash) or not all(
                self.store.has_job(job_hash) for job_hash in job_hashes
            ):
                continue
            results: Dict[str, Dict[str, Any]] = {}
            for job_hash in job_hashes:
                payload = self.store.job_payload(job_hash)
                if payload is None:
                    break
                results[job_hash] = payload
            else:
                self.store.put_report(
                    spec_hash,
                    build_sweep_report(
                        manifest["campaign"], spec_hash, job_hashes, results
                    ),
                )
                finalized += 1
        return finalized

    def _report_stored(self, spec_hash: str) -> bool:
        """True once ``spec_hash``'s stored report has read back valid."""
        if spec_hash in self._reported:
            return True
        if self.store.get_report(spec_hash) is None:
            return False
        self._reported.add(spec_hash)
        return True

    def _write_heartbeat(
        self, now: float, summary: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write ``service.json``: each poll's ``running`` beat, or, given
        the loop's exit ``summary``, the terminal ``stopped`` beat, which
        carries that summary whole.

        Either beat carries the tally of the loop's latest scan, so writing
        it adds no queue scan.
        """
        beat: Dict[str, Any] = {
            "schema": FLEET_SCHEMA_VERSION,
            "pid": os.getpid(),
            "worker": self.worker_name,
            "updated_unix": now,
            "workers": self.executor.workers,
            "rounds": self.rounds,
            "jobs_run": self.jobs_run,
            "queue": self._last_counts,
            "state": SERVICE_RUNNING if summary is None else SERVICE_STOPPED,
        }
        if summary is not None:
            beat.update(summary)
        atomic_write_json(self.paths.heartbeat, beat)

    def serve_forever(self) -> Dict[str, Any]:
        """The ``repro serve`` loop; returns a summary when it exits.

        Drain mode waits up to ``drain_grace`` for work to first appear, then
        exits as soon as the directory is fully drained -- the shape CI's
        background-service smoke test relies on.  Otherwise the loop runs
        until ``idle_timeout`` (if set) elapses with nothing to do.  Idle time
        runs from the first poll since the last one that did work.  A poll
        that raises counts as a poll with no work; once every poll has failed
        for ``drain_grace`` seconds in drain mode, or for ``idle_timeout``
        seconds, the loop gives up (a plain ``serve`` keeps retrying).  On the
        way out one summary is built, with the exit reason as ``exit``:
        ``drained``, ``idle-timeout``, ``blocked`` (the queue holds no entry,
        and pending manifests wait on quarantined jobs, or on lost ones -- no
        entry, no result -- for ``drain_grace`` idle seconds),
        ``poll-errors`` or ``interrupted``.  It is both the return
        value and the body of the ``stopped`` heartbeat.
        """
        config = self.config
        saw_work = False
        exit_reason = "interrupted"
        idle_since: Optional[float] = None
        failing_since: Optional[float] = None
        try:
            while True:
                finalized = self.reports_finalized
                try:
                    executed = self.run_once()
                except Exception:  # noqa: BLE001 - degrade, keep polling
                    # An injected (or real) infrastructure error escaped a
                    # poll -- e.g. an OSError out of a queue write.  The
                    # queue's durable state self-recovers (leases expire,
                    # corrupt files heal); crashing the service would not,
                    # but neither may a fault that recurs on every poll keep
                    # a draining or idle-bounded service alive forever.
                    self.poll_errors += 1
                    obs_state.counter("fleet.failures.poll_errors").inc()
                    now = time.time()
                    if failing_since is None:
                        failing_since = now
                    failing = now - failing_since
                    if (config.drain and failing >= config.drain_grace) or (
                        config.idle_timeout is not None
                        and failing >= config.idle_timeout
                    ):
                        exit_reason = "poll-errors"
                        break
                    time.sleep(config.poll_interval)
                    continue
                failing_since = None
                now = time.time()
                if executed or self.reports_finalized > finalized:
                    # A finalized report is work too: a store-warm directory
                    # finalizes in its first poll and must not then wait
                    # out the drain grace.
                    saw_work = True
                    idle_since = None
                    continue
                if idle_since is None:
                    idle_since = now
                idle = now - idle_since
                # A listing that reads no entry file: nothing it sees can be
                # hidden by a transient read.  Only flat schema-1 files count
                # as corrupt here, and the next poll heals them.
                counts = self._last_counts = tally(*self.queue.scan(states=()))
                manifests = read_manifests(self.paths)[0]
                if _drained(counts, manifests, self._report_stored):
                    # The observation is trustworthy at this instant; the
                    # summary's ``drained`` reports it.
                    if config.drain and (saw_work or idle >= config.drain_grace):
                        exit_reason = "drained"
                        break
                    if config.idle_timeout is not None and idle >= config.idle_timeout:
                        exit_reason = "idle-timeout"
                        break
                elif (
                    config.drain
                    and is_drained(counts)
                    and (
                        self.quarantine.counts()["jobs"] > 0
                        or idle >= config.drain_grace
                    )
                ):
                    # Manifests are pending with no entry left: their missing
                    # jobs are quarantined, or, once no poll has done work
                    # for drain_grace seconds, lost (no entry and no result,
                    # as a submitter killed between its manifest and its
                    # entries leaves them).  Draining further cannot make
                    # progress.  Exit and let status/doctor/verify report the
                    # damage.
                    exit_reason = "blocked"
                    break
                time.sleep(config.poll_interval)
        finally:
            summary = {
                "exit": exit_reason,
                "rounds": self.rounds,
                "jobs_run": self.jobs_run,
                "jobs_failed": self.jobs_failed,
                "jobs_quarantined": self.jobs_quarantined,
                "poll_errors": self.poll_errors,
                "reports_finalized": self.reports_finalized,
                "drained": exit_reason in ("drained", "idle-timeout"),
                "workers": self.executor.workers,
                "faults": (
                    self.config.faults.summary()
                    if self.config.faults is not None
                    else {}
                ),
            }
            try:
                self._write_heartbeat(time.time(), summary)
            except OSError:  # counted, never raised over the loop's own exit
                obs_state.counter("fleet.failures.heartbeat").inc()
            self.executor.close()
        return summary


def _drained(
    counts: Dict[str, int],
    manifests: List[Dict[str, Any]],
    reported: Callable[[str], bool],
) -> bool:
    """The one drained rule: a queue tally with no entry file
    (:func:`~repro.fleet.queue.is_drained`), and a stored report
    (``reported(spec_hash)``) for every readable manifest.  An unreadable manifest is never pending: no service can
    finalize it (``fleet doctor`` reports it)."""
    return is_drained(counts) and all(
        reported(manifest["spec_hash"]) for manifest in manifests
    )


# ---------------------------------------------------------------------------
# Status and verification (repro fleet ...)
# ---------------------------------------------------------------------------


def fleet_status(root: Path, now: Optional[float] = None) -> Dict[str, Any]:
    """A JSON-friendly snapshot of one fleet directory's state.

    The ``service`` block carries a ``health`` verdict: heartbeat age, pid
    liveness, and a ``stale`` flag (age beyond
    :data:`~repro.fleet.resilience.HEARTBEAT_STALE_AFTER` or a dead pid) --
    a wedged or killed service reads as exactly that, not healthy.
    A service that exited its loop left a ``stopped`` beat, which is never
    stale.  A campaign's ``landed`` counts its jobs whose result reads back,
    the store's done rule; each result is read once, however many campaigns
    list it.  ``store.jobs`` counts result files.  Nothing is created: a
    missing directory reads as an empty one.
    """
    now = time.time() if now is None else now
    paths = FleetPaths(Path(root))
    store = ShardedResultStore(paths.store_dir)
    queue = JobQueue(paths.queue_dir)
    manifests, unreadable = read_manifests(paths)
    listed = {h for manifest in manifests for h in manifest["jobs"]}
    landed = {h for h in listed if store.job_payload(h) is not None}
    campaigns = []
    for manifest in manifests:
        job_hashes = manifest["jobs"]
        campaigns.append(
            {
                "campaign": manifest["campaign"],
                "spec_hash": manifest["spec_hash"],
                "jobs": len(job_hashes),
                "landed": sum(1 for h in job_hashes if h in landed),
                "reported": store.get_report(manifest["spec_hash"]) is not None,
            }
        )
    counts = queue.counts()
    reported = {campaign["spec_hash"] for campaign in campaigns if campaign["reported"]}
    quarantine = Quarantine(paths.root / QUARANTINE_SUBDIR)
    return {
        "root": str(paths.root),
        "queue": counts,
        "drained": _drained(counts, manifests, reported.__contains__),
        "store": store.stats(),
        "quarantine": quarantine.counts(),
        "campaigns": campaigns,
        "unreadable_manifests": [path.name for path in unreadable],
        "service": _read_heartbeat(paths.heartbeat, now),
    }


def verify_campaign(root: Path, campaign: Campaign) -> Dict[str, Any]:
    """Check fleet results for ``campaign`` against a serial re-run.

    Runs every campaign job serially (through the same cache-free path) and
    compares payload content hashes job by job, plus the stored sweep report
    against a freshly built one.  This is the executable form of the fleet's
    bit-identity guarantee; CI runs it after the smoke sweep.
    """
    store = ShardedResultStore(FleetPaths(Path(root)).store_dir)
    spec_hash = sweep_spec_hash(campaign)
    serial_report = Executor().run(campaign.jobs)
    mismatched: List[str] = []
    missing: List[str] = []
    serial_results: Dict[str, Dict[str, Any]] = {}
    for outcome in serial_report.outcomes:
        job_hash = outcome.job.content_hash
        serial_results[job_hash] = outcome.payload
        stored = store.job_payload(job_hash)
        if stored is None:
            missing.append(job_hash)
        elif content_hash(stored) != content_hash(outcome.payload):
            mismatched.append(job_hash)
    stored_report = store.get_report(spec_hash)
    expected_report = build_sweep_report(
        campaign.name,
        spec_hash,
        [job.content_hash for job in campaign.jobs],
        serial_results,
    )
    report_ok = stored_report is not None and content_hash(
        stored_report
    ) == content_hash(expected_report)
    return {
        "campaign": campaign.name,
        "spec_hash": spec_hash,
        "jobs": len(campaign.jobs),
        "missing": missing,
        "mismatched": mismatched,
        "report_ok": report_ok,
        "ok": not missing and not mismatched and report_ok,
    }
