"""The durable job queue behind ``repro serve`` / ``repro submit``.

Every queue entry is one JSON file, written atomically (same-directory temp
file + ``os.replace``) -- a killed service or submitter never leaves a
truncated entry, and the queue's full state survives process restarts by
construction.  Submitters (``repro submit``) and the service (``repro
serve``) are separate processes sharing nothing but the queue directory; the
service discovers new entries by listing it each poll.

Layout: the directory an entry file sits in *is* its state::

    <root>/entries/queued/<key>-<job_hash>.json
                  leased/<key>-<job_hash>.json
                  failed/<key>-<job_hash>.json

``<key>`` is fixed-width hex that sorts as ``(-priority, seq)``, so a state
directory lists in dispatch order -- priority first (higher sooner), then
submission sequence, a FIFO within each priority band -- and an entry in
hand maps to its path with no listing.  The key never changes over an
entry's life.  When a file's content disagrees with its directory, the
directory wins.  A lookup by hash alone (:meth:`JobQueue.get`,
:meth:`JobQueue.locate`) lists the directories, and :func:`entry_hash` is the
one parser of a hash out of a file name.

An entry moves through three states, and leaves the queue once its job is
done::

    queued --lease()--> leased --complete()--> (no entry)
       ^                  |
       |                  +--fail() / lease timeout--+
       +--(attempts left)--------------------------- +--> failed (exhausted)

A job is done when the shared result store holds a result that reads back;
the store is the one record of it.  ``complete`` unlinks the entry's file in
every state directory and reads nothing; the service calls it only once the
job's result has read back (see :mod:`repro.fleet.service`).  A ``done/``
directory left by an older service is no part of the layout: nothing lists
or reads it, and it may be deleted.

Any other transition writes the new state's file and removes the old
state's file only once the new one is on disk, so a lost write keeps the old
state.  A crash between a write and a removal (or another process moving
the entry mid-transition) can leave one hash in two directories: the later
lifecycle state wins (failed, then leased, then queued; within one
directory, the first name), the other file is ignored -- never leased twice
-- and ``fleet doctor`` reports it as ``duplicate-entry``.

Reads: :meth:`JobQueue.scan` lists every state directory and reads only the
files its caller asks for -- ``states`` to read in full and, given a lease
limit, queued entries in dispatch order only until that many are leasable.
The files it does not read are counted from the listing under
:attr:`QueueScan.unread`, so :func:`tally` still gives the whole queue's
per-state counts, and ``scan(states=())`` is a listing that reads no entry.
The service reads the queue once per poll this way, and its drain check
between polls is such a listing (see :mod:`repro.fleet.service`).  The
no-argument forms (``scan()``, ``counts()``, ``entries()``) read everything,
for one-shot callers like ``fleet status``, the doctor and tests.
:func:`is_drained` is the one rule for reading "drained" off a tally.

Leases carry a deadline: a worker that dies mid-job simply stops renewing,
:meth:`JobQueue.requeue_expired` flips the entry back to ``queued`` (or to
``failed`` once ``max_attempts`` is spent), and another turn of the service
loop picks it up.  A failed attempt also stamps ``not_before`` with a
deterministic exponential backoff (:func:`repro.fleet.resilience.backoff_seconds`,
jitter derived from ``(job_hash, attempt)``), which ``lease`` honors -- a
flapping job cannot hot-loop through its attempt budget.

Corrupt entry files (truncated JSON, wrong schema, missing fields) are
**counted, not swallowed**: :meth:`JobQueue.scan` classifies them,
:meth:`JobQueue.counts` surfaces them under ``"corrupt"``, and the service's
healing sweep drops (the job is done), requeues or quarantines them.  A
file in the schema-1 flat layout (``entries/<job_hash>.json``) is corrupt by
its place, unread.  Transient read errors (``OSError``, including injected
ones) just hide an entry for one scan -- the bytes on disk are fine and the
next scan sees them.

Deduplication happens **before** anything is enqueued: a job whose hash the
directory listing shows queued or leased is returned as-is, and a job whose
result reads back from the shared
:class:`~repro.fleet.store.ShardedResultStore` is done already, so nothing
is written for it.  :meth:`JobQueue.submit_many` reserves its batch's
sequence numbers under one lock and lists the queue again after, so a job a
racing submitter enqueued meanwhile is returned as-is; a race can at worst
leave a gap in the sequence, which changes no dispatch order.

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
from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.runtime.cache import atomic_write_json
from repro.runtime.jobs import Job, job_from_dict

__all__ = [
    "FLEET_QUEUE_SCHEMA_VERSION",
    "PRIORITIES",
    "JobQueue",
    "QueueEntry",
    "QueueScan",
    "STATE_FAILED",
    "STATE_LEASED",
    "STATE_QUEUED",
    "entry_hash",
    "is_drained",
    "tally",
]

#: Version stamp on every entry file; mismatched entries read as corrupt.
#: Version 2 is the state-directory layout.
FLEET_QUEUE_SCHEMA_VERSION = 2

STATE_QUEUED = "queued"
STATE_LEASED = "leased"
STATE_FAILED = "failed"

#: All states, in lifecycle order (used by ``counts()`` and the status CLI).
#: Also least to most authoritative: when one hash has files in several
#: directories, the last one here wins.
STATES = (STATE_QUEUED, STATE_LEASED, STATE_FAILED)

#: Pseudo-state of schema-1 flat files (``entries/<job_hash>.json``); they
#: lose to any state directory and always count as corrupt.
_LEGACY = ""

#: Extra ``counts()`` key for unreadable entry files.
COUNT_CORRUPT = "corrupt"

#: Extra ``counts()`` key for entries hidden by a transient read error this
#: scan.  A non-zero value marks the scan as degraded: state conclusions
#: (like "drained") drawn from it would be guesses, not observations.
COUNT_TRANSIENT = "transient"

#: The priorities an entry file name can carry (32-bit): its key is 8 hex
#: digits of ``PRIORITIES[-1] - priority``, then 12 of ``seq``.
PRIORITIES = range(-(2**31), 2**31)
_SEQ_LIMIT = 16**12


def entry_hash(name: str) -> str:
    """The job hash an entry file name carries: what follows the key's dash,
    or the whole stem of a schema-1 flat file."""
    return name[: -len(".json")].rpartition("-")[2]


class QueueScan(NamedTuple):
    """One :meth:`JobQueue.scan`: what it read, and what it only listed."""

    #: Readable entries the scan read, in dispatch order.
    entries: List["QueueEntry"]
    #: Entry files that read as corrupt (schema-1 flat files included).
    corrupt: List[Path]
    #: Entry files hidden by a transient read error.
    transient: List[Path]
    #: Per state, the entry files listed but not read (every state present).
    unread: Dict[str, int]


def tally(
    entries: List["QueueEntry"],
    corrupt: List[Path],
    transient: List[Path],
    unread: Dict[str, int],
) -> Dict[str, int]:
    """Entry counts per state of one :meth:`JobQueue.scan` result --
    ``tally(*scan)`` -- plus ``"corrupt"`` and ``"transient"`` (every key
    present, zero included).  A file the scan listed but did not read counts
    in its directory's state."""
    totals = dict(unread)
    for entry in entries:
        totals[entry.state] += 1
    totals[COUNT_CORRUPT] = len(corrupt)
    totals[COUNT_TRANSIENT] = len(transient)
    return totals


def is_drained(totals: Dict[str, int]) -> bool:
    """True when a tally shows no entry waiting or running.

    Conservative under degraded scans: a file hidden by a transient read
    error *might* be queued or leased, so it counts as not drained -- a
    draining service must never exit on a scan it could not trust.  Only
    the files a scan reads can be hidden, so the service's drain check, a
    listing that reads no entry, is never held up by a read.
    """
    return (
        totals[STATE_QUEUED] == 0
        and totals[STATE_LEASED] == 0
        and totals[COUNT_TRANSIENT] == 0
    )


def _dispatch_order(entry: "QueueEntry") -> Tuple[int, int]:
    """Priority first (higher sooner), then submission sequence."""
    return -entry.priority, entry.seq


def _answered(store: Optional[Any], job_hash: str) -> bool:
    """True when ``store`` holds a result for ``job_hash`` that reads back:
    the job is done, and submitting it again enqueues nothing."""
    return store is not None and store.job_payload(job_hash) is not None


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

    @property
    def name(self) -> str:
        """The entry's file name in any state directory."""
        if self.priority not in PRIORITIES or not 0 <= self.seq < _SEQ_LIMIT:
            raise ValueError(
                f"priority {self.priority} or seq {self.seq} does not fit an "
                "entry file name"
            )
        key = f"{PRIORITIES[-1] - self.priority:08x}{self.seq:012x}"
        return f"{key}-{self.job_hash}.json"

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


@dataclass
class _Listing:
    """One listing of the entry directories, duplicates resolved."""

    #: Per state (``_LEGACY`` included), the winning file names in name
    #: (dispatch) order.
    names: Dict[str, List[str]]
    #: job hash -> ``(state, name)`` of its winning file.
    where: Dict[str, Tuple[str, str]]
    #: Files that lost to another file of the same hash.
    losers: List[Path]


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
        for state in STATES:
            (self._entries_dir / state).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Durable primitives
    # ------------------------------------------------------------------
    @property
    def entries_dir(self) -> Path:
        return self._entries_dir

    def _dir(self, state: str) -> Path:
        return self._entries_dir / state if state else self._entries_dir

    def _path(self, entry: QueueEntry) -> Path:
        return self._entries_dir / entry.state / entry.name

    def _list(self) -> _Listing:
        """List every entry directory; each hash keeps one winning file."""
        where: Dict[str, Tuple[str, str]] = {}
        losers: List[Path] = []
        for state in (_LEGACY,) + STATES:
            try:
                names = sorted(
                    name
                    for name in os.listdir(self._dir(state))
                    if name.endswith(".json")
                )
            except FileNotFoundError:
                continue
            for name in names:
                job_hash = entry_hash(name)
                held = where.get(job_hash)
                if held is not None and held[0] == state:
                    losers.append(self._dir(state) / name)
                    continue
                if held is not None:
                    losers.append(self._dir(held[0]) / held[1])
                where[job_hash] = (state, name)
        names_by_state: Dict[str, List[str]] = {_LEGACY: []}
        names_by_state.update((state, []) for state in STATES)
        for state, name in where.values():
            names_by_state[state].append(name)
        for names in names_by_state.values():
            names.sort()
        return _Listing(names_by_state, where, losers)

    def _write(self, entry: QueueEntry, replaces: Iterable[Path] = ()) -> None:
        """Write ``entry`` into its state's directory, then remove the files
        it ``replaces``.

        A lost write (an injected ``skip``: the crash before the rename)
        removes nothing, so the entry keeps its old state."""
        path = self._path(entry)
        injected = atomic_write_json(
            path, entry.to_dict(), faults=self.faults, fault_op="queue.write"
        )
        if injected == "skip":
            return
        for old in replaces:
            if old != path:
                old.unlink(missing_ok=True)

    def _read_classified(
        self, path: Path, state: str
    ) -> Tuple[Optional[QueueEntry], Optional[str]]:
        """Read one entry file of ``state``'s directory: ``(entry, None)``,
        ``(None, "transient")`` for filesystem errors (bytes intact, retry
        next scan), or ``(None, "corrupt")`` for undecodable/mis-schemaed
        content or a hash its name does not carry.  The directory sets the
        entry's state."""
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
            entry = QueueEntry.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None, "corrupt"
        if entry.job_hash != entry_hash(path.name):
            return None, "corrupt"
        if entry.state != state:
            entry = replace(entry, state=state)
        return entry, None

    def _on_disk(
        self, job_hash: str, fallback: Optional[QueueEntry]
    ) -> Tuple[Optional[QueueEntry], Optional[Path]]:
        """The on-disk entry for ``job_hash`` and its file.

        With ``fallback`` (the caller's copy) the file is the one at the
        copy's own state and name, read with no listing; without it, the
        hash's winning file.  The entry is ``None`` when that file is
        missing, unreadable or in the schema-1 flat layout."""
        if fallback is not None:
            path = self._path(fallback)
            return self._read_classified(path, fallback.state)[0], path
        held = self._list().where.get(job_hash)
        if held is None or held[0] == _LEGACY:
            return None, None
        path = self._dir(held[0]) / held[1]
        return self._read_classified(path, held[0])[0], path

    def _next_seq(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive sequence numbers under one lock and
        return the first."""
        counter = self.root / "seq"
        with _SeqLock(self.root / "seq.lock"):
            try:
                value = int(counter.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                value = 0
            counter.write_text(str(value + count), encoding="utf-8")
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_hash: str) -> Optional[QueueEntry]:
        """The entry for ``job_hash`` (lists the directories), or ``None``
        when it is absent or unreadable."""
        return self._on_disk(job_hash, None)[0]

    def locate(self, job_hash: str) -> Optional[Path]:
        """The winning entry file for ``job_hash`` (lists the directories)."""
        held = self._list().where.get(job_hash)
        return None if held is None else self._dir(held[0]) / held[1]

    def duplicates(self) -> List[Path]:
        """Entry files that lost to another file of the same hash."""
        return self._list().losers

    def scan(
        self,
        states: Collection[str] = STATES,
        lease_limit: Optional[int] = None,
        now: Optional[float] = None,
    ) -> QueueScan:
        """List the queue and read the entry files the caller needs.

        ``states`` are the states whose files are read.  With
        ``lease_limit``, queued entries are read in dispatch order only
        until that many are leasable at ``now``; those inside their backoff
        window are read and passed over.  Every file listed but not read
        counts under :attr:`QueueScan.unread`.  The default reads everything.

        A non-empty transient list means this scan under-reports the queue:
        callers deciding anything terminal (drain exit, doctor verdicts)
        must rescan rather than conclude from a degraded snapshot."""
        listing = self._list()
        found: List[QueueEntry] = []
        corrupt = [self._entries_dir / name for name in listing.names[_LEGACY]]
        transient: List[Path] = []
        unread = dict.fromkeys(STATES, 0)
        if lease_limit is not None and now is None:
            now = time.time()
        for state in STATES:
            names = listing.names[state]
            if state not in states:
                unread[state] = len(names)
                continue
            wanted = lease_limit if state == STATE_QUEUED else None
            directory = self._dir(state)
            read = 0
            for name in names:
                if wanted == 0:
                    break
                read += 1
                path = directory / name
                entry, problem = self._read_classified(path, state)
                if entry is None:
                    (corrupt if problem == "corrupt" else transient).append(path)
                    continue
                found.append(entry)
                if wanted is not None and (
                    entry.not_before is None or entry.not_before <= now
                ):
                    wanted -= 1
            unread[state] = len(names) - read
        found.sort(key=_dispatch_order)
        return QueueScan(found, corrupt, transient, unread)

    def entries(self) -> List[QueueEntry]:
        """Every readable entry, rescanned from disk (sorted by dispatch
        order: priority desc, then submission sequence)."""
        return self.scan().entries

    def scan_settled(self, attempts: int = 3) -> Tuple[List[QueueEntry], List[Path]]:
        """Rescan until no entry is transient-hidden (or ``attempts`` runs
        out), then return ``(entries, corrupt_paths)``.

        Doctor-grade readers use this so a one-scan read blip cannot turn
        into a false "lost-job" or premature-drain verdict; a path that
        stays unreadable across every attempt is treated as corrupt."""
        for _ in range(max(1, attempts)):
            scan = self.scan()
            if not scan.transient:
                return scan.entries, scan.corrupt
        return scan.entries, scan.corrupt + scan.transient

    def counts(self) -> Dict[str, int]:
        """One full rescan's :func:`tally`: entry counts per state, plus
        ``"corrupt"`` for unreadable files and ``"transient"`` for entries
        this scan could not read."""
        return tally(*self.scan())

    def drained(self) -> bool:
        """True when a fresh rescan shows no entry waiting or running (see
        :func:`is_drained`)."""
        return is_drained(self.counts())

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        priority: int = 0,
        store: Optional[Any] = None,
    ) -> Optional[QueueEntry]:
        """Enqueue ``job`` unless it is already live or already done.

        Returns the (possibly pre-existing) queued or leased entry, or
        ``None`` when ``store``, the shared result store dedup consults,
        holds the job's result: the job is done, and nothing is written.
        """
        held = self._list().where.get(job.content_hash)
        live = self._live(held)
        if live is not None or _answered(store, job.content_hash):
            return live
        return self._enqueue(job, priority, self._next_seq(), held)

    def submit_many(
        self,
        jobs: List[Job],
        priority: int = 0,
        store: Optional[Any] = None,
    ) -> Dict[str, int]:
        """Submit a batch; returns ``{enqueued, deduped_store, deduped_queue}``.

        Dedup against the queue reads the directory listing, not the
        entries; a job whose result reads back from ``store`` counts under
        ``deduped_store`` and writes nothing.  Every other job takes one
        sequence number, in job order, all reserved under one lock: the same
        numbers as one ``submit()`` per job.  A job a racing submitter
        enqueued meanwhile is returned as-is, and its reserved number is
        left unused.
        """
        accounting = {"enqueued": 0, "deduped_store": 0, "deduped_queue": 0}
        seen_before = {
            job_hash
            for job_hash, (state, _) in self._list().where.items()
            if state not in (STATE_FAILED, _LEGACY)
        }
        fresh: List[Job] = []
        for job in jobs:
            job_hash = job.content_hash
            if job_hash in seen_before:
                accounting["deduped_queue"] += 1
                continue
            seen_before.add(job_hash)
            if _answered(store, job_hash):
                accounting["deduped_store"] += 1
                continue
            fresh.append(job)
        if not fresh:
            return accounting
        first_seq = self._next_seq(len(fresh))
        where = self._list().where
        for seq, job in enumerate(fresh, start=first_seq):
            held = where.get(job.content_hash)
            if self._live(held) is None:
                self._enqueue(job, priority, seq, held)
            accounting["enqueued"] += 1
        return accounting

    def _live(self, held: Optional[Tuple[str, str]]) -> Optional[QueueEntry]:
        """The entry of a listed ``(state, name)`` unless it is absent,
        failed, unreadable or in the flat layout."""
        if held is None or held[0] in (STATE_FAILED, _LEGACY):
            return None
        state, name = held
        return self._read_classified(self._dir(state) / name, state)[0]

    def _enqueue(
        self,
        job: Job,
        priority: int,
        seq: int,
        held: Optional[Tuple[str, str]] = None,
    ) -> QueueEntry:
        """Write ``job`` as ``queued`` at ``seq``.  ``held`` is the job's
        listed file (failed, unreadable or flat), replaced by the new one."""
        entry = QueueEntry(
            job_hash=job.content_hash,
            job=job.to_dict(),
            priority=priority,
            seq=seq,
            state=STATE_QUEUED,
        )
        self._write(entry, [] if held is None else [self._dir(held[0]) / held[1]])
        return entry

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def lease(
        self,
        limit: int = 1,
        worker: str = "worker",
        now: Optional[float] = None,
        entries: Optional[Iterable[QueueEntry]] = None,
    ) -> List[QueueEntry]:
        """Claim up to ``limit`` queued entries for ``worker``.

        Each lease carries ``now + lease_timeout`` as its deadline and counts
        one attempt.  Entries still inside their retry backoff window
        (``not_before > now``) are skipped.  ``now`` is injectable so tests
        drive lease expiry and backoff without sleeping.  ``entries`` is the
        caller's snapshot of the queue (a :meth:`scan` the caller has kept
        up to date); without it, the queued entries are scanned.
        """
        if limit < 1:
            raise ValueError("lease limit must be at least 1")
        now = time.time() if now is None else now
        if entries is None:
            candidates = self.scan(
                states=(STATE_QUEUED,), lease_limit=limit, now=now
            ).entries
        else:
            candidates = sorted(entries, key=_dispatch_order)
        leased: List[QueueEntry] = []
        for entry in candidates:
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
            self._write(claimed, [self._path(entry)])
            leased.append(claimed)
        return leased

    def complete(self, entry: QueueEntry) -> None:
        """Remove a done job's entry: its file in every state directory.

        The caller holds the entry (the service, the one it dispatched), so
        its files are found with no listing; nothing is read, renamed or
        written, and a torn or missing file is simply gone too.  Call it
        only once the job's result reads back from the store: the queue
        keeps no record of a done job.  Idempotent.
        """
        for path in self._everywhere(entry):
            path.unlink(missing_ok=True)

    def fail(
        self,
        job_hash: str,
        error: str,
        now: Optional[float] = None,
        fallback: Optional[QueueEntry] = None,
    ) -> QueueEntry:
        """Record a failed attempt: back to ``queued`` behind a deterministic
        backoff window, or ``failed`` when ``max_attempts`` is exhausted.

        ``fallback`` is the caller's in-memory copy of the entry (the
        service holds the leased entry it dispatched): its file is found
        with no listing, and if that file has gone corrupt or missing in the
        meantime -- a torn write, an injected fault -- the transition is
        written from the copy instead of being lost.
        """
        # Deferred import: resilience imports this module at top level.
        from repro.fleet.resilience import backoff_seconds

        now = time.time() if now is None else now
        entry, replaces = self._current(job_hash, fallback)
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
        self._write(failed, replaces)
        return failed

    def release(
        self,
        job_hash: str,
        note: Optional[str] = None,
        fallback: Optional[QueueEntry] = None,
    ) -> QueueEntry:
        """Return a leased entry to ``queued`` *refunding* its attempt.

        For entries that did not get a fair attempt -- co-leased bystanders
        of a pool collapse whose culprit is unknown, or a job whose result
        did not read back from the store.  No backoff is applied: the entry
        is immediately leasable (a pool suspect runs solo, so a repeat
        collapse identifies it exactly).  ``fallback`` plays the same role
        as in :meth:`fail`."""
        entry, replaces = self._current(job_hash, fallback)
        released = replace(
            entry,
            state=STATE_QUEUED,
            attempts=max(0, entry.attempts - 1),
            lease_deadline=None,
            not_before=None,
            worker=None,
            note=note if note is not None else entry.note,
        )
        self._write(released, replaces)
        return released

    def _current(
        self, job_hash: str, fallback: Optional[QueueEntry]
    ) -> Tuple[QueueEntry, List[Path]]:
        """The on-disk entry, else ``fallback``, and the files its transition
        replaces; ``KeyError`` with neither."""
        entry, path = self._on_disk(job_hash, fallback)
        if entry is not None:
            return entry, [path]
        if fallback is None:
            raise KeyError(f"no queue entry for {job_hash}")
        return fallback, self._everywhere(fallback)

    def _everywhere(self, entry: QueueEntry) -> List[Path]:
        """``entry``'s file in every state: what a write from the caller's
        copy replaces, and what ``complete`` removes, since a lost or torn
        write may have left the entry in any of them."""
        return [self._entries_dir / state / entry.name for state in STATES]

    def record_queued(
        self, entry: QueueEntry, note: Optional[str] = None
    ) -> QueueEntry:
        """Rewrite ``entry`` as immediately-leasable ``queued`` state -- a
        healing path too, so the hash's other files go once it lands."""
        requeued = replace(
            entry,
            state=STATE_QUEUED,
            lease_deadline=None,
            not_before=None,
            worker=None,
            note=note if note is not None else entry.note,
        )
        self._write(requeued, self._files(entry.job_hash))
        return requeued

    def remove(self, job_hash: str) -> bool:
        """Delete every file of an entry outright (quarantine/GC use only)."""
        files = self._files(job_hash)
        for path in files:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        return bool(files)

    def _files(self, job_hash: str) -> List[Path]:
        """Every entry file of ``job_hash``: the winner and its losers."""
        listing = self._list()
        files = [path for path in listing.losers if entry_hash(path.name) == job_hash]
        held = listing.where.get(job_hash)
        if held is not None:
            files.append(self._dir(held[0]) / held[1])
        return files

    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Return timed-out leases to the queue; exhausted ones fail.

        Scans the leased entries; returns how many leases were recovered.
        """
        now = time.time() if now is None else now
        leased = self.scan(states=(STATE_LEASED,)).entries
        return len(self.expire_leases(leased, now))

    def expire_leases(
        self, entries: Iterable[QueueEntry], now: float
    ) -> List[QueueEntry]:
        """:meth:`requeue_expired` over the caller's snapshot ``entries``.

        The service calls this once per poll, so a worker crash costs at most
        one lease timeout before the job runs elsewhere.  Returns the entries
        :meth:`fail` wrote, so the caller sees which ones were exhausted.
        """
        expired: List[QueueEntry] = []
        for entry in entries:
            if entry.state != STATE_LEASED:
                continue
            if entry.lease_deadline is not None and entry.lease_deadline > now:
                continue
            expired.append(
                self.fail(
                    entry.job_hash,
                    error=(
                        f"lease expired after attempt {entry.attempts} "
                        f"(worker {entry.worker or 'unknown'})"
                    ),
                    now=now,
                    fallback=entry,
                )
            )
        return expired

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def gc(
        self,
        ttl: float = 3600.0,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Compact failed entries older than ``ttl`` seconds.

        Lists the entry directories and stats each ``failed`` file; it reads
        no entry.  Removes those whose last write (file mtime) is older than
        the TTL, plus stray ``*.tmp`` files of the same age -- queued/leased
        entries are never touched, and a done job has no entry left to
        compact.  ``dry_run`` counts without deleting.  Returns
        ``{scanned, removed_failed, removed_tmp, kept}``.
        """
        now = time.time() if now is None else now
        listing = self._list()
        summary = {
            "scanned": len(listing.losers),
            "removed_failed": 0,
            "removed_tmp": 0,
            "kept": len(listing.losers),
        }
        for state, names in listing.names.items():
            for name in names:
                summary["scanned"] += 1
                if state != STATE_FAILED:
                    summary["kept"] += 1
                    continue
                path = self._dir(state) / name
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    summary["kept"] += 1
                    continue
                if age < ttl:
                    summary["kept"] += 1
                    continue
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        summary["kept"] += 1
                        continue
                summary["removed_failed"] += 1
        for tmp in sorted(self._entries_dir.rglob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime < ttl:
                    continue
                if not dry_run:
                    tmp.unlink()
            except OSError:
                continue
            summary["removed_tmp"] += 1
        return summary
