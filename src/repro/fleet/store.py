"""The sharded content-addressed result store the sweep service shares.

One store directory holds two namespaces, both prefix-sharded the way the
runtime cache shards (two-character hash-prefix directories, one JSON file
per entry, atomic temp-file-then-``os.replace`` writes):

``jobs/``
    Per-job result entries in **exactly** the :class:`ResultCache` layout and
    entry format -- the store's job side *is* a cache directory, so the
    existing runtime cache reads and writes it unchanged
    (:meth:`ShardedResultStore.job_cache` hands back a ``ResultCache`` rooted
    there).  Multiple services or CLI runs pointed at the same store share
    results with no translation layer.  This namespace is the fleet's one
    record of finished work: a job is done when its entry here reads back
    through the cache's one reader (:meth:`ShardedResultStore.job_payload`),
    and the queue keeps no entry for it.  Under a chaos plan its writes are
    intercepted as the ``store.write`` op, like the reports'.

``reports/``
    Whole sweep reports keyed by **spec hash** -- the content hash of what a
    campaign *asked for* (name + ordered job hashes), not of any one result.
    A campaign resubmitted against a warm store is served at report
    granularity: no queueing, no per-job lookups, the finished document comes
    straight back.  This is the ``spec_hash``-level warm start the ROADMAP's
    sweep-service item calls for.

The module also holds the fleet directory's layout (:class:`FleetPaths`) and
the one reader of its campaign manifests (:func:`read_manifests`), which the
service, ``fleet status`` and ``fleet doctor`` share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import state as obs_state
from repro.runtime.cache import ResultCache, atomic_write_json

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "SHARD_WIDTH",
    "FleetPaths",
    "ShardedResultStore",
    "read_manifests",
]

#: Version stamp carried by every report entry (and the sweep-spec payloads
#: hashed into ``spec_hash``); bump on incompatible layout changes.
FLEET_SCHEMA_VERSION = 1

#: Hash-prefix width of shard directories.  Fixed at the ``ResultCache``
#: width so the job namespace stays byte-compatible with the runtime cache.
SHARD_WIDTH = 2

_JOBS_SUBDIR = "jobs"
_REPORTS_SUBDIR = "reports"


@dataclass(frozen=True)
class FleetPaths:
    """Where a fleet directory keeps each piece of shared state."""

    root: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))

    @property
    def queue_dir(self) -> Path:
        return self.root / "queue"

    @property
    def store_dir(self) -> Path:
        return self.root / "store"

    @property
    def campaigns_dir(self) -> Path:
        return self.root / "campaigns"

    @property
    def heartbeat(self) -> Path:
        return self.root / "service.json"


def read_manifests(paths: FleetPaths) -> Tuple[List[Dict[str, Any]], List[Path]]:
    """The campaign manifests of a fleet directory, in file-name order, and
    the paths of the unreadable ones.

    A manifest is readable when it parses as a ``fleet_manifest`` of this
    schema, with a campaign name and a job list, whose ``spec_hash`` names
    its file.  Every reader applies this one rule: the service finalizes and
    drains over the readable manifests only, since no service can finalize
    the others, and ``fleet doctor`` reports each unreadable one.
    """
    manifests: List[Dict[str, Any]] = []
    unreadable: List[Path] = []
    if not paths.campaigns_dir.is_dir():
        return manifests, unreadable
    for path in sorted(paths.campaigns_dir.glob("*.json")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            manifest = None
        if (
            isinstance(manifest, dict)
            and manifest.get("schema") == FLEET_SCHEMA_VERSION
            and manifest.get("kind") == "fleet_manifest"
            and manifest.get("spec_hash") == path.stem
            and isinstance(manifest.get("campaign"), str)
            and isinstance(manifest.get("jobs"), list)
        ):
            manifests.append(manifest)
        else:
            unreadable.append(path)
    return manifests, unreadable


@dataclass
class ShardedResultStore:
    """Job results plus spec-hash-keyed sweep reports under one root."""

    root: Path
    #: Optional chaos plan (:class:`repro.fleet.faults.FaultPlan`); ``None``
    #: in production.  It intercepts the report namespace's reads and writes
    #: and the job namespace's writes: the store hands it to its
    #: ``ResultCache``, whose ``put`` passes it on as the same ``store.write``
    #: op, so a result write can be torn or lost like a report's.
    faults: Optional[Any] = None
    _job_cache: ResultCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._job_cache = ResultCache(self.root / _JOBS_SUBDIR, faults=self.faults)

    # ------------------------------------------------------------------
    # Job namespace (ResultCache-compatible)
    # ------------------------------------------------------------------
    @property
    def reports_root(self) -> Path:
        return self.root / _REPORTS_SUBDIR

    def job_cache(self) -> ResultCache:
        """The runtime cache view of the job namespace.

        The executor takes this exactly where it takes any other
        ``ResultCache`` -- the store adds namespacing and reports *around*
        the cache format, never a new entry format.
        """
        return self._job_cache

    def job_path(self, job_hash: str) -> Path:
        return self._job_cache.path_for(job_hash)

    def has_job(self, job_hash: str) -> bool:
        """True when a result entry for ``job_hash`` is on disk."""
        return self.job_path(job_hash).is_file()

    def job_payload(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """The stored result payload for a hash, without a ``Job`` object.

        The service, status and verification read results by hash (the
        queue and campaign manifests only carry hashes) with
        :meth:`ResultCache.read`.  A job is done exactly when this reads back.
        """
        return self._job_cache.read(job_hash)

    # ------------------------------------------------------------------
    # Report namespace (spec_hash-level warm starts)
    # ------------------------------------------------------------------
    def report_path(self, spec_hash: str) -> Path:
        if len(spec_hash) <= SHARD_WIDTH:
            raise ValueError(f"spec hash {spec_hash!r} is too short")
        return self.reports_root / spec_hash[:SHARD_WIDTH] / f"{spec_hash}.json"

    def get_report(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The stored sweep report for ``spec_hash``, or ``None``.

        Entries written under a different schema version (or corrupt files)
        read as absent: the sweep simply runs again and rewrites them.
        """
        try:
            if self.faults is not None:
                self.faults.intercept_read("store.read", self.report_path(spec_hash))
            with self.report_path(spec_hash).open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != FLEET_SCHEMA_VERSION
            or entry.get("spec_hash") != spec_hash
            or "report" not in entry
        ):
            return None
        return entry["report"]

    def put_report(self, spec_hash: str, report: Dict[str, Any]) -> Path:
        """Store a finished sweep report under its spec hash, atomically."""
        path = self.report_path(spec_hash)
        atomic_write_json(
            path,
            {
                "schema": FLEET_SCHEMA_VERSION,
                "spec_hash": spec_hash,
                "report": report,
            },
            faults=self.faults,
            fault_op="store.write",
        )
        obs_state.counter("fleet.store.report_writes").inc()
        return path

    def iter_reports(self) -> Iterator[Path]:
        if not self.reports_root.is_dir():
            return
        for shard in sorted(self.reports_root.iterdir()):
            if shard.is_dir() and len(shard.name) == SHARD_WIDTH:
                yield from sorted(shard.glob("*.json"))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Entry counts and on-disk footprint, for ``repro fleet status``."""
        job_entries = list(self._job_cache.iter_entries())
        report_entries = list(self.iter_reports())
        return {
            "root": str(self.root),
            "shard_width": SHARD_WIDTH,
            "jobs": len(job_entries),
            "reports": len(report_entries),
            "bytes": sum(p.stat().st_size for p in job_entries + report_entries),
        }
