"""On-disk, content-addressed result store.

Every entry is one JSON file named by the job's content hash (sharded into
two-character prefix directories so large campaigns do not pile tens of
thousands of files into one directory).  The file records the full job spec
next to the result payload, so a cache entry is self-describing: it can be
audited, replayed, or garbage-collected without any external index.

Writes are atomic (write to a temp file in the same directory, then
``os.replace``) so a killed run never leaves a truncated entry behind, and
concurrent runs sharing a cache directory at worst do redundant work -- they
can never corrupt each other's entries.  Each write encodes its document once
with the C JSON encoder and writes the text in one call; a shard directory is
made on first use only, not checked on every write.

The disk is the only copy: every lookup reads and parses the entry file, so
each ``get`` returns a fresh dict and always sees what is on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.obs import state as obs_state
from repro.runtime.jobs import SCHEMA_VERSION, Job

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache directory the CLI and examples use by default."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def atomic_write_json(
    path: Path,
    document: Dict[str, Any],
    faults: Optional[Any] = None,
    fault_op: Optional[str] = None,
) -> Optional[str]:
    """Write ``document`` to ``path`` via a same-directory temp file.

    The one atomic JSON writer: cache entries, fleet queue entries, reports,
    manifests, heartbeats and quarantine records all go through it.
    ``faults``/``fault_op`` are the chaos seam: a fault plan's
    ``intercept_write`` may replace the write with a torn one, drop it
    (leaving a stray temp file), or raise an injected ``OSError`` --
    deterministically from its seed.  Production callers pass neither and
    get the plain atomic write.

    The document is encoded once by the C encoder (``json.dumps``) before the
    filesystem is touched, so a non-serializable document raises
    ``TypeError`` without creating anything, and the text goes out in one
    write.  The bytes are the ones ``json.dump`` writes.  The parent
    directory is created only when the temp-file create finds it missing, so
    a write into an existing shard makes no ``mkdir`` call.

    Returns ``None`` after a real write, or the kind of write a fault plan
    injected instead (``"torn"``, ``"skip"``).
    """
    if faults is not None and fault_op is not None:
        injected = faults.intercept_write(fault_op, path, document)
        if injected is not None:
            return injected
    text = json.dumps(document)
    prefix = f".{path.stem[:8]}-"
    try:
        descriptor, temp_name = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=path.parent)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return None


@dataclass
class ResultCache:
    """Content-addressed job-result store rooted at ``root``."""

    root: Path
    #: Optional chaos plan every ``put`` hands to :func:`atomic_write_json`
    #: as the ``store.write`` op; only the fleet's result store sets one.
    #: Declared ``Any``: the runtime never imports the fleet.
    faults: Optional[Any] = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, job_hash: str) -> Path:
        """The entry file for a job hash."""
        if len(job_hash) < 3:
            raise ValueError(f"job hash {job_hash!r} is too short")
        return self.root / job_hash[:2] / f"{job_hash}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, job: Job) -> Optional[Dict[str, Any]]:
        """The cached result payload for ``job``, or ``None`` on a miss.

        Entries written under a different schema version, or unreadable files,
        count as misses (the entry will simply be recomputed and rewritten).
        """
        path = self.path_for(job.content_hash)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            # OSError covers missing/unreadable files; ValueError covers both
            # json.JSONDecodeError and UnicodeDecodeError from corrupt bytes.
            obs_state.counter("cache.misses").inc()
            return None
        if not isinstance(entry, dict) or entry.get("schema") != SCHEMA_VERSION or "result" not in entry:
            obs_state.counter("cache.misses").inc()
            return None
        obs_state.counter("cache.hits").inc()
        return entry["result"]

    def put(self, job: Job, payload: Dict[str, Any]) -> Path:
        """Store ``payload`` for ``job`` atomically; returns the entry path."""
        job_hash = job.content_hash
        path = self.path_for(job_hash)
        atomic_write_json(
            path,
            {
                "schema": SCHEMA_VERSION,
                "hash": job_hash,
                "job": job.to_dict(),
                "result": payload,
            },
            faults=self.faults,
            fault_op="store.write",
        )
        obs_state.counter("cache.writes").inc()
        return path

    def contains(self, job: Job) -> bool:
        """True when an entry for ``job`` exists (does not touch the counters)."""
        return self.path_for(job.content_hash).is_file()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[Path]:
        """All entry files currently in the store."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_entries())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        return sum(path.stat().st_size for path in self.iter_entries())

    def clear(self) -> int:
        """Delete every entry; returns entries removed."""
        removed = 0
        for path in list(self.iter_entries()):
            path.unlink()
            removed += 1
        return removed
