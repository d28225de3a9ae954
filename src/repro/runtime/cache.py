"""On-disk, content-addressed result store.

Every entry is one JSON file named by the job's content hash (sharded into
two-character prefix directories so large campaigns do not pile tens of
thousands of files into one directory).  An entry is ``json.dumps({"schema":
..., "hash": ..., "result": ...})``: the hash identifies the job, so the entry
carries no copy of it.  Entries written by earlier versions also carry the
whole job as a ``job`` member; readers ignore it, so those caches are served
as they are.

Writes are atomic (write to a temp file in the same directory, then
``os.replace``) so a killed run never leaves a truncated entry behind, and
concurrent runs sharing a cache directory at worst do redundant work -- they
can never corrupt each other's entries.  Each write encodes its text once with
the C JSON encoder and writes it in one call; a shard directory is made on
first use only, not checked on every write.

The disk is the only copy: every lookup (:meth:`ResultCache.read`) parses the
entry file and checks its schema and hash, so each read returns a fresh dict
and always sees what is on disk.  A file that does not check out (another
job's entry, another schema, a torn write) reads as absent.
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
    """Write ``json.dumps(document)`` to ``path`` via a same-directory temp file.

    The one atomic writer: cache entries, fleet queue entries, reports,
    manifests, heartbeats and quarantine records all go through it.  The
    document is encoded once by the C encoder before the filesystem is
    touched, so a non-serializable document raises ``TypeError`` without
    creating anything.  The bytes are the ones ``json.dump`` writes, and they
    go out in one write.  The parent directory is created only when the
    temp-file create finds it missing, so a write into an existing shard
    makes no ``mkdir`` call.

    ``faults``/``fault_op`` are the chaos seam: a fault plan's
    ``intercept_write`` receives the encoded text and may replace the write
    with a torn one, drop it (leaving a stray temp file), or raise an
    injected ``OSError`` -- deterministically from its seed.  Production
    callers pass neither and get the plain atomic write.

    Returns ``None`` after a real write, or the kind of write a fault plan
    injected instead (``"torn"``, ``"skip"``).
    """
    text = json.dumps(document)
    if faults is not None and fault_op is not None:
        injected = faults.intercept_write(fault_op, path, text)
        if injected is not None:
            return injected
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
    def read(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """The result stored under ``job_hash``, or ``None``: the one reader
        of entries, for lookups by job and by hash alike.

        An entry is served only when it parses as a dict with this schema,
        the hash asked for and a dict ``result``; other members (an earlier
        version's ``job``) are ignored.  Anything else -- a missing or torn
        file, another schema, another job's entry filed here -- is absent.
        """
        try:
            entry = json.loads(self.path_for(job_hash).read_bytes())
        except (OSError, ValueError):
            # ValueError: a short hash, json.JSONDecodeError, or a
            # UnicodeDecodeError from corrupt bytes.
            return None
        if (
            isinstance(entry, dict)
            and entry.get("schema") == SCHEMA_VERSION
            and entry.get("hash") == job_hash
            and isinstance(entry.get("result"), dict)
        ):
            return entry["result"]
        return None

    def get(self, job: Job) -> Optional[Dict[str, Any]]:
        """The cached result payload for ``job``, or ``None`` on a miss.

        :meth:`read` by the job's hash, counted as a hit or a miss.  A miss
        is simply recomputed and its entry rewritten.
        """
        payload = self.read(job.content_hash)
        obs_state.counter("cache.misses" if payload is None else "cache.hits").inc()
        return payload

    def put(self, job: Job, payload: Dict[str, Any]) -> Path:
        """Store ``payload`` for ``job`` atomically; returns the entry path."""
        path = self.path_for(job.content_hash)
        atomic_write_json(
            path,
            {"schema": SCHEMA_VERSION, "hash": job.content_hash, "result": payload},
            faults=self.faults,
            fault_op="store.write",
        )
        obs_state.counter("cache.writes").inc()
        return path

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
