"""On-disk, content-addressed result store.

Every entry is one JSON file named by the job's content hash (sharded into
two-character prefix directories so large campaigns do not pile tens of
thousands of files into one directory).  The file records the full job spec
next to the result payload, so a cache entry is self-describing: it can be
audited, replayed, or garbage-collected without any external index.

Writes are atomic (write to a temp file in the same directory, then
``os.replace``) so a killed run never leaves a truncated entry behind, and
concurrent runs sharing a cache directory at worst do redundant work -- they
can never corrupt each other's entries.  Each write encodes its text once with
the C JSON encoder and writes it in one call; a shard directory is made on
first use only, not checked on every write.

An entry is ``json.dumps({"schema": ..., "hash": ..., "job": ..., "result":
...})``.  Everything before the result is fixed by the job, so the cache
builds that *head* once per call, with the job's platform spliced in from
its spec's cached ``json_text``: ``put`` writes the head, the payload's
encoding and the closing brace, the same bytes as encoding the whole
document.

The disk is the only copy: every lookup reads the entry file, checks its
head byte for byte and parses only the payload after it, so each ``get``
returns a fresh dict and always sees what is on disk.  A file whose head
differs (another job's entry, another schema, a torn write) is a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro import hashing
from repro.obs import state as obs_state
from repro.runtime.jobs import SCHEMA_VERSION, Job, job_members

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
    """Write ``json.dumps(document)`` to ``path`` with :func:`atomic_write_text`.

    The document is encoded once by the C encoder before the filesystem is
    touched, so a non-serializable document raises ``TypeError`` without
    creating anything.  The bytes are the ones ``json.dump`` writes.
    """
    return atomic_write_text(path, json.dumps(document), faults, fault_op)


def atomic_write_text(
    path: Path,
    text: str,
    faults: Optional[Any] = None,
    fault_op: Optional[str] = None,
) -> Optional[str]:
    """Write ``text`` to ``path`` via a same-directory temp file.

    The one atomic writer: cache entries, fleet queue entries, reports,
    manifests, heartbeats and quarantine records all go through it.
    ``faults``/``fault_op`` are the chaos seam: a fault plan's
    ``intercept_write`` receives the text and may replace the write with a
    torn one, drop it (leaving a stray temp file), or raise an injected
    ``OSError`` -- deterministically from its seed.  Production callers pass
    neither and get the plain atomic write.

    The text goes out in one write.  The parent directory is created only
    when the temp-file create finds it missing, so a write into an existing
    shard makes no ``mkdir`` call.

    Returns ``None`` after a real write, or the kind of write a fault plan
    injected instead (``"torn"``, ``"skip"``).
    """
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


def _entry_head(job: Job) -> str:
    """The text of ``job``'s entry up to its result payload.

    It is ``json.dumps`` of the entry document cut before the payload, with
    the platform spliced in from its spec's cached ``json_text``.
    """
    job_text = hashing.dumps(job_members(job, hashing.Encoded(job.platform.json_text)))
    return (
        f'{{"schema": {SCHEMA_VERSION}, "hash": "{job.content_hash}", '
        f'"job": {job_text}, "result": '
    )


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

        The entry must start with ``job``'s head (see the module docstring),
        byte for byte; then only the payload after it is parsed.  A missing
        or unreadable file, a different head (another job's entry, another
        schema) and a payload that does not parse all count as misses: the
        job is simply recomputed and its entry rewritten.
        """
        try:
            data = self.path_for(job.content_hash).read_bytes()
        except OSError:
            obs_state.counter("cache.misses").inc()
            return None
        payload = None
        # ``json.dumps`` escapes every non-ASCII character, so the head is ASCII.
        head = _entry_head(job).encode("ascii")
        if data.startswith(head) and data.endswith(b"}"):
            try:
                payload = json.loads(data[len(head):-1])
            except ValueError:
                # json.JSONDecodeError, or UnicodeDecodeError from corrupt bytes.
                pass
        if not isinstance(payload, dict):
            obs_state.counter("cache.misses").inc()
            return None
        obs_state.counter("cache.hits").inc()
        return payload

    def put(self, job: Job, payload: Dict[str, Any]) -> Path:
        """Store ``payload`` for ``job`` atomically; returns the entry path."""
        path = self.path_for(job.content_hash)
        atomic_write_text(
            path,
            _entry_head(job) + json.dumps(payload) + "}",
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
