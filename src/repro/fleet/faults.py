"""Seeded, deterministic fault injection for the fleet's failure seams.

The chaos harness behind the fleet's robustness contract: a
:class:`FaultPlan` decides -- purely from its seed and the identity of each
injection opportunity -- whether to corrupt a queue/store write, lose it
"mid-rename", raise an ``OSError`` at a filesystem seam, crash or hang a
worker mid-job, or hand out an already-expired lease.  Because every decision
is a pure function of ``(seed, kind, op, key)`` (hashed through
:func:`repro.hashing.content_hash`), the same plan driven through the same
operation sequence injects the *same* faults in the same places, every time:
chaos tests replay bit-identically, and a failure found under a seed is a
repro recipe, not a flake.

Two keying modes keep that determinism honest:

* **Filesystem seams** (``queue.write``, ``queue.read``, ``store.write``,
  ``store.read``) key on a per-``(kind, op)`` ordinal -- the Nth write decides
  the same way whenever the op sequence is the same.
* **Job seams** (``job`` crash/hang/raise, ``queue.lease`` forced expiry) key
  on ``(job_hash, attempt)`` -- order-independent, so a retried job sees a
  *fresh* decision per attempt (a 0.3-rate crash plan recovers) while a
  rate-1.0 rule pinned to one hash prefix makes a perfectly reproducible
  poison job.

Plans parse from a compact spec string (the ``repro serve --faults`` flag and
``REPRO_FLEET_FAULTS`` env var)::

    seed=42;torn@queue.write=0.1;crash@job=0.2;hang@job=0.1:0.05

Every injected fault is appended to :attr:`FaultPlan.events`, which is the
replay-determinism surface the tests pin.  The plan only ever *decides and
logs*; the seams that consult it (``JobQueue``, ``ShardedResultStore``, the
service's dispatch path) own the recovery behavior the injections force.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hashing import content_hash

__all__ = [
    "FAULT_SCHEMA_VERSION",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedOSError",
    "InjectedWorkerCrash",
    "directive_hook",
]

#: Stamped into every decision payload hashed for an injection chance; bump
#: when the decision keying changes so old pinned tables are invalidated
#: loudly instead of silently drifting.
FAULT_SCHEMA_VERSION = 1

#: Exit code an injected worker crash dies with (visible in pool diagnostics).
CRASH_EXIT_CODE = 17

#: kind -> ops it may attach to.
_KIND_OPS = {
    "torn": {"queue.write", "store.write"},
    "skip": {"queue.write", "store.write"},
    "oserror": {"queue.write", "queue.read", "store.write", "store.read"},
    "crash": {"job"},
    "hang": {"job"},
    "raise": {"job"},
    "expire": {"queue.lease"},
}

#: Ops whose decisions key on (job_hash, attempt) instead of an ordinal.
_JOB_KEYED_OPS = {"job", "queue.lease"}


class InjectedFault(RuntimeError):
    """An exception deliberately raised by the chaos harness."""


class InjectedWorkerCrash(InjectedFault):
    """A 'worker crash' injected on the in-process execution path.

    In a real pool worker the crash directive calls ``os._exit`` and the
    parent sees ``BrokenProcessPool``; in-process execution cannot die
    without taking the service down, so it raises this instead and flows
    through the same per-job failure isolation.
    """


class InjectedOSError(OSError):
    """An ``OSError`` deliberately raised at a filesystem seam."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: ``kind`` at ``op``, with probability ``rate``.

    ``param`` carries the kind-specific knob (hang seconds); ``match``
    restricts job-keyed rules to job hashes with that prefix (the poison-job
    lever) and is ignored for ordinal-keyed filesystem seams.
    """

    kind: str
    op: str
    rate: float
    param: float = 0.0
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_OPS:
            known = ", ".join(sorted(_KIND_OPS))
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {known})")
        if self.op not in _KIND_OPS[self.kind]:
            allowed = ", ".join(sorted(_KIND_OPS[self.kind]))
            raise ValueError(
                f"fault kind {self.kind!r} cannot attach to op {self.op!r} "
                f"(allowed: {allowed})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.param < 0.0:
            raise ValueError(f"fault param must be non-negative, got {self.param}")

    def describe(self) -> str:
        target = f"{self.op}[{self.match}]" if self.match else self.op
        suffix = f":{self.param:g}" if self.param else ""
        return f"{self.kind}@{target}={self.rate:g}{suffix}"


def _parse_rule(token: str) -> FaultRule:
    """``KIND@OP=RATE``, ``KIND@OP=RATE:PARAM``, or ``KIND@OP[PREFIX]=RATE``."""
    head, _, value = token.partition("=")
    if not value:
        raise ValueError(f"fault rule {token!r} is missing '=RATE'")
    kind, _, target = head.partition("@")
    if not target:
        raise ValueError(f"fault rule {token!r} is missing '@OP'")
    match: Optional[str] = None
    if target.endswith("]") and "[" in target:
        target, _, selector = target[:-1].partition("[")
        match = selector or None
    rate_text, _, param_text = value.partition(":")
    try:
        rate = float(rate_text)
        param = float(param_text) if param_text else 0.0
    except ValueError as error:
        raise ValueError(f"fault rule {token!r} has a non-numeric value") from error
    return FaultRule(
        kind=kind.strip(), op=target.strip(), rate=rate, param=param, match=match
    )


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus the injection log."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: Every injected fault, in injection order: the replay surface.
    events: List[Dict[str, Any]] = field(default_factory=list)
    _ordinals: Dict[Tuple[str, str], int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``seed=N;KIND@OP=RATE;...`` spec string."""
        seed = 0
        rules: List[FaultRule] = []
        for token in spec.replace(",", ";").split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError as error:
                    raise ValueError(f"bad fault seed in {token!r}") from error
            else:
                rules.append(_parse_rule(token))
        return cls(seed=seed, rules=tuple(rules))

    def describe(self) -> str:
        parts = [f"seed={self.seed}"] + [rule.describe() for rule in self.rules]
        return ";".join(parts)

    # ------------------------------------------------------------------
    # The decision function
    # ------------------------------------------------------------------
    def _chance(self, kind: str, op: str, key: str) -> float:
        """Uniform [0, 1) value, a pure function of (seed, kind, op, key)."""
        digest = content_hash(
            {
                "schema": FAULT_SCHEMA_VERSION,
                "kind_tag": "fleet_fault",
                "seed": self.seed,
                "fault": kind,
                "op": op,
                "key": key,
            }
        )
        return int(digest[:12], 16) / float(16**12)

    def _next_key(self, kind: str, op: str) -> str:
        ordinal = self._ordinals.get((kind, op), 0)
        self._ordinals[(kind, op)] = ordinal + 1
        return str(ordinal)

    def _record(self, kind: str, op: str, key: str, **detail: Any) -> None:
        event = {"kind": kind, "op": op, "key": key}
        event.update(detail)
        self.events.append(event)

    def _decide(
        self, op: str, key: Optional[str] = None
    ) -> Optional[Tuple[FaultRule, str]]:
        """The first rule for ``op`` that fires, with the key it fired on."""
        for rule in self.rules:
            if rule.op != op:
                continue
            if key is not None and rule.match and not key.startswith(rule.match):
                continue
            decision_key = key if key is not None else self._next_key(rule.kind, op)
            if self._chance(rule.kind, op, decision_key) < rule.rate:
                return rule, decision_key
        return None

    # ------------------------------------------------------------------
    # Filesystem seams
    # ------------------------------------------------------------------
    def intercept_write(self, op: str, path: Path, text: str) -> Optional[str]:
        """Consult the plan before an atomic write of ``text``.

        Returns ``None`` to let the real write proceed, or the injected kind
        after performing it: ``"torn"`` leaves the first half of ``text`` at
        the destination (a non-atomic filesystem corrupting the entry),
        ``"skip"`` leaves the destination untouched but a stray temp file
        behind (a crash between the temp write and the rename).  An
        ``"oserror"`` rule raises :class:`InjectedOSError` instead.
        """
        fired = self._decide(op)
        if fired is None:
            return None
        rule, key = fired
        self._record(rule.kind, op, key, path=path.name)
        if rule.kind == "oserror":
            raise InjectedOSError(f"injected OSError at {op} ({path.name})")
        path.parent.mkdir(parents=True, exist_ok=True)
        if rule.kind == "torn":
            path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
        else:  # skip: the temp file was written, the rename never happened
            stray = path.parent / f".{path.stem[:8]}-chaos-{key}.tmp"
            stray.write_text(text, encoding="utf-8")
        return rule.kind

    def intercept_read(self, op: str, path: Path) -> None:
        """Consult the plan before a filesystem read; may raise an OSError.

        Callers treat the injected error exactly like a transient filesystem
        error: the entry is invisible for this scan and retried on the next,
        never quarantined (the bytes on disk are fine).
        """
        fired = self._decide(op)
        if fired is None:
            return
        rule, key = fired
        self._record(rule.kind, op, key, path=path.name)
        raise InjectedOSError(f"injected OSError at {op} ({path.name})")

    # ------------------------------------------------------------------
    # Job seams
    # ------------------------------------------------------------------
    def _job_key(self, job_hash: str, attempt: int) -> str:
        return f"{job_hash}:{attempt}"

    def lease_expired(self, job_hash: str, attempt: int) -> bool:
        """True when the plan forces this lease to be handed out pre-expired."""
        fired = self._decide("queue.lease", key=self._job_key(job_hash, attempt))
        if fired is None:
            return False
        rule, key = fired
        self._record(rule.kind, "queue.lease", key)
        return True

    def job_directives(
        self, jobs: Sequence[Tuple[str, int]]
    ) -> Dict[str, Tuple[str, float]]:
        """Per-job chaos directives for one dispatch.

        ``jobs`` is ``[(job_hash, attempt), ...]``; the result maps job hash
        to ``(kind, param)`` for every job a ``job``-op rule fires on.  Keyed
        purely by ``(job_hash, attempt)``, so batch composition and dispatch
        order cannot change what gets injected.
        """
        directives: Dict[str, Tuple[str, float]] = {}
        for job_hash, attempt in jobs:
            fired = self._decide("job", key=self._job_key(job_hash, attempt))
            if fired is None:
                continue
            rule, key = fired
            self._record(rule.kind, "job", key)
            directives[job_hash] = (rule.kind, rule.param)
        return directives

    def summary(self) -> Dict[str, int]:
        """Injection counts by ``kind@op``, for logs and test assertions."""
        totals: Dict[str, int] = {}
        for event in self.events:
            label = f"{event['kind']}@{event['op']}"
            totals[label] = totals.get(label, 0) + 1
        return totals


# ---------------------------------------------------------------------------
# The executor-side directive hook
# ---------------------------------------------------------------------------


def _apply_directives(
    directives: Dict[str, Tuple[str, float]], parent_pid: int, job: Any
) -> None:
    """Pre-execution hook body: act on this job's directive, if any.

    Runs in whichever process executes the job.  ``crash`` kills a real pool
    worker with ``os._exit`` (the parent sees ``BrokenProcessPool``); on the
    in-process path it raises :class:`InjectedWorkerCrash` instead so the
    service itself survives.  ``hang`` sleeps past the configured seconds and
    then lets the job run (exercising lease expiry and late completion);
    ``raise`` fails just this job.
    """
    directive = directives.get(job.content_hash)
    if directive is None:
        return
    kind, param = directive
    if kind == "hang":
        time.sleep(param)
    elif kind == "raise":
        raise InjectedFault(f"injected job fault ({job.content_hash[:12]})")
    elif kind == "crash":
        if os.getpid() != parent_pid:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash(
            f"injected worker crash ({job.content_hash[:12]})"
        )


def directive_hook(
    directives: Dict[str, Tuple[str, float]], parent_pid: Optional[int] = None
):
    """A picklable pre-execution hook applying ``directives`` per job.

    ``functools.partial`` over a module-level function survives the pool's
    pickling; the parent pid travels along so the crash directive can tell a
    forked worker (where it may really die) from the service process.
    """
    return partial(
        _apply_directives,
        dict(directives),
        os.getpid() if parent_pid is None else parent_pid,
    )
