"""The job executor: deduplicate, consult the cache, run the misses.

:class:`Executor` takes a sequence of jobs (duplicates allowed), consults the
cache, executes only the unique misses, and returns an :class:`ExecutionReport`
whose outcomes line up with the submitted order.  Deduplication happens
*before* execution, so a campaign that names the same (platform, policy,
trace) combination dozens of times simulates it once.

``Executor(workers=1)``, the default, runs the misses in the calling process.
With more workers they fan out over a fork pool of that many processes.
Worker processes rebuild their own platforms from the job specs (see
``repro.runtime.jobs.platform_for``): the simulation engine mutates live MRC
register state while running, so a platform object must never be shared by two
concurrent runs.  Both paths funnel through the same ``execute_job_with_stats``
function, which is what makes their results bit-identical; engine loop
statistics ride back alongside each payload (and per-worker metric snapshots
are merged into the parent's ``repro.obs`` registry when telemetry is
enabled), never inside it.

Pool submission is **batched**: a campaign of tiny jobs (the scenario catalog
at a capped ``max_simulated_time`` runs a job in single-digit milliseconds)
loses its parallel speedup to per-job pickling round-trips if every job is its
own pool submission (unbatched, cold parallel barely beat serial).
:func:`auto_batch_size` packs jobs per submission from the batch and worker
count, so the pickle/IPC overhead amortizes across the batch while results
still stream back batch by batch.  Batching never touches what executes: each
worker runs the same ``execute_job_with_stats`` per job, in submission order,
so payloads stay bit-identical to in-process runs whatever the batch size.

The pool, and the ``multiprocessing`` machinery behind it, is imported and
created on the first call that needs it, and then **kept alive across**
``run()`` **calls**: a session that submits one experiment after another (the
CLI running several targets, ``repro.api.Session``) reuses one warm pool --
with its worker-local platform/calibration memos -- instead of forking and
tearing down a fresh pool per experiment.  Call :meth:`Executor.close` (or use
the executor as a context manager) for a deterministic shutdown; a GC
finalizer shuts the pool down as a fallback.
"""

from __future__ import annotations

import math
import time
import traceback as traceback_module
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import state as obs_state
from repro.obs.spans import span as _span
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import Job, decode_result, execute_job_with_stats
from repro.sim.result import EngineRunStats


@dataclass(frozen=True)
class ProgressUpdate:
    """One per-job progress event (cache hits report instantly)."""

    label: str
    job_hash: str
    from_cache: bool
    completed: int
    total: int
    elapsed: float


ProgressCallback = Callable[[ProgressUpdate], None]


@dataclass(frozen=True)
class JobFailure:
    """Why one job's execution failed, in picklable form.

    Produced on whichever side of the pool boundary the exception happened
    and handed to the caller's ``on_error`` callback -- the exception object
    itself never crosses process boundaries (tracebacks do not pickle, and a
    worker-defined exception class may not even import in the parent).
    """

    job_hash: str
    kind: str
    message: str
    traceback: str

    def describe(self) -> str:
        return f"{self.kind}: {self.message}"


#: Isolation callback: invoked once per unique failed job instead of letting
#: the exception tear down the whole batch.
FailureCallback = Callable[[Job, JobFailure], None]

#: Pre-execution seam: invoked with each job right before it runs, *in the
#: process that runs it* (a pool worker when ``workers > 1``).  This is
#: the fleet chaos harness's injection point; it must be picklable (a
#: module-level function or ``functools.partial`` over one).
PreExecuteHook = Callable[[Job], None]


def _failure_from(job: Job, error: BaseException) -> JobFailure:
    return JobFailure(
        job_hash=job.content_hash,
        kind=type(error).__name__,
        message=str(error),
        traceback=traceback_module.format_exc(),
    )


def _run_job(job: Job, isolate: bool, pre_hook: Optional[PreExecuteHook]) -> Any:
    """Run one job: ``(payload, stats)``, or a :class:`JobFailure` under
    ``isolate``.  Without isolation, job and hook exceptions propagate.

    Module-level so pool workers can run it from a pickled batch.
    """
    try:
        if pre_hook is not None:
            pre_hook(job)
        return execute_job_with_stats(job)
    except Exception as error:  # noqa: BLE001 - isolation contract
        if not isolate:
            raise
        return _failure_from(job, error)


def _deliver(
    job: Job,
    item: Any,
    on_executed: Callable[..., None],
    on_error: Optional[FailureCallback],
) -> None:
    """Route one :func:`_run_job` result to ``on_error`` or ``on_executed``."""
    if isinstance(item, JobFailure):
        on_error(job, item)
    else:
        payload, stats = item
        on_executed(job, payload, stats)


@dataclass(frozen=True)
class JobOutcome:
    """One submitted job with its payload and provenance.

    ``stats`` carries the engine's per-run loop statistics when the job was
    actually simulated in this call; it is ``None`` for cache hits (nothing
    ran) and for job kinds without an engine pass.  Stats ride *next to* the
    payload -- they are never cached, so cached payloads stay byte-identical
    regardless of telemetry.
    """

    job: Job
    payload: Dict[str, Any]
    from_cache: bool
    stats: Optional[EngineRunStats] = None

    @property
    def result(self):
        """The payload decoded into its natural result object."""
        return decode_result(self.job, self.payload)


@dataclass
class ExecutionReport:
    """What one executor call did: outcomes plus dedup/cache accounting."""

    outcomes: List[JobOutcome]
    unique_jobs: int
    cache_hits: int
    executed: int
    elapsed: float
    #: Unique jobs whose execution raised while ``on_error`` isolation was
    #: active; they have no outcome entry.  Always 0 without isolation (the
    #: exception propagates instead).
    failed: int = 0

    @property
    def submitted(self) -> int:
        """Jobs submitted, before deduplication."""
        return len(self.outcomes)

    def results(self) -> List[Any]:
        """Decoded results, aligned with the submitted job order."""
        return [outcome.result for outcome in self.outcomes]

    def payloads(self) -> List[Dict[str, Any]]:
        """Raw payloads, aligned with the submitted job order."""
        return [outcome.payload for outcome in self.outcomes]

    def engine_stats(self) -> Dict[str, int]:
        """Aggregate engine loop statistics over the jobs executed this call.

        Duplicate submissions share one execution, so totals are per unique
        job; cache hits contribute nothing (no engine ran for them).
        """
        totals = {
            "runs": 0,
            "ticks": 0,
            "segments": 0,
            "model_evaluations": 0,
            "memo_hits": 0,
            "evaluations": 0,
            "transitions": 0,
        }
        seen = set()
        for outcome in self.outcomes:
            stats = outcome.stats
            if stats is None:
                continue
            job_hash = outcome.job.content_hash
            if job_hash in seen:
                continue
            seen.add(job_hash)
            totals["runs"] += 1
            for name, value in stats.as_dict().items():
                totals[name] += value
        return totals


@dataclass
class Executor:
    """Run deduplicated cache misses on ``workers`` processes.

    ``workers=1`` runs every miss in the calling process.  With more, the
    misses of a call run on a fork pool of ``workers`` processes, in batches
    :func:`auto_batch_size` sizes.  The pool is created by the first call
    with more than one pending job and reused by every later ``run()``, even
    for a single job, until :meth:`close`.
    """

    workers: int = 1
    _pool: Any = field(init=False, repr=False, default=None)
    _finalizer: Any = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def run(
        self,
        jobs: Sequence[Job],
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        on_error: Optional[FailureCallback] = None,
        pre_hook: Optional[PreExecuteHook] = None,
    ) -> ExecutionReport:
        """Execute ``jobs`` (deduplicated) and return the full report.

        Without ``on_error``, any job exception propagates and the whole call
        fails -- the historical contract every experiment path relies on.
        With ``on_error``, failures are isolated per job: the callback gets
        ``(job, JobFailure)``, the failed job simply has no outcome entry,
        and every healthy job still completes.  ``pre_hook`` runs before each
        job in the executing process (the fault-injection seam); a hook
        exception counts as that job's failure under isolation.
        """
        jobs = list(jobs)
        started = time.perf_counter()

        unique: Dict[str, Job] = {}
        for job in jobs:
            unique.setdefault(job.content_hash, job)

        resolved: Dict[str, Dict[str, Any]] = {}
        stats_by_hash: Dict[str, EngineRunStats] = {}
        hit_hashes = set()
        if cache is not None:
            for job_hash, job in unique.items():
                payload = cache.get(job)
                if payload is not None:
                    resolved[job_hash] = payload
                    hit_hashes.add(job_hash)

        pending = [job for job_hash, job in unique.items() if job_hash not in resolved]
        total = len(unique)

        metrics_on = obs_state.enabled()
        if metrics_on:
            obs_state.counter("executor.submitted").inc(len(jobs))
            obs_state.counter("executor.unique").inc(total)
            obs_state.counter("executor.cache_hits").inc(len(hit_hashes))
            if jobs:
                # Dedup ratio: how much work submission-level duplication saved.
                obs_state.histogram("executor.dedup_ratio").observe(
                    1.0 - total / len(jobs)
                )

        if progress is not None:
            ordered_hits = [h for h in unique if h in hit_hashes]
            for completed, job_hash in enumerate(ordered_hits, start=1):
                job = unique[job_hash]
                progress(
                    ProgressUpdate(
                        label=job.label,
                        job_hash=job_hash,
                        from_cache=True,
                        completed=completed,
                        total=total,
                        elapsed=time.perf_counter() - started,
                    )
                )

        def on_executed(
            job: Job,
            payload: Dict[str, Any],
            stats: Optional[EngineRunStats] = None,
        ) -> None:
            job_hash = job.content_hash
            resolved[job_hash] = payload
            if stats is not None:
                stats_by_hash[job_hash] = stats
            if metrics_on:
                obs_state.counter("executor.executed").inc()
            if cache is not None:
                cache.put(job, payload)
            if progress is not None:
                progress(
                    ProgressUpdate(
                        label=job.label,
                        job_hash=job_hash,
                        from_cache=False,
                        completed=len(resolved),
                        total=total,
                        elapsed=time.perf_counter() - started,
                    )
                )

        failed_hashes: set = set()
        isolate = on_error is not None

        def on_failed(job: Job, failure: JobFailure) -> None:
            failed_hashes.add(job.content_hash)
            if metrics_on:
                obs_state.counter("executor.failed").inc()
            on_error(job, failure)

        if pending:
            report_failure = on_failed if isolate else None
            with _span("executor.run", workers=self.workers, jobs=len(pending)):
                if self.workers == 1 or (len(pending) == 1 and self._pool is None):
                    # A pool would only add fork/teardown overhead; once a
                    # warm pool exists, even a single job goes through it.
                    for job in pending:
                        item = _run_job(job, isolate, pre_hook)
                        _deliver(job, item, on_executed, report_failure)
                else:
                    self._run_on_pool(pending, on_executed, report_failure, pre_hook)

        outcomes = [
            JobOutcome(
                job=job,
                payload=resolved[job.content_hash],
                from_cache=job.content_hash in hit_hashes,
                stats=stats_by_hash.get(job.content_hash),
            )
            for job in jobs
            if job.content_hash in resolved
        ]
        return ExecutionReport(
            outcomes=outcomes,
            unique_jobs=total,
            cache_hits=len(hit_hashes),
            executed=len(pending) - len(failed_hashes),
            elapsed=time.perf_counter() - started,
            failed=len(failed_hashes),
        )

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Any:
        if self._pool is None:
            # Imported here, not at module load: only a run that needs a pool
            # pays for the multiprocessing machinery.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Fork keeps worker start cheap and inherits the warm platform
            # memo; fall back to the platform default (e.g. spawn) where fork
            # is absent.
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            obs_state.counter("executor.pool_starts").inc()
            self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
            # GC fallback: shut the workers down if the owner forgets close().
            self._finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=False
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; the next ``run()`` starts a fresh one."""
        if self._pool is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _run_on_pool(
        self,
        jobs: List[Job],
        on_executed: Callable[..., None],
        on_error: Optional[FailureCallback],
        pre_hook: Optional[PreExecuteHook],
    ) -> None:
        collect_metrics = obs_state.enabled()
        if self._pool is not None and collect_metrics:
            obs_state.counter("executor.pool_reuse").inc()
        pool = self._ensure_pool()
        size = auto_batch_size(len(jobs), self.workers)
        queue = deque(
            jobs[start : start + size] for start in range(0, len(jobs), size)
        )
        in_flight: Dict[Any, List[Job]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < MAX_IN_FLIGHT_BATCHES:
                    batch = queue.popleft()
                    in_flight[
                        pool.submit(
                            _pool_execute_batch,
                            batch,
                            collect_metrics,
                            on_error is not None,
                            pre_hook,
                        )
                    ] = batch
                done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    batch = in_flight.pop(future)
                    executed, worker_snapshot = future.result()
                    if worker_snapshot is not None:
                        obs_state.merge_snapshot(worker_snapshot)
                    for job, item in zip(batch, executed):
                        _deliver(job, item, on_executed, on_error)
        except BrokenExecutor:
            # A dead worker poisons the whole pool; drop it so the next
            # run() starts fresh instead of failing instantly forever.
            self.close()
            raise
        except BaseException:
            # Don't leave abandoned work running in the reused pool.
            for future in in_flight:
                future.cancel()
            raise


def _pool_execute_batch(
    jobs: List[Job],
    collect_metrics: bool,
    isolate: bool = False,
    pre_hook: Optional[PreExecuteHook] = None,
):
    """Worker-side task: run a batch of jobs, optionally under a metrics scope.

    One submission carries ``len(jobs)`` jobs, so the pickle/IPC round trip is
    paid once per batch instead of once per job.  Jobs run strictly in the
    order submitted, each through the same ``execute_job_with_stats`` the
    in-process path uses -- batching is a transport optimization and cannot
    change payloads.

    When the parent has telemetry enabled, the batch runs inside
    ``obs.scoped()`` -- a fresh registry (so counters do not double count
    across batches sharing a worker) that inherits the parent's sinks and
    trace flag via fork, letting worker trace events reach the same
    append-mode JSONL file.  The registry snapshot travels back with the
    results and is merged into the parent registry, which is how worker-side
    metrics aggregate across ``run()`` calls.

    With ``isolate``, a job exception is captured as a :class:`JobFailure`
    element in the result list instead of poisoning the batch -- the parent
    routes it to ``on_error`` and every other job in the batch still lands.
    ``pre_hook`` runs before each job *in this worker process*.
    """
    if not collect_metrics:
        return [_run_job(job, isolate, pre_hook) for job in jobs], None
    with obs_state.scoped() as scope:
        executed = [_run_job(job, isolate, pre_hook) for job in jobs]
        snapshot = scope.registry.snapshot()
    return executed, snapshot


#: Cap on auto-derived batch sizes: past this, the pickle amortization has
#: flattened out and bigger batches only make progress/result latency lumpier.
MAX_AUTO_BATCH_SIZE = 16

#: Auto-sizing aims for about this many submissions per worker, so slow jobs
#: still rebalance across the pool instead of one worker owning a giant batch.
AUTO_BATCH_ROUNDS = 4


def auto_batch_size(jobs: int, workers: int) -> int:
    """A batch size giving each worker ~:data:`AUTO_BATCH_ROUNDS` submissions.

    Small batches collapse to 1 (no behavior change for a handful of jobs);
    large campaigns amortize pickling without starving the pool of
    rebalancing opportunities.
    """
    if jobs <= 0:
        return 1
    per_worker = math.ceil(jobs / max(1, workers))
    return max(1, min(MAX_AUTO_BATCH_SIZE, math.ceil(per_worker / AUTO_BATCH_ROUNDS)))


#: Bound on batch futures in flight, so campaigns with tens of thousands of
#: jobs do not hold every argument pickled in memory at once.
MAX_IN_FLIGHT_BATCHES = 1024


#: ``Executor``'s earlier in-process name, kept only because
#: ``perfbench/workloads.py`` imports it.
SerialExecutor = Executor
