"""Per-layer tracing for the benchmark's traced passes.

Nothing in ``src/`` is modified: :func:`install` wraps the public functions
and methods at each layer boundary from the outside.  A wrapper is installed
on every attribute callers actually resolve -- the defining class for
methods, and for module-level functions every ``repro.*`` module that
imported the function by name -- so calls through ``from x import f`` are
seen too.

Each wrapped call is a frame on one stack.  On exit the frame's duration is
added to its layer's ``busy`` total, its duration minus the time covered by
child frames to its ``self`` total, and the duration to the parent's child
time.  Boundary layers (experiments, executor, jobs, cache, engine, fleet)
also keep a span -- name, start, end, parent span, shared id (experiment
target or job hash) -- in memory; hot model-stack leaves (hashing, policy
``decide``, memory, power, platform) are aggregated only, because a full
paper reproduction calls them hundreds of thousands of times.  Spans are
written once, at the end, as ``type: "span"`` JSONL events in the shape
``repro.obs`` emits, so ``repro trace describe`` and ``repro trace export
--chrome`` read them unchanged.

Pool workers forked from a traced process inherit the wrappers; a fork hook
turns them into pass-throughs there, so only parent-side work is measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Per-layer counts that are a pure function of the workload's inputs.  Two
#: traced passes of one workload and seed must report them identically.
EXACT_COUNTS = (
    "executor.run.calls",
    "jobs.execute.calls",
    "jobs.trace_build.calls",
    "jobs.platform_for.calls",
    "jobs.policy_build.calls",
    "hashing.content_hash.calls",
    "cache.get.calls",
    "cache.put.calls",
    "cache.put.bytes",
    "engine.run.calls",
    "engine.ticks",
    "engine.segments",
    "engine.model_evaluations",
    "engine.memo_hits",
    "policy.decide.calls",
    "core.default_thresholds.calls",
    "memory.timings_for_frequency.calls",
    "memory.power_breakdown.calls",
    "power.cpu_power.calls",
    "power.plan_cpu_centric.calls",
    "platform.worst_case_io_memory_power.calls",
    "fleet.poll.calls",
    "fleet.queue.scan.calls",
    "fleet.queue.entries_read",
    "fleet.queue.lease.calls",
    "fleet.queue.complete.calls",
    "fleet.store.put_report.calls",
)

#: Counts that depend on how many times the fleet service polled: one poll
#: that finds nothing (say, under a retry backoff) adds scans, a lease and a
#: poll.  They are exempt from the exact-repeat check on ``fleet-drain``.
POLL_DEPENDENT = (
    "executor.run.calls",
    "fleet.poll.calls",
    "fleet.queue.scan.calls",
    "fleet.queue.entries_read",
    "fleet.queue.lease.calls",
)


class Tracer:
    """Frame stack, per-layer totals, and the in-memory span list."""

    def __init__(self) -> None:
        self.active = True
        self.stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Names of the wrapped layers, so unused layers still report zeros.
        self.layers: List[str] = []
        #: (name, start, end, span_id, parent_id, trace_id, depth)
        self.spans: List[tuple] = []
        self._next_id = 1

    def enter(self, name: str, record: bool, trace_id: Optional[str]) -> list:
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent_ctx, depth = parent[5], parent[6]
            if trace_id is None:
                trace_id = parent[4]
        else:
            parent_ctx, depth = None, 0
        span_id = None
        ctx, ctx_depth = parent_ctx, depth
        if record:
            span_id = self._next_id
            self._next_id += 1
            ctx, ctx_depth = span_id, depth + 1
        # [name, start, child_time, span_id, trace_id, ctx, ctx_depth,
        #  parent_ctx, depth]
        frame = [name, 0.0, 0.0, span_id, trace_id, ctx, ctx_depth, parent_ctx, depth]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        name = frame[0]
        duration = end - frame[1]
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] is not None:
            self.spans.append(
                (name, frame[1], end, frame[3], frame[7], frame[4], frame[8])
            )

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as ``repro.obs``-shaped JSONL, exit order."""
        origin = min((span[1] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent_id, trace_id, depth in self.spans:
                event = {
                    "type": "span",
                    "name": name,
                    "depth": depth,
                    "duration_s": end - start,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "trace_id": trace_id,
                }
                handle.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    def busy_by_trace(self, name: str) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name:
                totals[span[5]] += span[2] - span[1]
        return totals


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    record: bool,
    trace_id: Optional[Callable[[tuple], str]] = None,
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> Callable:
    if name not in tracer.layers:
        tracer.layers.append(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, record, trace_id(args) if trace_id else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _rebind_function(original: Callable, wrapper: Callable) -> None:
    """Replace ``original`` in every ``repro`` module that holds it by name."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, record: bool, **hooks) -> None:
    setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr], record, **hooks))


def _job_hash(args: tuple) -> str:
    return args[0].content_hash


def _cache_job_hash(args: tuple) -> str:
    return args[1].content_hash


def _after_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counts["cache.hits"] += 1


def _after_cache_put(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["cache.put.bytes"] += result.stat().st_size


def _after_engine_run(tracer: Tracer, args: tuple, result: Any) -> None:
    stats = args[0].last_run_stats
    if stats is not None:
        tracer.counts["engine.ticks"] += stats.ticks
        tracer.counts["engine.segments"] += stats.segments
        tracer.counts["engine.model_evaluations"] += stats.model_evaluations
        tracer.counts["engine.memo_hits"] += stats.memo_hits


def _after_scan(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["fleet.queue.entries_read"] += len(result[0])


def _after_poll(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["fleet.jobs_completed"] += result


def _policy_classes(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        decide = cls.__dict__.get("decide")
        if decide is not None and not getattr(decide, "__isabstractmethod__", False):
            found.append(cls)
    return found


def install() -> Tracer:
    """Wrap every traced layer boundary and return the tracer collecting them.

    Call after the packages are imported and before the work to trace.
    """
    import repro.baselines  # noqa: F401  (imports every Policy subclass)
    import repro.fleet
    from repro import hashing
    from repro.core import sysscale
    from repro.experiments.api import ExperimentSpec
    from repro.fleet.queue import JobQueue
    from repro.fleet.service import FleetService
    from repro.fleet.store import ShardedResultStore
    from repro.memory import timings
    from repro.memory.power import MemoryPowerModel
    from repro.power.budget import PowerBudgetManager
    from repro.power.models import ComputePowerModel
    from repro.runtime import jobs
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import Executor
    from repro.sim.engine import SimulationEngine
    from repro.sim.platform import Platform
    from repro.sim.policy import Policy

    tracer = Tracer()
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "active", False))

    for name, fn, record, hooks in (
        ("jobs.execute", jobs.execute_job_with_stats, True, {"trace_id": _job_hash}),
        ("jobs.platform_for", jobs.platform_for, True, {}),
        ("hashing.content_hash", hashing.content_hash, False, {}),
        ("core.default_thresholds", sysscale.default_thresholds, True, {}),
        ("memory.timings_for_frequency", timings.timings_for_frequency, False, {}),
        ("fleet.submit", repro.fleet.service.submit_campaign, True, {}),
    ):
        _rebind_function(fn, _wrap(tracer, name, fn, record, **hooks))

    for cls, attr, name, record, hooks in (
        (ExperimentSpec, "run", "experiments", True, {"trace_id": lambda args: args[0].name}),
        (Executor, "run", "executor.run", True, {}),
        (jobs.TraceSpec, "build", "jobs.trace_build", True, {}),
        (jobs.PolicySpec, "build", "jobs.policy_build", True, {}),
        (ResultCache, "get", "cache.get", True,
         {"trace_id": _cache_job_hash, "after": _after_cache_get}),
        (ResultCache, "put", "cache.put", True,
         {"trace_id": _cache_job_hash, "after": _after_cache_put}),
        (SimulationEngine, "run", "engine.run", True, {"after": _after_engine_run}),
        (MemoryPowerModel, "breakdown", "memory.power_breakdown", False, {}),
        (ComputePowerModel, "cpu_power", "power.cpu_power", False, {}),
        (PowerBudgetManager, "plan_cpu_centric", "power.plan_cpu_centric", False, {}),
        (Platform, "worst_case_io_memory_power", "platform.worst_case_io_memory_power", False, {}),
        (FleetService, "serve_forever", "fleet.serve", True, {}),
        (FleetService, "run_once", "fleet.poll", True, {"after": _after_poll}),
        (FleetService, "finalize_reports", "fleet.finalize", True, {}),
        (JobQueue, "scan", "fleet.queue.scan", True, {"after": _after_scan}),
        (JobQueue, "lease", "fleet.queue.lease", True, {}),
        (JobQueue, "complete", "fleet.queue.complete", True, {}),
        (JobQueue, "submit_many", "fleet.queue.submit_many", True, {}),
        (ShardedResultStore, "put_report", "fleet.store.put_report", True, {}),
    ):
        _wrap_method(tracer, cls, attr, name, record, **hooks)
    for cls in _policy_classes(Policy):
        _wrap_method(tracer, cls, "decide", "policy.decide", False)
    return tracer


def layer_metrics(tracer: Tracer, experiment_names: List[str]) -> Dict[str, float]:
    """Every per-layer metric this tracer can derive (zero where unused)."""
    metrics: Dict[str, float] = {}
    for layer in tracer.layers:
        metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        metrics[f"{layer}.busy_s"] = tracer.busy.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = tracer.self_time.get(layer, 0.0)
    by_target = tracer.busy_by_trace("experiments")
    for target in experiment_names:
        metrics[f"experiments.{target}.busy_s"] = by_target.get(target, 0.0)
    metrics["executor.wait_s"] = tracer.self_time.get("executor.run", 0.0)
    counts = tracer.counts
    gets = tracer.calls.get("cache.get", 0)
    metrics["cache.hit_ratio"] = counts["cache.hits"] / gets if gets else 0.0
    metrics["cache.put.bytes"] = counts["cache.put.bytes"]
    for name in ("engine.ticks", "engine.segments", "engine.model_evaluations", "engine.memo_hits"):
        metrics[name] = counts[name]
    segments = counts["engine.segments"]
    metrics["engine.memo_hit_ratio"] = counts["engine.memo_hits"] / segments if segments else 0.0
    metrics["fleet.idle_s"] = tracer.busy.get("fleet.serve", 0.0) - tracer.busy.get("fleet.poll", 0.0)
    polls = tracer.calls.get("fleet.poll", 0)
    metrics["fleet.jobs_per_poll"] = counts["fleet.jobs_completed"] / polls if polls else 0.0
    metrics["fleet.queue.entries_read"] = counts["fleet.queue.entries_read"]
    return metrics
