"""The benchmark's four workloads, each one timed pass inside a fresh interpreter.

Every workload is a closed batch: one caller submits a fixed set of jobs and
waits for all of them.  Each pass function returns the host time of its timed
phase, the work it completed, and a digest per output so the orchestrator can
compare them with the pinned digests.  Host time is the only noisy quantity:
the model is deterministic, so every output and every count repeats exactly.

Callable layer entry points (``execute_job_with_stats``, ``submit_campaign``)
are looked up on their modules at call time, so a traced pass goes through
the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

WORKLOADS = ("repro-cold", "repro-warm", "fleet-drain", "engine-long")

#: Workloads whose inputs are fixed by the paper's experiment definitions.
SEED_IGNORED = ("repro-cold", "repro-warm")

#: Sizes: ``full`` is the benchmark; ``tiny`` exists for the harness smoke test.
REPRO_SIZES: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    "full": ((), False),  # () = every registered experiment, in registry order
    "tiny": (("table1", "fig4", "fig7"), True),
}
FLEET_CAMPAIGNS = ("spec-tdp", "evaluation", "dram-device", "scenarios", "hw-variants")
FLEET_SIZES: Dict[str, Tuple[Tuple[str, ...], bool, Any]] = {
    "full": (FLEET_CAMPAIGNS, False, None),
    "tiny": (("scenarios", "hw-variants"), True, 0.05),
}
#: In-process fleet service pool size.  With one worker the service runs
#: its jobs inline, so a pass is one busy process; with two, the service and
#: two pool children share the benchmark box's 2 cores and the drain time
#: measures the host's scheduler as much as the fleet.
FLEET_WORKERS = 1
ENGINE_POLICIES = ("baseline", "sysscale", "md_dvfs")
MARKOV_MODELS = ("mobile_day", "office", "thrash_cycle")
#: (battery-life cycles, Markov-walk seconds) per size.
ENGINE_SIZES = {"full": (30, 30.0), "tiny": (2, 2.0)}
#: ``--seed`` picks one of this many pinned Markov-walk seeds.
MARKOV_SEED_FAMILY = 16
MARKOV_SEED_BASE = 7000


def digest(data: Any) -> str:
    """SHA-256 of canonical JSON, independent of ``repro.hashing``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_ticks(job: Any, payload: Dict[str, Any]) -> int:
    """Simulated ticks behind a simulation payload (transitions excluded)."""
    busy = payload["execution_time"] - payload["transition_time"]
    return round(busy / job.sim.tick)


def markov_walk_seed(seed: int) -> int:
    return MARKOV_SEED_BASE + seed % MARKOV_SEED_FAMILY


def repro_pass(size: str, cache_dir: Path, warm: bool) -> Dict[str, Any]:
    """The paper reproduction: every registered experiment, serially, cached."""
    from repro.experiments import ExperimentRuntime, build_context, registry
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import SerialExecutor

    targets, quick = REPRO_SIZES[size]
    specs = registry()
    targets = targets or tuple(specs)
    runtime = ExperimentRuntime(executor=SerialExecutor(), cache=ResultCache(cache_dir))
    started = time.perf_counter()
    context = build_context(runtime=runtime)
    reports = [specs[target].run(context, quick=quick) for target in targets]
    wall = time.perf_counter() - started

    problems: List[str] = []
    if warm and (runtime.executed != 0 or ", 0 simulated" not in runtime.summary()):
        problems.append(f"warm pass simulated jobs: {runtime.summary()}")
    return {
        "wall_s": wall,
        "jobs": runtime.unique,
        "attempted": runtime.unique,
        "failed": 0,
        "ticks": int(runtime.metrics.counter("runtime.engine_ticks").value),
        "outputs": {report.experiment: digest(report.results_dict()) for report in reports},
        "problems": problems,
        "counts": {
            "submitted": runtime.submitted,
            "unique": runtime.unique,
            "simulated": runtime.executed,
            "cache_hits": runtime.cache_hits,
            "experiments": len(reports),
        },
    }


def fleet_pass(size: str, seed: int, work_dir: Path) -> Dict[str, Any]:
    """Submit the catalog campaigns to a fresh fleet directory and drain it."""
    from repro import fleet

    names, quick, max_time = FLEET_SIZES[size]
    names = list(names)
    random.Random(seed).shuffle(names)
    campaigns = [fleet.resolve_campaign(name, quick=quick, max_time=max_time) for name in names]
    root = work_dir / "fleet"
    started = time.perf_counter()
    for campaign in campaigns:
        fleet.submit_campaign(root, campaign)
    service = fleet.FleetService(
        fleet.FleetConfig(root=root, workers=FLEET_WORKERS, drain=True, autoscale=False)
    )
    summary = service.serve_forever()
    wall = time.perf_counter() - started

    unique = {job.content_hash: job for campaign in campaigns for job in campaign.jobs}
    outputs: Dict[str, str] = {}
    problems: List[str] = []
    for campaign in campaigns:
        report = service.store.get_report(fleet.sweep_spec_hash(campaign))
        if report is None:
            problems.append(f"no sweep report stored for {campaign.name}")
        else:
            outputs[campaign.name] = digest(report)
    ticks = 0
    for job_hash, job in unique.items():
        payload = service.store.job_payload(job_hash)
        if payload is None:
            problems.append(f"no stored result for job {job.label}")
        else:
            ticks += payload_ticks(job, payload)
    if not summary["drained"]:
        problems.append(f"fleet did not drain: {summary}")
    failed = summary["jobs_failed"] + summary["jobs_quarantined"]
    return {
        "wall_s": wall,
        "jobs": summary["jobs_run"],
        "attempted": len(unique),
        "failed": min(failed, len(unique)),
        "ticks": ticks,
        "outputs": outputs,
        "problems": problems,
        "counts": {
            "submitted": sum(len(campaign) for campaign in campaigns),
            "unique": len(unique),
            "simulated": summary["jobs_run"],
            "polls": summary["rounds"],
            "campaign_order": names,
        },
    }


def engine_jobs(size: str, seed: int) -> List[Any]:
    """Long battery-life traces and seeded Markov walks under three policies."""
    from repro.runtime.jobs import PolicySpec, SimulationJob, TraceSpec
    from repro.workloads.batterylife import BATTERY_LIFE_WORKLOADS

    cycles, walk_seconds = ENGINE_SIZES[size]
    traces = [
        (TraceSpec.make("battery_life", name=name, cycles=cycles), "single_hd")
        for name in sorted(BATTERY_LIFE_WORKLOADS)
    ]
    traces += [
        (
            TraceSpec.make(
                "scenario",
                name=f"markov-{model}",
                generator="markov",
                seed=markov_walk_seed(seed),
                model=model,
                duration=walk_seconds,
            ),
            None,
        )
        for model in MARKOV_MODELS
    ]
    return [
        SimulationJob(trace=trace, policy=PolicySpec.make(policy), peripherals=peripherals)
        for trace, peripherals in traces
        for policy in ENGINE_POLICIES
    ]


def engine_pass(size: str, seed: int) -> Dict[str, Any]:
    """Uncached simulations run serially in-process: engine and model only."""
    from repro.runtime import jobs as jobs_module

    jobs = engine_jobs(size, seed)
    started = time.perf_counter()
    results = [jobs_module.execute_job_with_stats(job) for job in jobs]
    wall = time.perf_counter() - started

    problems: List[str] = []
    ticks = 0
    for job, (payload, stats) in zip(jobs, results):
        ticks += stats.ticks
        if payload_ticks(job, payload) != stats.ticks:
            problems.append(f"payload ticks disagree with engine stats for {job.label}")
    return {
        "wall_s": wall,
        "jobs": len(jobs),
        "attempted": len(jobs),
        "failed": 0,
        "ticks": ticks,
        "outputs": {
            f"{job.label}#{job.content_hash[:12]}": digest(payload)
            for job, (payload, _) in zip(jobs, results)
        },
        "problems": problems,
        "counts": {
            "simulated": len(jobs),
            "markov_walk_seed": markov_walk_seed(seed),
        },
    }


def run_pass(workload: str, size: str, seed: int, work_dir: Path, cache_dir: Path) -> Dict[str, Any]:
    if workload == "repro-cold":
        return repro_pass(size, cache_dir, warm=False)
    if workload == "repro-warm":
        return repro_pass(size, cache_dir, warm=True)
    if workload == "fleet-drain":
        return fleet_pass(size, seed, work_dir)
    if workload == "engine-long":
        return engine_pass(size, seed)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
