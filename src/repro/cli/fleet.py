"""``serve``, ``submit`` and ``fleet ...``: the sweep service (:mod:`repro.fleet`).

``submit CAMPAIGN`` enqueues a campaign's jobs into a durable fleet
directory, ``serve`` runs the batched worker loop over it on a fixed pool of
``--workers`` processes, and ``fleet status|verify|doctor`` inspect the
directory, check fleet results bit-identical against a serial re-run, and
audit and repair it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from typing import Any

from repro import fleet, obs
from repro.cli import common
from repro.obs import Console
from repro.runtime.campaign import CAMPAIGNS, Campaign, resolve_campaign

#: ``serve``'s :class:`FleetConfig` flags in ``--help`` order, as field ->
#: (type, metavar, help).  Each default is the field's own; the parsed values
#: go back into the config by field name.
SERVE_SETTINGS = {
    "workers": (int, "N", "worker processes (default %(default)g)"),
    "batch_size": (int, "N", (
        "jobs packed per pool submission (default: auto-sized from the "
        "batch and worker count)"
    )),
    "poll_interval": (float, "S", (
        "seconds between queue polls when idle (default %(default)g)"
    )),
    "lease_timeout": (float, "S", (
        "seconds before an unfinished lease is reclaimed (default %(default)g)"
    )),
    "lease_limit": (int, "N", "jobs leased per poll (default %(default)g)"),
    "max_attempts": (int, "N", (
        "attempts before a job is quarantined (default %(default)g)"
    )),
    "drain": (bool, None, "exit once the queue is empty and all sweep reports are stored"),
    "drain_grace": (float, "S", (
        "with --drain: seconds to wait for work to first appear, to wait with "
        "the queue empty on a pending sweep whose jobs are lost before exiting "
        "blocked, or to retry polls that all fail (default %(default)g)"
    )),
    "idle_timeout": (float, "S", (
        "without --drain: exit after S idle seconds, or S seconds of polls that "
        "all fail (default: run forever)"
    )),
}


#: ``serve`` exit reasons that end the command with status 1: the loop gave
#: up with sweeps still pending (``blocked``) or with every poll failing
#: (``poll-errors``).
SERVE_FAILED_EXITS = ("blocked", "poll-errors")


def _campaign(args: argparse.Namespace) -> Campaign:
    """Resolve the ``CAMPAIGN`` argument of submit/verify, with smoke caps."""
    if args.max_time is not None and args.max_time <= 0:
        raise common.CliError(f"--max-time must be positive, got {args.max_time}")
    try:
        return resolve_campaign(args.campaign, quick=args.quick, max_time=args.max_time)
    except KeyError as error:
        raise common.CliError(str(error.args[0])) from error


def _cmd_serve(args: argparse.Namespace, ui: Console) -> int:
    faults = None
    if args.faults:
        try:
            faults = fleet.FaultPlan.parse(args.faults)
        except ValueError as error:
            raise common.CliError(f"invalid --faults spec: {error}") from error
    try:
        config = fleet.FleetConfig(
            root=args.fleet_dir,
            faults=faults,
            **{name: getattr(args, name) for name in SERVE_SETTINGS},
        )
    except ValueError as error:
        raise common.CliError(f"invalid serve setting: {error}") from error
    sink = common.obs_setup(args)
    service = fleet.FleetService(config)
    ui.info(
        f"serving fleet at {config.root} "
        f"({config.workers} worker(s)"
        f"{', drain mode' if config.drain else ''})"
    )
    if faults is not None:
        ui.info(f"chaos faults active: {faults.describe()}")
    try:
        with obs.span("cli.serve", root=str(config.root)):
            summary = service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        ui.info("interrupted")  # serve_forever already closed the pool
        summary = {
            "exit": "interrupted",
            "rounds": service.rounds,
            "jobs_run": service.jobs_run,
        }
    if args.json:
        common.print_json(ui, summary)
    else:
        ui.out(
            f"serve: {summary['exit']} after {summary.get('jobs_run', 0)} "
            f"job(s) in {summary.get('rounds', 0)} round(s), "
            f"{summary.get('reports_finalized', 0)} report(s) finalized"
        )
    common.obs_teardown(args, sink, ui)
    return 1 if summary["exit"] in SERVE_FAILED_EXITS else 0


def _cmd_submit(args: argparse.Namespace, ui: Console) -> int:
    campaign = _campaign(args)
    try:
        summary = fleet.submit_campaign(args.fleet_dir, campaign, priority=args.priority)
    except ValueError as error:  # refused before anything was written
        raise common.CliError(f"invalid --priority: {error}") from error
    if args.json:
        common.print_json(ui, summary)
    elif summary["warm_start"]:
        ui.out(
            f"submit: {summary['campaign']} already reported "
            f"(spec {summary['spec_hash'][:12]}); nothing enqueued"
        )
    else:
        ui.out(
            f"submit: {summary['campaign']} -> {summary['enqueued']} "
            f"enqueued, {summary['deduped_store']} served from store, "
            f"{summary['deduped_queue']} already queued "
            f"(spec {summary['spec_hash'][:12]})"
        )
    return 0


def _cmd_fleet_status(args: argparse.Namespace, ui: Console) -> int:
    status = fleet.fleet_status(args.fleet_dir)
    if args.json:
        common.print_json(ui, status)
        return 0
    queue = status["queue"]
    ui.out(f"fleet: {status['root']}")
    corrupt_suffix = f", {queue['corrupt']} CORRUPT" if queue.get("corrupt") else ""
    ui.out(
        f"  queue: {queue['queued']} queued, {queue['leased']} leased"
        f"{corrupt_suffix}"
    )
    store = status["store"]
    ui.out(
        f"  store: {store['jobs']} job(s), {store['reports']} report(s), "
        f"{store['bytes'] / 1024:.1f} KiB"
    )
    quarantine = status.get("quarantine", {})
    if quarantine.get("jobs") or quarantine.get("corrupt"):
        ui.out(
            f"  quarantine: {quarantine.get('jobs', 0)} job(s), "
            f"{quarantine.get('corrupt', 0)} corrupt file(s)"
        )
    for entry in status["campaigns"]:
        state = "reported" if entry["reported"] else (
            f"{entry['landed']}/{entry['jobs']} landed"
        )
        ui.out(f"  campaign {entry['campaign']}: {state}")
    service = status.get("service")
    if service is not None and "health" in service:
        health = service["health"]
        if service.get("state") == "stopped":
            ui.out(
                f"  service: stopped ({service.get('exit')}, "
                f"pid {service.get('pid')})"
            )
        elif health["stale"]:
            reason = (
                "pid not running" if not health["alive"]
                else f"heartbeat {health['age_seconds']:.0f}s old"
            )
            ui.out(f"  service: STALE ({reason}, pid {service.get('pid')})")
        else:
            ui.out(
                f"  service: alive (pid {service.get('pid')}, "
                f"{service.get('workers')} worker(s))"
            )
    if status["unreadable_manifests"]:
        ui.out(
            f"  unreadable manifest(s): {len(status['unreadable_manifests'])} "
            "(never pending; see fleet doctor)"
        )
    ui.out(f"  drained: {'yes' if status['drained'] else 'no'}")
    return 0


def _cmd_fleet_verify(args: argparse.Namespace, ui: Console) -> int:
    verdict = fleet.verify_campaign(args.fleet_dir, _campaign(args))
    if args.json:
        common.print_json(ui, verdict)
    else:
        ui.out(
            f"verify {verdict['campaign']}: "
            f"{'bit-identical to serial' if verdict['ok'] else 'MISMATCH'} "
            f"({verdict['jobs']} job(s), {len(verdict['missing'])} missing, "
            f"{len(verdict['mismatched'])} mismatched, report "
            f"{'ok' if verdict['report_ok'] else 'missing/stale'})"
        )
    return 0 if verdict["ok"] else 1


def _cmd_fleet_doctor(args: argparse.Namespace, ui: Console) -> int:
    report = fleet.run_doctor(args.fleet_dir, fix=args.fix)
    if args.json:
        common.print_json(ui, report.to_dict())
        return 0 if report.ok else 1
    ui.out(f"doctor: {report.root}")
    if not report.findings:
        ui.out("  no findings; directory is consistent")
    for finding in report.findings:
        tag = finding.severity.upper()
        fixed = " [fixed]" if finding.fixed else ""
        ui.out(f"  {tag} {finding.code} {finding.subject}: "
               f"{finding.message}{fixed}")
    verdict = "healthy" if report.ok else "UNHEALTHY"
    ui.out(
        f"  verdict: {verdict} ({len(report.findings)} finding(s), "
        f"{report.fixed_count} fixed)"
    )
    return 0 if report.ok else 1


def _add_fleet_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fleet-dir",
        default=os.environ.get("REPRO_FLEET_DIR", ".repro-fleet"),
        metavar="DIR",
        help=(
            "fleet directory holding the queue, store, and campaign "
            "manifests (default .repro-fleet, or $REPRO_FLEET_DIR)"
        ),
    )


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "campaign", metavar="CAMPAIGN",
        help=f"campaign name ({', '.join(sorted(CAMPAIGNS))})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload set for fast runs",
    )
    parser.add_argument(
        "--max-time", type=float, default=None, metavar="S",
        help="cap simulated seconds per job (smoke-test scaling)",
    )


def register(subparsers: Any) -> None:
    """Add ``serve``, ``submit`` and ``fleet status|verify|doctor``."""
    serve = common.add_command(
        subparsers, "serve", _cmd_serve,
        help="run the sweep service over a fleet directory",
        description=(
            "Poll the fleet queue, execute leased jobs through a batched "
            "pool of --workers processes into the sharded store, and "
            "finalize sweep reports."
        ),
    )
    _add_fleet_dir(serve)
    defaults = {f.name: f.default for f in dataclasses.fields(fleet.FleetConfig)}
    for name, (kind, metavar, help_text) in SERVE_SETTINGS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            serve.add_argument(flag, action="store_true", help=help_text)
        else:
            serve.add_argument(
                flag, type=kind, default=defaults[name], metavar=metavar, help=help_text
            )
    serve.add_argument(
        "--faults",
        default=os.environ.get("REPRO_FLEET_FAULTS"),
        metavar="SPEC",
        help=(
            "seeded chaos plan for fault-injection runs, e.g. "
            "'seed=42;torn@queue.write=0.1;crash@job=0.2;hang@job=0.1:0.05' "
            "(default: $REPRO_FLEET_FAULTS; unset = no faults)"
        ),
    )
    common.add_json_flag(serve, "emit the exit summary as JSON")
    common.add_obs_flags(serve)

    submit = common.add_command(
        subparsers, "submit", _cmd_submit,
        help="submit a campaign's jobs to the fleet queue",
        description=(
            "Resolve a named campaign, write its sweep manifest, and enqueue "
            "its jobs -- deduplicated against the queue and the result store. "
            "An already-reported sweep is a warm start: nothing is enqueued."
        ),
    )
    _add_fleet_dir(submit)
    _add_campaign_args(submit)
    submit.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="queue priority, a 32-bit integer (higher dispatches sooner; default 0)",
    )
    common.add_json_flag(submit, "emit the submission summary as JSON")

    fleet_group = subparsers.add_parser(
        "fleet", help="inspect or verify a fleet directory"
    )
    fleet_sub = fleet_group.add_subparsers(dest="fleet_command", required=True)
    status = common.add_command(
        fleet_sub, "status", _cmd_fleet_status,
        help="queue counts, store stats, and campaign completion",
    )
    _add_fleet_dir(status)
    common.add_json_flag(status, "emit the status as JSON")
    verify = common.add_command(
        fleet_sub, "verify", _cmd_fleet_verify,
        help="check fleet results for a campaign against a serial re-run",
    )
    _add_fleet_dir(verify)
    _add_campaign_args(verify)
    common.add_json_flag(verify, "emit the verdict as JSON")
    doctor = common.add_command(
        fleet_sub, "doctor", _cmd_fleet_doctor,
        help="audit queue/store/heartbeat consistency (exit 1 when unhealthy)",
        description=(
            "Cross-check the fleet directory for duplicate and corrupt queue "
            "entries, queued or leased entries whose result is already "
            "stored, expired leases, stale heartbeats, stray temp files, "
            "unreadable campaign manifests, and lost manifest jobs.  --fix "
            "applies every repair that cannot lose information (remove "
            "shadowed duplicates, drop corrupt entries whose result reads "
            "back and quarantine the rest, quarantine unreadable manifests, "
            "complete already-stored entries, sweep stray temp files).  "
            "Expired leases are left to serve, which knows --max-attempts "
            "and recovers them in its next poll."
        ),
    )
    _add_fleet_dir(doctor)
    doctor.add_argument(
        "--fix", action="store_true", help="apply safe repairs while auditing"
    )
    common.add_json_flag(doctor, "emit the findings as JSON")
