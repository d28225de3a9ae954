"""``list``, ``run`` and ``cache``: the experiment targets and their result store.

``run`` sends registered experiments and named sweep campaigns through one
:class:`repro.api.Session`.  Its dispatch, per-target help text, and
ignored-flag warnings are generated from the :mod:`repro.experiments.api`
registry -- there is no hand-maintained target table.  Every target yields an
:class:`~repro.experiments.report.ExperimentReport`: ``--json`` emits its exact
``from_dict`` round-trip document on stdout (decorations move to stderr, so
``python -m repro run fig7 --json | jq .`` works), ``--csv`` the
block-per-section CSV export.  Every ``run`` ends with the runtime summary
line, e.g. ``runtime: 58 job(s) submitted, 58 unique, 0 simulated, 58 cache
hit(s)``, so a warm-cache rerun is verifiable at a glance (``0 simulated``).
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Any, Dict, List, Optional

from repro import config, obs
from repro.api import Session
from repro.cli import common
from repro.cli.catalog import print_hardware_catalog
from repro.experiments.api import ExperimentSpec, registry
from repro.experiments.report import (
    ExperimentReport,
    Metric,
    Table,
    render_csv,
    render_json,
    render_text,
)
from repro.hw import DRAM_SPECS, HardwareSpec
from repro.obs import Console
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.campaign import CAMPAIGNS, resolve_campaign
from repro.runtime.executor import ProgressUpdate
from repro.runtime.jobs import POLICY_BUILDERS, TRACE_BUILDERS, SimulationJob
from repro.scenarios.generators import GENERATORS
from repro.scenarios.registry import SCENARIOS


class _ProgressPrinter:
    """Prints at most ~10 evenly spaced progress lines per batch."""

    def __init__(self, console: Console) -> None:
        self._last_decile = -1
        self._console = console

    def __call__(self, update: ProgressUpdate) -> None:
        if update.total <= 0:
            return
        decile = (10 * update.completed) // update.total
        if update.completed == update.total or decile > self._last_decile:
            self._last_decile = decile if update.completed < update.total else -1
            source = "cache" if update.from_cache else "simulated"
            self._console.info(
                f"    [{update.completed}/{update.total}] {update.label} ({source})"
            )


def _cmd_list(args: argparse.Namespace, ui: Console) -> int:
    ui.out("experiments:")
    for name, spec in registry().items():
        ui.out(f"  {name:12s} {spec.title}")
        if spec.description:
            ui.out(f"  {'':12s}   {spec.description}")
    ui.out("campaigns:")
    for name, factory in CAMPAIGNS.items():
        campaign = factory(True)
        ui.out(f"  {name:12s} {campaign.description} ({len(factory(False))} jobs full)")
    ui.out("trace builders (TraceSpec.make(<builder>, ...)):")
    for name in sorted(TRACE_BUILDERS):
        ui.out(f"  {name}")
    ui.out("policies (PolicySpec.make(<builder>, ...)):")
    for name in sorted(POLICY_BUILDERS):
        ui.out(f"  {name}")
    ui.out("platforms (repro.hw registry; run --platform NAME --set key=value):")
    print_hardware_catalog(ui)
    ui.out(f"  dram: {', '.join(sorted(DRAM_SPECS))}")
    ui.out(
        f"  tdp: default {config.SKYLAKE_DEFAULT_TDP:g} W "
        f"(evaluated range {config.SKYLAKE_TDP_RANGE[0]:g}-"
        f"{config.SKYLAKE_TDP_RANGE[1]:g} W)"
    )
    ui.out(
        f"scenarios: {len(SCENARIOS)} in catalog across {len(GENERATORS)} "
        "generators (python -m repro scenarios list)"
    )
    return 0


def _run_experiment(
    session: Session,
    spec: ExperimentSpec,
    args: argparse.Namespace,
    params: Dict[str, Any],
    ui: Console,
) -> ExperimentReport:
    """One registry target, with ignored-flag warnings derived from the spec."""
    changed = {
        "--tdp": args.tdp is not None,
        "--duration": args.duration != 1.0,
    }
    ignored = [flag for flag in spec.ignored_flags if changed.get(flag)]
    if ignored:
        ui.warning(f"note: {'/'.join(ignored)} do(es) not apply to {spec.name!r}")
    accepted = {key: value for key, value in params.items() if key in spec.params}
    dropped = sorted(set(params) - set(accepted))
    if dropped:
        known = ", ".join(spec.params) if spec.params else "none"
        ui.warning(
            f"note: --param {'/'.join(dropped)} do(es) not apply to "
            f"{spec.name!r} (accepted: {known})"
        )
    if not accepted:
        return session.run(spec.name, quick=args.quick)
    try:
        return session.run(spec.name, quick=args.quick, **accepted)
    except (KeyError, TypeError, ValueError) as error:
        # Only --param invocations reach here: a bad value (unknown hardware
        # name, too few variants, wrong shape) is user input, not a crash.
        raise common.CliError(
            f"invalid --param value for {spec.name!r}: {error}"
        ) from error


def _run_campaign(
    session: Session,
    target: str,
    args: argparse.Namespace,
    hardware: Optional[HardwareSpec],
    ui: Console,
) -> ExperimentReport:
    """One named campaign, wrapped into the same report type as experiments."""
    # Campaign jobs carry their own platform and trace specs; of the context
    # flags only --max-time and --platform/--set are folded in, so say so
    # rather than silently presenting default-platform numbers.
    if args.tdp is not None or args.duration != 1.0:
        ui.warning(
            f"note: --tdp/--duration do not apply to campaign {target!r} "
            "(its jobs define their own platforms and trace durations; "
            "use --platform/--set for the hardware)"
        )
    # ``hardware`` stays None without --platform/--set: ``hw-variants``
    # replaces its whole variant axis when it is given a platform.
    campaign = resolve_campaign(
        target, quick=args.quick, max_time=args.max_time, hardware=hardware
    )
    runtime = session.runtime
    before = runtime.accounting()
    with obs.span("campaign.run", campaign=target, jobs=len(campaign.jobs)):
        report = runtime.run_jobs(campaign.jobs)
    rows = []
    for outcome in report.outcomes:
        assert isinstance(outcome.job, SimulationJob)
        rows.append(outcome.result.as_dict())
    return ExperimentReport(
        experiment=target,
        title=campaign.description,
        params={"quick": args.quick, "max_time": args.max_time},
        blocks=(
            Metric("jobs", len(campaign.jobs)),
            Table.from_records(
                "rows",
                rows,
                units={
                    "time_s": "s",
                    "average_power_w": "W",
                    "energy_j": "J",
                    "edp_js": "J*s",
                    "low_point_residency": "fraction",
                    "average_cpu_frequency_ghz": "GHz",
                    "average_gfx_frequency_mhz": "MHz",
                    "average_dram_frequency_ghz": "GHz",
                },
            ),
        ),
        run=runtime.accounting().since(before),
    )


def _write_report_file(
    name: str,
    report: ExperimentReport,
    args: argparse.Namespace,
    counts: Dict[str, int],
    ui: Console,
) -> None:
    """Write one report under ``--out`` as soon as its target completes, so a
    failure in a later target never discards finished work.

    ``counts`` tracks repeated targets: the second ``fig7`` in one invocation
    lands in ``fig7.2.json`` instead of clobbering the first.
    """
    extension = "csv" if args.csv else "json"
    out = args.out
    if len(args.targets) > 1 or os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
        counts[name] = counts.get(name, 0) + 1
        suffix = f".{counts[name]}" if counts[name] > 1 else ""
        path = os.path.join(out, f"{name}{suffix}.{extension}")
    else:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        path = out
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_csv(report) if args.csv else render_json(report) + "\n")
    ui.info(f"wrote {path}")


def _cmd_run(args: argparse.Namespace, ui: Console) -> int:
    specs = registry()
    unknown = [t for t in args.targets if t not in specs and t not in CAMPAIGNS]
    if unknown:
        raise common.CliError(
            f"unknown target(s): {', '.join(unknown)}; "
            f"known: {', '.join(list(specs) + list(CAMPAIGNS))}"
        )
    if args.json and args.csv:
        raise common.CliError("--json and --csv are mutually exclusive")
    hardware = common.hardware_from_flags(args.platform, args.set)
    params = common.parse_assignments(args.param, "--param")
    # A parameter no requested target accepts is a typo, not a no-op.
    accepted_anywhere = {
        name
        for target in args.targets
        if target in specs
        for name in specs[target].params
    }
    bogus = sorted(set(params) - accepted_anywhere)
    if bogus:
        known = ", ".join(sorted(accepted_anywhere)) or "none for these targets"
        raise common.CliError(
            f"unknown experiment parameter(s): {', '.join(bogus)}; "
            f"accepted: {known}"
        )
    if args.jobs < 1:
        raise common.CliError(f"--jobs must be at least 1, got {args.jobs}")
    for flag, value in (
        ("--duration", args.duration),
        ("--max-time", args.max_time),
        ("--tdp", args.tdp),
    ):
        if value is not None and value <= 0:
            raise common.CliError(f"{flag} must be positive, got {value}")

    if (
        args.out is not None
        and len(args.targets) > 1
        and os.path.exists(args.out)
        and not os.path.isdir(args.out)
    ):
        raise common.CliError(
            f"--out {args.out!r} must be a directory when running several "
            "targets (one file per target is written into it)"
        )

    sink = common.obs_setup(args)
    session = Session(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        platform=hardware,
        tdp=args.tdp,
        duration=args.duration,
        max_time=args.max_time,
        # Progress lines target the human; the console keeps them off a
        # machine-readable stdout.
        progress=_ProgressPrinter(ui) if args.progress else None,
    )

    reports: List[ExperimentReport] = []
    written: Dict[str, int] = {}
    try:
        with obs.span("cli.run", targets=len(args.targets)):
            for target in args.targets:
                ui.info(f"== {target} ==")
                started = time.perf_counter()
                if target in specs:
                    report = _run_experiment(session, specs[target], args, params, ui)
                else:
                    report = _run_campaign(session, target, args, hardware, ui)
                elapsed = time.perf_counter() - started
                reports.append(report)
                if args.out is not None:
                    _write_report_file(target, report, args, written, ui)
                elif not common.exporting(args):
                    ui.out(render_text(report))
                ui.info(f"  elapsed: {elapsed:.2f}s")
    finally:
        # One pool serves every target; release its workers deterministically.
        session.close()

    if common.exporting(args) and args.out is None:
        # In run order, so a target requested twice exports twice; several
        # JSON reports batch into one array so stdout stays one document.
        if args.csv:
            ui.write("\n".join(render_csv(report) for report in reports))
        else:
            documents = [report.to_dict() for report in reports]
            common.print_json(ui, documents[0] if len(documents) == 1 else documents)

    ui.info(f"runtime: {session.summary()}")
    cache: Optional[ResultCache] = session.runtime.cache
    if cache is not None:
        ui.info(f"cache: {cache.root} ({len(cache)} entries)")
    common.obs_teardown(args, sink, ui)
    return 0


def _cmd_cache(args: argparse.Namespace, ui: Console) -> int:
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        ui.out(f"removed {removed} entries from {cache.root}")
        return 0
    ui.out(f"cache: {cache.root}")
    ui.out(f"  entries: {len(cache)}")
    ui.out(f"  size: {cache.size_bytes() / 1024:.1f} KiB")
    return 0


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=default_cache_dir(), metavar="DIR",
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )


def _run_epilog() -> str:
    """Per-target help text, generated from the experiment registry."""
    lines = ["targets (from the experiment registry):"]
    for name, spec in registry().items():
        lines.append(f"  {name:12s} {spec.help_text}")
    lines.append("campaigns:")
    for name, factory in CAMPAIGNS.items():
        lines.append(f"  {name:12s} {factory(True).description}")
    return "\n".join(lines)


#: Stands in for ``run``'s epilog until its help is printed.
_RUN_EPILOG = object()


class _RunHelpFormatter(argparse.RawDescriptionHelpFormatter):
    """Builds the epilog only when ``run --help`` prints it: that builds every
    quick campaign, which no other command should pay for."""

    def add_text(self, text: Any) -> None:
        super().add_text(_run_epilog() if text is _RUN_EPILOG else text)


def register(subparsers: Any) -> None:
    """Add ``list`` and ``run``."""
    common.add_command(subparsers, "list", _cmd_list, help="list runnable targets")
    run = common.add_command(
        subparsers, "run", _cmd_run,
        help="run experiment/campaign targets",
        epilog=_RUN_EPILOG,
        formatter_class=_RunHelpFormatter,
    )
    run.add_argument(
        "targets", nargs="+", metavar="TARGET", help="figure, table, or campaign name"
    )
    run.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial in-process execution)",
    )
    _add_cache_dir(run)
    run.add_argument(
        "--no-cache", action="store_true", help="disable the result cache entirely"
    )
    run.add_argument(
        "--progress", action="store_true", help="print per-job progress lines"
    )
    common.add_obs_flags(run)
    run.add_argument(
        "--quick", action="store_true", help="reduced workload sets for fast runs"
    )
    run.add_argument(
        "--duration", type=float, default=1.0, metavar="S",
        help="workload trace duration in seconds (default 1.0)",
    )
    run.add_argument(
        "--max-time", type=float, default=None, metavar="S",
        help="cap simulated time per run (engine max_simulated_time)",
    )
    run.add_argument(
        "--tdp", type=float, default=None, metavar="W",
        help=(
            "package TDP in watts (a derivation over the selected platform; "
            f"default {config.SKYLAKE_DEFAULT_TDP:g})"
        ),
    )
    run.add_argument(
        "--platform", default=None, metavar="NAME",
        help="hardware description to simulate (see `hw list`; default: skylake)",
    )
    run.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help=(
            "hardware derivation override (repeatable): a HardwareSpec field "
            "(tdp=5.5, dram=ddr4) or <field>_scale multiplier "
            "(uncore_leakage_coeff_scale=1.08)"
        ),
    )
    run.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help=(
            "experiment parameter override (repeatable), validated against "
            "each target's registered params (see run --help epilog)"
        ),
    )
    common.add_json_flag(run, "emit the ExperimentReport document(s) as JSON on stdout")
    run.add_argument(
        "--csv", action="store_true",
        help="emit the CSV export (one section per report block) on stdout",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help=(
            "write the export to PATH instead of stdout (a directory when "
            "running several targets); implies --json unless --csv is given"
        ),
    )


def register_cache(subparsers: Any) -> None:
    """Add ``cache`` (registered after ``lint``, where ``repro --help`` lists it)."""
    cache = common.add_command(
        subparsers, "cache", _cmd_cache, help="inspect or clear the cache"
    )
    _add_cache_dir(cache)
    cache.add_argument(
        "--clear", action="store_true", help="delete every cache entry"
    )
