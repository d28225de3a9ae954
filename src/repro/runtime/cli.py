"""The ``python -m repro`` command line.

Subcommands:

* ``list`` -- every runnable target (the registered experiments plus the named
  sweep campaigns) and every registered building block: trace builders,
  policies, hardware platforms, DRAM devices, and the scenario catalog;
* ``run TARGET [TARGET ...]`` -- run targets through the runtime, with
  ``--jobs N`` (process parallelism), ``--cache-dir``/``--no-cache`` (the
  content-addressed result store), ``--quick`` (reduced workload sets),
  ``--duration``/``--max-time`` (trace/engine scaling for smoke runs),
  ``--platform NAME``/``--set key=value`` (the hardware description to
  simulate, from the ``repro.hw`` registry plus derivation deltas),
  ``--param key=value`` (per-experiment parameters, validated against each
  target's ``ExperimentSpec.params``), and ``--json``/``--csv``/``--out``
  (structured report export);
* ``hw`` -- the hardware catalog: ``list`` it, ``describe`` one platform, or
  print content ``hash``es;
* ``scenarios`` -- the synthesized-workload catalog: ``list`` it or
  ``describe`` one spec (``run scenarios`` sweeps it through the runtime);
* ``cache`` -- inspect or clear the result store;
* ``serve`` / ``submit`` / ``fleet`` -- the sweep service
  (:mod:`repro.fleet`): ``submit CAMPAIGN`` enqueues a campaign's jobs into a
  durable fleet directory, ``serve`` runs the batched worker loop over it
  on a fixed pool of ``--workers`` processes, and ``fleet
  status|verify|doctor|gc`` inspect the directory, check fleet results
  bit-identical against a serial re-run, audit and repair it, and compact
  finished queue entries;
* ``trace`` -- inspect recorded telemetry, each parsed through one
  :class:`~repro.obs.analysis.TraceModel`: ``describe`` summarizes a JSONL
  trace file (event counts, span timings, engine segment statistics,
  operating-point and phase residencies), ``diff A B`` attributes simulated
  time per (workload, policy, phase, operating point) bucket and reports what
  moved between two traces, and ``export PATH --chrome OUT`` converts a trace
  to Chrome/Perfetto ``trace_event`` JSON for a real trace viewer.

``run`` and ``serve`` share the telemetry flags: ``--log-level`` filters
decorative output, ``--trace-out PATH`` records every ``repro.obs`` event
(spans, logs, engine segments) to a JSON-lines file, and ``--profile`` prints
the metrics-registry summary when the command finishes.  Telemetry never
changes results: job hashes, cache entries, and simulation outputs are
bit-identical with or without it.

All user-facing text goes through :class:`repro.obs.logging.Console`, which
enforces the output discipline: the experiment dispatch, per-target help text,
and ignored-flag warnings are all generated from the
:mod:`repro.experiments.api` registry -- there is no hand-maintained target
table.  Every experiment returns a structured
:class:`~repro.experiments.report.ExperimentReport`; ``--json`` emits the exact
``ExperimentReport.from_dict`` round-trip document on stdout (decorative output
moves to stderr, so ``python -m repro run fig7 --json | jq .`` works), and
``--csv`` emits the block-per-section CSV export.

Every ``run`` invocation ends with the runtime summary line, e.g.::

    runtime: 58 job(s) submitted, 58 unique, 0 simulated, 58 cache hit(s)

so a warm-cache rerun is verifiable at a glance (``0 simulated``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro import config, obs
from repro.experiments import build_context
from repro.experiments.api import ExperimentSpec, registry
from repro.experiments.report import (
    ExperimentReport,
    Metric,
    Table,
    render_csv,
    render_json,
    render_text,
)
from repro.experiments.runner import ExperimentContext, ExperimentRuntime
from repro.hw import DRAM_SPECS, HARDWARE, HardwareSpec, get_hardware
from repro.obs import Console, JsonlSink, render_metrics_text
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.campaign import CAMPAIGNS
from repro.runtime.executor import ProgressUpdate, make_executor
from repro.runtime.jobs import POLICY_BUILDERS, TRACE_BUILDERS, SimSpec, SimulationJob
from repro.sim.engine import SimulationConfig


def _available_targets() -> List[str]:
    return list(registry()) + list(CAMPAIGNS)


class _CliError(Exception):
    """A user-input error: print the message to stderr and exit 2."""


def _parse_assignments(pairs: Optional[List[str]], flag: str) -> Dict[str, Any]:
    """Parse repeated ``key=value`` flag values into a keyword dictionary.

    Values are decoded as JSON where possible (``tdp=5.5`` -> float,
    ``subset='["470.lbm"]'`` -> list) and fall back to plain strings
    (``dram=ddr4``), so one syntax covers numbers, flags, and names.
    """
    assignments: Dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise _CliError(f"{flag} expects key=value, got {pair!r}")
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        assignments[key] = value
    return assignments


def _hardware_from_args(args: argparse.Namespace) -> Optional[HardwareSpec]:
    """The ``--platform``/``--set`` hardware description, or ``None`` if unset."""
    platform = getattr(args, "platform", None)
    overrides = _parse_assignments(getattr(args, "set", None), "--set")
    if platform is None and not overrides:
        return None
    try:
        hardware = get_hardware(platform or "skylake")
        if overrides:
            hardware = hardware.derive(**overrides)
    except (KeyError, TypeError, ValueError) as error:
        raise _CliError(f"invalid hardware description: {error}") from error
    return hardware


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


def _exporting(args: argparse.Namespace) -> bool:
    """True when stdout carries a machine-readable document."""
    return bool(
        getattr(args, "json", False)
        or getattr(args, "csv", False)
        or getattr(args, "out", None)
    )


def _console_for(args: argparse.Namespace) -> Console:
    """A console whose decorations avoid a machine-readable stdout."""
    return Console(info_stream=sys.stderr if _exporting(args) else None)


def _obs_setup(args: argparse.Namespace) -> Optional[JsonlSink]:
    """Apply the telemetry flags to the ambient scope.

    Returns the ``--trace-out`` sink (``None`` without one) for
    ``_obs_teardown`` to close.  Telemetry stays disabled unless tracing or
    profiling was requested, keeping the default invocation on the no-op
    fast path.
    """
    obs.reset()
    if args.log_level:
        obs.set_level(args.log_level)
    if args.trace_out or args.profile:
        obs.enable(trace_segments=bool(args.trace_out))
    return obs.add_sink(JsonlSink(args.trace_out)) if args.trace_out else None


def _obs_teardown(
    args: argparse.Namespace, sink: Optional[JsonlSink], ui: Console
) -> None:
    """Render ``--profile``, close the sink, reset state."""
    if args.profile:
        ui.info(render_metrics_text(obs.snapshot(), title="profile"))
    if sink is not None:
        obs.remove_sink(sink)
        sink.close()
        ui.info(f"trace: wrote {sink.path}")
    obs.reset()


def _build_runtime(args: argparse.Namespace, ui: Console) -> ExperimentRuntime:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # Progress lines target the human; the console keeps them off a
    # machine-readable stdout.
    return ExperimentRuntime(
        executor=make_executor(args.jobs),
        cache=cache,
        progress=_ProgressPrinter(ui) if args.progress else None,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.scenarios.generators import GENERATORS
    from repro.scenarios.registry import SCENARIOS

    ui = Console()
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
    _print_hardware_catalog(ui)
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
    spec: ExperimentSpec,
    context: ExperimentContext,
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
        return spec.run(context, quick=args.quick)
    try:
        return spec.run(context, quick=args.quick, **accepted)
    except (KeyError, TypeError, ValueError) as error:
        # Only --param invocations reach here: a bad value (unknown hardware
        # name, too few variants, wrong shape) is user input, not a crash.
        raise _CliError(
            f"invalid --param value for {spec.name!r}: {error}"
        ) from error


def _run_campaign(
    target: str,
    runtime: ExperimentRuntime,
    args: argparse.Namespace,
    sim_config: Optional[SimulationConfig],
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
    campaign = CAMPAIGNS[target](args.quick, hardware=hardware)
    if sim_config is not None:
        campaign = campaign.with_sim(SimSpec.from_config(sim_config))
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


def _render_export(report: ExperimentReport, args: argparse.Namespace) -> str:
    return render_csv(report) if args.csv else render_json(report) + "\n"


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
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        path = out
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_render_export(report, args))
    ui.info(f"wrote {path}")


def _write_stdout_exports(
    reports: List[tuple], args: argparse.Namespace, ui: Console
) -> None:
    """Emit ``--json``/``--csv`` documents on stdout.

    ``reports`` is a list of ``(target, report)`` pairs in run order, so a
    target requested twice exports twice.  Several JSON targets batch into one
    array so stdout stays a single valid document.
    """
    if args.csv:
        ui.write("\n".join(render_csv(r) for _, r in reports))
    elif len(reports) == 1:
        ui.write(_render_export(reports[0][1], args))
    else:
        documents = [report.to_dict() for _, report in reports]
        ui.write(json.dumps(documents, indent=2) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    ui = _console_for(args)
    specs = registry()
    unknown = [t for t in args.targets if t not in specs and t not in CAMPAIGNS]
    if unknown:
        ui.error(
            f"unknown target(s): {', '.join(unknown)}; "
            f"known: {', '.join(_available_targets())}"
        )
        return 2
    if args.json and args.csv:
        ui.error("--json and --csv are mutually exclusive")
        return 2
    hardware = _hardware_from_args(args)
    params = _parse_assignments(args.param, "--param")
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
        ui.error(
            f"unknown experiment parameter(s): {', '.join(bogus)}; "
            f"accepted: {known}"
        )
        return 2
    for flag, value, minimum in (
        ("--jobs", args.jobs, 1),
        ("--duration", args.duration, None),
        ("--max-time", args.max_time, None),
        ("--tdp", args.tdp, None),
    ):
        if value is None:
            continue
        if (minimum is not None and value < minimum) or (minimum is None and value <= 0):
            bound = f"at least {minimum}" if minimum is not None else "positive"
            ui.error(f"{flag} must be {bound}, got {value}")
            return 2

    if (
        args.out is not None
        and len(args.targets) > 1
        and os.path.exists(args.out)
        and not os.path.isdir(args.out)
    ):
        ui.error(
            f"--out {args.out!r} must be a directory when running several "
            "targets (one file per target is written into it)"
        )
        return 2

    exporting = _exporting(args)
    sink = _obs_setup(args)
    runtime = _build_runtime(args, ui)
    sim_config = (
        SimulationConfig(max_simulated_time=args.max_time) if args.max_time else None
    )
    context = build_context(
        tdp=args.tdp,
        workload_duration=args.duration,
        sim_config=sim_config,
        runtime=runtime,
        hardware=hardware,
    )

    reports: List[tuple] = []
    written: Dict[str, int] = {}
    try:
        with obs.span("cli.run", targets=len(args.targets)):
            for target in args.targets:
                ui.info(f"== {target} ==")
                started = time.perf_counter()
                if target in specs:
                    report = _run_experiment(specs[target], context, args, params, ui)
                else:
                    report = _run_campaign(
                        target, runtime, args, sim_config, hardware, ui
                    )
                elapsed = time.perf_counter() - started
                reports.append((target, report))
                if args.out is not None:
                    _write_report_file(target, report, args, written, ui)
                elif not exporting:
                    ui.out(render_text(report))
                ui.info(f"  elapsed: {elapsed:.2f}s")
    finally:
        # One pool serves every target; release its workers deterministically.
        runtime.close()

    if exporting and args.out is None:
        _write_stdout_exports(reports, args, ui)

    ui.info(f"runtime: {runtime.summary()}")
    if runtime.cache is not None:
        ui.info(f"cache: {runtime.cache.root} ({len(runtime.cache)} entries)")
    _obs_teardown(args, sink, ui)
    return 0


def _print_hardware_catalog(ui: Console) -> None:
    """One line per registered platform (shared by ``list`` and ``hw list``)."""
    for name in sorted(HARDWARE):
        spec = HARDWARE[name]
        ui.out(f"  {name:18s} {spec.label:24s} {spec.description}")


def _cmd_hw_list(args: argparse.Namespace) -> int:
    ui = Console()
    if args.json:
        ui.out(
            json.dumps(
                {name: HARDWARE[name].to_dict() for name in sorted(HARDWARE)},
                indent=2,
            )
        )
        return 0
    _print_hardware_catalog(ui)
    ui.out(
        f"{len(HARDWARE)} platform(s); describe one with: hw describe NAME, "
        "derive variants with: run --platform NAME --set key=value"
    )
    return 0


def _cmd_hw_describe(args: argparse.Namespace) -> int:
    ui = Console()
    try:
        spec = get_hardware(args.name)
    except KeyError as error:
        ui.error(str(error.args[0]))
        return 2
    if args.set:
        try:
            spec = spec.derive(**_parse_assignments(args.set, "--set"))
        except (KeyError, TypeError, ValueError) as error:
            ui.error(f"invalid hardware description: {error}")
            return 2
    platform = spec.build()
    details = {
        "spec": spec.to_dict(),
        "description": spec.description,
        "content_hash": spec.content_hash,
        "platform": platform.describe(),
    }
    if args.json:
        ui.out(json.dumps(details, indent=2))
        return 0
    ui.out(f"hardware {spec.name!r}: {spec.description}")
    ui.out(f"  label: {spec.label}")
    ui.out(f"  content hash: {spec.content_hash}")
    for key, value in spec.describe().items():
        if key == "content_hash":
            continue
        formatted = f"{value:.4g}" if isinstance(value, float) else value
        ui.out(f"  {key}: {formatted}")
    ui.out(
        "  worst_case_io_memory_power_w: "
        f"{platform.describe()['worst_case_io_memory_power_w']:.4g}"
    )
    return 0


def _cmd_hw_hash(args: argparse.Namespace) -> int:
    ui = Console()
    names = args.names or sorted(HARDWARE)
    unknown = [name for name in names if name not in HARDWARE]
    if unknown:
        ui.error(
            f"unknown hardware: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(HARDWARE))}"
        )
        return 2
    for name in names:
        ui.out(f"{HARDWARE[name].content_hash}  {name}")
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import SCENARIOS

    ui = Console()
    if args.json:
        ui.out(
            json.dumps(
                {name: SCENARIOS[name].to_dict() for name in sorted(SCENARIOS)},
                indent=2,
            )
        )
        return 0
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        ui.out(f"  {name:26s} {spec.generator:22s} seed={spec.seed:<6d} {spec.description}")
    ui.out(f"{len(SCENARIOS)} scenario(s); describe one with: scenarios describe NAME")
    return 0


def _cmd_scenarios_describe(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import SCENARIOS

    ui = Console()
    spec = SCENARIOS.get(args.name)
    if spec is None:
        ui.error(
            f"unknown scenario {args.name!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
        return 2
    trace = spec.build()
    details = {
        "spec": spec.to_dict(),
        "content_hash": spec.content_hash,
        "trace": {
            "name": trace.name,
            "workload_class": trace.workload_class.value,
            "metric": trace.metric.value,
            "phases": len(trace.phases),
            "total_duration_s": trace.total_duration,
            "average_bandwidth_gbps": trace.average_bandwidth_demand / config.gbps(1),
            "peak_bandwidth_gbps": trace.peak_bandwidth_demand / config.gbps(1),
            "memory_bound_fraction": trace.average_memory_bound_fraction,
        },
    }
    if args.json:
        ui.out(json.dumps(details, indent=2))
        return 0
    ui.out(f"scenario {spec.name!r}: {spec.description}")
    ui.out(f"  generator: {spec.generator}  seed: {spec.seed}")
    if spec.params:
        rendered = ", ".join(f"{key}={value}" for key, value in spec.params)
        ui.out(f"  params: {rendered}")
    ui.out(f"  content hash: {spec.content_hash}")
    for key, value in details["trace"].items():
        formatted = f"{value:.4g}" if isinstance(value, float) else value
        ui.out(f"  {key}: {formatted}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the linter is pure stdlib-ast tooling nothing else on
    # the CLI's import path needs.
    from repro.analysis.lint.cli import run_lint

    return run_lint(
        args.paths,
        as_json=args.json,
        explain=args.explain,
        list_rules=args.list_rules,
        rules=args.rules or None,
    )


def _cmd_trace_describe(args: argparse.Namespace) -> int:
    ui = Console()
    summary = _load_trace_model(args.path, ui).summary()
    if args.json:
        ui.out(json.dumps(summary, indent=2))
        return 0
    ui.out(f"trace: {args.path}")
    ui.out(f"  events: {summary['events']}")
    for event_type, count in summary["by_type"].items():
        ui.out(f"    {event_type}: {count}")
    engine = summary["engine"]
    if engine["segments"]:
        ui.out("engine:")
        ui.out(
            f"  {engine['runs']} run(s), {engine['segments']} segment(s), "
            f"{engine['ticks']} tick(s), {engine['transitions']} transition(s)"
        )
        ui.out(
            f"  memo hit rate: {engine['memo_hit_rate'] * 100:.1f}%  "
            f"simulated: {engine['simulated_s']:.4g}s"
        )
        energy = summary["energy_j"]
        ui.out(
            "  energy: "
            + "  ".join(f"{domain}={joules:.4g}J" for domain, joules in energy.items())
        )
        ui.out("  dram residency:")
        for point, seconds in summary["dram_residency_s"].items():
            ui.out(f"    {point}: {seconds:.4g}s")
        ui.out("  phase residency:")
        for phase, seconds in summary["phase_residency_s"].items():
            ui.out(f"    {phase}: {seconds:.4g}s")
    if "spans" in summary:
        ui.out("spans:")
        for name, entry in summary["spans"].items():
            ui.out(
                f"  {name:24s} count={entry['count']:<5d} "
                f"total={entry['total_s']:.4g}s max={entry['max_s']:.4g}s"
            )
    if "logs" in summary:
        rendered = ", ".join(
            f"{level}={count}" for level, count in summary["logs"].items()
        )
        ui.out(f"logs: {rendered}")
    return 0


def _load_trace_model(path: str, ui: Console):
    """Parse one trace file into a :class:`TraceModel`, or raise ``_CliError``."""
    # Deferred import: only the trace subcommands need the analysis package.
    from repro.obs.analysis import TraceModel

    try:
        return TraceModel.load(path)
    except OSError as error:
        raise _CliError(f"cannot read trace {path!r}: {error}") from error
    except ValueError as error:
        raise _CliError(f"trace {path!r} is not valid JSONL: {error}") from error


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.analysis import diff_traces, render_diff_text

    ui = Console(info_stream=sys.stderr if args.json else None)
    model_a = _load_trace_model(args.trace_a, ui)
    model_b = _load_trace_model(args.trace_b, ui)
    diff = diff_traces(model_a, model_b)
    if args.json:
        ui.out(json.dumps(diff.to_dict(), indent=2))
    else:
        ui.out(f"trace diff: {args.trace_a} vs {args.trace_b}")
        ui.out(render_diff_text(diff, limit=args.limit))
    # Drift is reported, not gated: two traces of the same run exit 0.
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.analysis import export_chrome_trace

    ui = Console()
    model = _load_trace_model(args.path, ui)
    document = export_chrome_trace(model, args.chrome)
    described = model.describe()
    ui.out(
        f"wrote {args.chrome}: {len(document['traceEvents'])} trace event(s) "
        f"from {described['engine_runs']} engine run(s), "
        f"{described['segments']} segment(s), {described['spans']} span(s)"
    )
    ui.info("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    ui = Console()
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        ui.out(f"removed {removed} entries from {cache.root}")
        return 0
    entries = len(cache)
    ui.out(f"cache: {cache.root}")
    ui.out(f"  entries: {entries}")
    ui.out(f"  size: {cache.size_bytes() / 1024:.1f} KiB")
    return 0


def _fleet_campaign(args: argparse.Namespace):
    """Resolve the ``CAMPAIGN`` argument of submit/verify, with smoke caps."""
    # Deferred import: the fleet pulls in the campaign catalog and scenario
    # registry, which the rest of the CLI's import path does not need.
    from repro.fleet import resolve_campaign

    if args.max_time is not None and args.max_time <= 0:
        raise _CliError(f"--max-time must be positive, got {args.max_time}")
    try:
        return resolve_campaign(
            args.campaign, quick=args.quick, max_time=args.max_time
        )
    except KeyError as error:
        raise _CliError(str(error.args[0])) from error


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet import FaultPlan, FleetConfig, FleetService

    ui = _console_for(args)
    if args.workers < 1:
        raise _CliError(f"--workers must be at least 1, got {args.workers}")
    if args.batch_size is not None and args.batch_size < 1:
        raise _CliError(f"--batch-size must be at least 1, got {args.batch_size}")
    faults = None
    if args.faults:
        try:
            faults = FaultPlan.parse(args.faults)
        except ValueError as error:
            raise _CliError(f"invalid --faults spec: {error}") from error
    sink = _obs_setup(args)
    config = FleetConfig(
        root=args.fleet_dir,
        workers=args.workers,
        batch_size=args.batch_size,
        poll_interval=args.poll_interval,
        lease_timeout=args.lease_timeout,
        lease_limit=args.lease_limit,
        max_attempts=args.max_attempts,
        drain=args.drain,
        drain_grace=args.drain_grace,
        idle_timeout=args.idle_timeout,
        faults=faults,
    )
    service = FleetService(config)
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
        summary = {"rounds": service.rounds, "jobs_run": service.jobs_run}
    if args.json:
        ui.out(json.dumps(summary, indent=2))
    else:
        ui.out(
            f"serve: {summary.get('jobs_run', 0)} job(s) in "
            f"{summary.get('rounds', 0)} round(s), "
            f"{summary.get('reports_finalized', 0)} report(s) finalized"
        )
    _obs_teardown(args, sink, ui)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.fleet import submit_campaign

    ui = _console_for(args)
    campaign = _fleet_campaign(args)
    summary = submit_campaign(
        args.fleet_dir, campaign, priority=args.priority
    )
    if args.json:
        ui.out(json.dumps(summary, indent=2))
    else:
        if summary["warm_start"]:
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


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import fleet_status

    ui = _console_for(args)
    status = fleet_status(args.fleet_dir)
    if args.json:
        ui.out(json.dumps(status, indent=2))
        return 0
    queue = status["queue"]
    ui.out(f"fleet: {status['root']}")
    corrupt_suffix = (
        f", {queue['corrupt']} CORRUPT" if queue.get("corrupt") else ""
    )
    ui.out(
        f"  queue: {queue['queued']} queued, {queue['leased']} leased, "
        f"{queue['done']} done, {queue['failed']} failed{corrupt_suffix}"
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
    ui.out(f"  drained: {'yes' if status['drained'] else 'no'}")
    return 0


def _cmd_fleet_verify(args: argparse.Namespace) -> int:
    from repro.fleet import verify_campaign

    ui = _console_for(args)
    campaign = _fleet_campaign(args)
    verdict = verify_campaign(args.fleet_dir, campaign)
    if args.json:
        ui.out(json.dumps(verdict, indent=2))
    else:
        ui.out(
            f"verify {verdict['campaign']}: "
            f"{'bit-identical to serial' if verdict['ok'] else 'MISMATCH'} "
            f"({verdict['jobs']} job(s), {len(verdict['missing'])} missing, "
            f"{len(verdict['mismatched'])} mismatched, report "
            f"{'ok' if verdict['report_ok'] else 'missing/stale'})"
        )
    return 0 if verdict["ok"] else 1


def _cmd_fleet_doctor(args: argparse.Namespace) -> int:
    from repro.fleet import run_doctor

    ui = _console_for(args)
    report = run_doctor(args.fleet_dir, fix=args.fix)
    if args.json:
        ui.out(json.dumps(report.to_dict(), indent=2))
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


def _cmd_fleet_gc(args: argparse.Namespace) -> int:
    from repro.fleet import JobQueue
    from repro.fleet.service import FleetPaths

    ui = _console_for(args)
    if args.ttl < 0:
        raise _CliError(f"--ttl must be non-negative, got {args.ttl}")
    queue = JobQueue(FleetPaths(args.fleet_dir).queue_dir)
    summary = queue.gc(ttl=args.ttl, dry_run=args.dry_run)
    if args.json:
        ui.out(json.dumps(summary, indent=2))
    else:
        verb = "would remove" if args.dry_run else "removed"
        ui.out(
            f"gc: {verb} {summary['removed_done']} done, "
            f"{summary['removed_failed']} failed, "
            f"{summary['removed_tmp']} stray tmp "
            f"({summary['kept']} kept of {summary['scanned']} scanned, "
            f"ttl {args.ttl:g}s)"
        )
    return 0


def _add_hardware_flags(parser: argparse.ArgumentParser) -> None:
    """The hardware-description flags of ``run``."""
    parser.add_argument(
        "--platform", default=None, metavar="NAME",
        help=(
            "hardware description to simulate (see `hw list`; "
            "default: skylake)"
        ),
    )
    parser.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help=(
            "hardware derivation override (repeatable): a HardwareSpec field "
            "(tdp=5.5, dram=ddr4) or <field>_scale multiplier "
            "(uncore_leakage_coeff_scale=1.08)"
        ),
    )


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """The executor/cache flags of ``run``."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial in-process execution)",
    )
    parser.add_argument(
        "--cache-dir", default=default_cache_dir(), metavar="DIR",
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache entirely"
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-job progress lines"
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The telemetry flags shared by ``run`` and ``serve``."""
    parser.add_argument(
        "--log-level", choices=sorted(obs.LEVELS, key=obs.LEVELS.get),
        default=None, metavar="LEVEL",
        help="minimum level for decorative output (debug/info/warning/error)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=(
            "record telemetry events (spans, logs, engine segment timelines) "
            "to a JSON-lines file; summarize it with `trace describe PATH`"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable metrics collection and print the registry summary at exit",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SysScale reproduction runner: regenerate the paper's tables, "
            "figures, and sweep campaigns through the parallel, cached runtime."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list runnable targets").set_defaults(
        handler=_cmd_list
    )

    run_parser = subparsers.add_parser(
        "run",
        help="run experiment/campaign targets",
        epilog=_run_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_parser.add_argument(
        "targets", nargs="+", metavar="TARGET", help="figure, table, or campaign name"
    )
    _add_runtime_flags(run_parser)
    _add_obs_flags(run_parser)
    run_parser.add_argument(
        "--quick", action="store_true", help="reduced workload sets for fast runs"
    )
    run_parser.add_argument(
        "--duration", type=float, default=1.0, metavar="S",
        help="workload trace duration in seconds (default 1.0)",
    )
    run_parser.add_argument(
        "--max-time", type=float, default=None, metavar="S",
        help="cap simulated time per run (engine max_simulated_time)",
    )
    run_parser.add_argument(
        "--tdp", type=float, default=None, metavar="W",
        help=(
            "package TDP in watts (a derivation over the selected platform; "
            f"default {config.SKYLAKE_DEFAULT_TDP:g})"
        ),
    )
    _add_hardware_flags(run_parser)
    run_parser.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help=(
            "experiment parameter override (repeatable), validated against "
            "each target's registered params (see run --help epilog)"
        ),
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit the ExperimentReport document(s) as JSON on stdout",
    )
    run_parser.add_argument(
        "--csv", action="store_true",
        help="emit the CSV export (one section per report block) on stdout",
    )
    run_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help=(
            "write the export to PATH instead of stdout (a directory when "
            "running several targets); implies --json unless --csv is given"
        ),
    )
    run_parser.set_defaults(handler=_cmd_run)

    hw_parser = subparsers.add_parser(
        "hw", help="the hardware description catalog (repro.hw)"
    )
    hw_sub = hw_parser.add_subparsers(dest="hw_command", required=True)
    hw_list = hw_sub.add_parser("list", help="list the registered platforms")
    hw_list.add_argument(
        "--json", action="store_true", help="print the full specs as JSON"
    )
    hw_list.set_defaults(handler=_cmd_hw_list)
    hw_describe = hw_sub.add_parser(
        "describe", help="show one platform's spec, hash, and derived figures"
    )
    hw_describe.add_argument("name", metavar="NAME", help="registered platform name")
    hw_describe.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help="apply derivation overrides before describing",
    )
    hw_describe.add_argument(
        "--json", action="store_true", help="print the details as JSON"
    )
    hw_describe.set_defaults(handler=_cmd_hw_describe)
    hw_hash = hw_sub.add_parser(
        "hash", help="print content hashes of registered platforms"
    )
    hw_hash.add_argument(
        "names", nargs="*", metavar="NAME", help="platform names (default: all)"
    )
    hw_hash.set_defaults(handler=_cmd_hw_hash)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="the synthesized scenario catalog (repro.scenarios)"
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )
    scen_list = scenarios_sub.add_parser("list", help="list the scenario catalog")
    scen_list.add_argument(
        "--json", action="store_true", help="print the catalog specs as JSON"
    )
    scen_list.set_defaults(handler=_cmd_scenarios_list)
    scen_describe = scenarios_sub.add_parser(
        "describe", help="show one scenario's spec, hash, and trace shape"
    )
    scen_describe.add_argument("name", metavar="NAME", help="catalog scenario name")
    scen_describe.add_argument(
        "--json", action="store_true", help="print the details as JSON"
    )
    scen_describe.set_defaults(handler=_cmd_scenarios_describe)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect recorded telemetry traces (repro.obs)"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_describe = trace_sub.add_parser(
        "describe",
        help="summarize a JSON-lines trace recorded with --trace-out",
    )
    trace_describe.add_argument(
        "path", metavar="PATH", help="trace file written by --trace-out"
    )
    trace_describe.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    trace_describe.set_defaults(handler=_cmd_trace_describe)
    trace_diff = trace_sub.add_parser(
        "diff",
        help="attribute simulated time between two traces and report drift",
        description=(
            "Fold each trace's engine segments into (workload, policy, phase, "
            "operating point) attribution buckets and diff them: buckets key "
            "on what the engine memo keys on, so two runs align even when "
            "their jobs executed in different orders.  Two traces of the "
            "same run report zero drift."
        ),
    )
    trace_diff.add_argument(
        "trace_a", metavar="A", help="baseline trace (JSONL from --trace-out)"
    )
    trace_diff.add_argument(
        "trace_b", metavar="B", help="comparison trace (JSONL from --trace-out)"
    )
    trace_diff.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most N changed buckets (default 20)",
    )
    trace_diff.add_argument(
        "--json", action="store_true", help="print the full diff as JSON"
    )
    trace_diff.set_defaults(handler=_cmd_trace_diff)
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome/Perfetto trace_event JSON",
        description=(
            "Convert a --trace-out JSONL file to the Trace Event Format "
            "(chrome://tracing, https://ui.perfetto.dev): the span waterfall "
            "on one process row, engine segment/transition timelines (one "
            "thread per run, simulated time) on another."
        ),
    )
    trace_export.add_argument(
        "path", metavar="PATH", help="trace file written by --trace-out"
    )
    trace_export.add_argument(
        "--chrome", required=True, metavar="OUT",
        help="write the trace_event JSON document to OUT",
    )
    trace_export.set_defaults(handler=_cmd_trace_export)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the repo's determinism/hash/layering contracts",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro tests examples)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON on stdout"
    )
    lint_parser.add_argument(
        "--rule", dest="rules", action="append", metavar="RULE",
        help="restrict to one rule (repeatable)",
    )
    lint_parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's rationale with a bad/good example, then exit",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="list rules with severities"
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    cache_parser = subparsers.add_parser("cache", help="inspect or clear the cache")
    cache_parser.add_argument(
        "--cache-dir", default=default_cache_dir(), metavar="DIR",
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )
    cache_parser.add_argument(
        "--clear", action="store_true", help="delete every cache entry"
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    def add_fleet_dir(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--fleet-dir",
            default=os.environ.get("REPRO_FLEET_DIR", ".repro-fleet"),
            metavar="DIR",
            help=(
                "fleet directory holding the queue, store, and campaign "
                "manifests (default .repro-fleet, or $REPRO_FLEET_DIR)"
            ),
        )

    def add_campaign_args(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "campaign", metavar="CAMPAIGN",
            help=f"campaign name ({', '.join(sorted(CAMPAIGNS))})",
        )
        target.add_argument(
            "--quick", action="store_true",
            help="reduced workload set for fast runs",
        )
        target.add_argument(
            "--max-time", type=float, default=None, metavar="S",
            help="cap simulated seconds per job (smoke-test scaling)",
        )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the sweep service over a fleet directory",
        description=(
            "Poll the fleet queue, execute leased jobs through a batched "
            "pool of --workers processes into the sharded store, and "
            "finalize sweep reports."
        ),
    )
    add_fleet_dir(serve_parser)
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (default 2)",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help=(
            "jobs packed per pool submission (default: auto-sized from the "
            "batch and worker count)"
        ),
    )
    serve_parser.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="S",
        help="seconds between queue polls when idle (default 0.2)",
    )
    serve_parser.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="S",
        help="seconds before an unfinished lease is reclaimed (default 60)",
    )
    serve_parser.add_argument(
        "--lease-limit", type=int, default=64, metavar="N",
        help="jobs leased per poll (default 64)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts before a job is marked failed (default 3)",
    )
    serve_parser.add_argument(
        "--drain", action="store_true",
        help="exit once the queue is empty and all sweep reports are stored",
    )
    serve_parser.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="S",
        help="with --drain: seconds to wait for work to first appear (default 10)",
    )
    serve_parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="without --drain: exit after S idle seconds (default: run forever)",
    )
    serve_parser.add_argument(
        "--faults",
        default=os.environ.get("REPRO_FLEET_FAULTS"),
        metavar="SPEC",
        help=(
            "seeded chaos plan for fault-injection runs, e.g. "
            "'seed=42;torn@queue.write=0.1;crash@job=0.2;hang@job=0.1:0.05' "
            "(default: $REPRO_FLEET_FAULTS; unset = no faults)"
        ),
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="emit the exit summary as JSON"
    )
    _add_obs_flags(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit a campaign's jobs to the fleet queue",
        description=(
            "Resolve a named campaign, write its sweep manifest, and enqueue "
            "its jobs -- deduplicated against the queue and the result store. "
            "An already-reported sweep is a warm start: nothing is enqueued."
        ),
    )
    add_fleet_dir(submit_parser)
    add_campaign_args(submit_parser)
    submit_parser.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="queue priority (higher dispatches sooner; default 0)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="emit the submission summary as JSON"
    )
    submit_parser.set_defaults(handler=_cmd_submit)

    fleet_parser = subparsers.add_parser(
        "fleet", help="inspect or verify a fleet directory"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command", required=True)
    fleet_status_parser = fleet_sub.add_parser(
        "status", help="queue counts, store stats, and campaign completion"
    )
    add_fleet_dir(fleet_status_parser)
    fleet_status_parser.add_argument(
        "--json", action="store_true", help="emit the status as JSON"
    )
    fleet_status_parser.set_defaults(handler=_cmd_fleet_status)
    fleet_verify_parser = fleet_sub.add_parser(
        "verify",
        help="check fleet results for a campaign against a serial re-run",
    )
    add_fleet_dir(fleet_verify_parser)
    add_campaign_args(fleet_verify_parser)
    fleet_verify_parser.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )
    fleet_verify_parser.set_defaults(handler=_cmd_fleet_verify)
    fleet_doctor_parser = fleet_sub.add_parser(
        "doctor",
        help="audit queue/store/heartbeat consistency (exit 1 when unhealthy)",
        description=(
            "Cross-check the fleet directory for corrupt queue entries, "
            "queue/store state skew, expired leases, stale heartbeats, stray "
            "temp files, and lost manifest jobs.  --fix applies every repair "
            "that cannot lose information (restore or quarantine corrupt "
            "entries, requeue lost results, complete already-stored leases, "
            "sweep temp files)."
        ),
    )
    add_fleet_dir(fleet_doctor_parser)
    fleet_doctor_parser.add_argument(
        "--fix", action="store_true", help="apply safe repairs while auditing"
    )
    fleet_doctor_parser.add_argument(
        "--json", action="store_true", help="emit the findings as JSON"
    )
    fleet_doctor_parser.set_defaults(handler=_cmd_fleet_doctor)
    fleet_gc_parser = fleet_sub.add_parser(
        "gc",
        help="compact done/failed queue entries older than a TTL",
        description=(
            "Remove terminal (done/failed) queue-entry files whose last "
            "state change is older than --ttl, plus stray temp files of the "
            "same age.  Queued and leased entries are never touched."
        ),
    )
    add_fleet_dir(fleet_gc_parser)
    fleet_gc_parser.add_argument(
        "--ttl", type=float, default=3600.0, metavar="S",
        help="age in seconds before a terminal entry is collected (default 3600)",
    )
    fleet_gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )
    fleet_gc_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    fleet_gc_parser.set_defaults(handler=_cmd_fleet_gc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also the ``repro`` console script)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as error:
        Console().error(str(error))
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
