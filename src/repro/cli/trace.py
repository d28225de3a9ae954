"""``trace``: inspect telemetry recorded with ``--trace-out``.

Each file is parsed through one :class:`~repro.obs.analysis.TraceModel`.
``describe`` summarizes it (event counts, span timings, engine segments,
residencies), ``diff A B`` attributes simulated time per (workload, policy,
phase, operating point) bucket and reports what moved, and ``export PATH
--chrome OUT`` writes Chrome/Perfetto ``trace_event`` JSON.
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.cli import common
from repro.obs import Console


def _load_trace_model(path: str):
    """Parse one trace file into a :class:`TraceModel`, or raise ``CliError``."""
    # Deferred import: only the trace subcommands need the analysis package.
    from repro.obs.analysis import TraceModel

    try:
        return TraceModel.load(path)
    except OSError as error:
        raise common.CliError(f"cannot read trace {path!r}: {error}") from error
    except ValueError as error:
        raise common.CliError(f"trace {path!r} is not valid JSONL: {error}") from error


def _cmd_trace_describe(args: argparse.Namespace, ui: Console) -> int:
    summary = _load_trace_model(args.path).summary()
    if args.json:
        common.print_json(ui, summary)
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
        for kind in ("dram", "phase"):
            ui.out(f"  {kind} residency:")
            for name, seconds in summary[f"{kind}_residency_s"].items():
                ui.out(f"    {name}: {seconds:.4g}s")
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


def _cmd_trace_diff(args: argparse.Namespace, ui: Console) -> int:
    from repro.obs.analysis import diff_traces, render_diff_text

    diff = diff_traces(_load_trace_model(args.trace_a), _load_trace_model(args.trace_b))
    if args.json:
        common.print_json(ui, diff.to_dict())
    else:
        ui.out(f"trace diff: {args.trace_a} vs {args.trace_b}")
        ui.out(render_diff_text(diff, limit=args.limit))
    # Drift is reported, not gated: two traces of the same run exit 0.
    return 0


def _cmd_trace_export(args: argparse.Namespace, ui: Console) -> int:
    from repro.obs.analysis import export_chrome_trace

    model = _load_trace_model(args.path)
    document = export_chrome_trace(model, args.chrome)
    described = model.describe()
    ui.out(
        f"wrote {args.chrome}: {len(document['traceEvents'])} trace event(s) "
        f"from {described['engine_runs']} engine run(s), "
        f"{described['segments']} segment(s), {described['spans']} span(s)"
    )
    ui.info("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def register(subparsers: Any) -> None:
    """Add ``trace describe|diff|export``."""
    trace = subparsers.add_parser(
        "trace", help="inspect recorded telemetry traces (repro.obs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    describe = common.add_command(
        trace_sub, "describe", _cmd_trace_describe,
        help="summarize a JSON-lines trace recorded with --trace-out",
    )
    describe.add_argument(
        "path", metavar="PATH", help="trace file written by --trace-out"
    )
    common.add_json_flag(describe, "print the summary as JSON")
    diff = common.add_command(
        trace_sub, "diff", _cmd_trace_diff,
        help="attribute simulated time between two traces and report drift",
        description=(
            "Fold each trace's engine segments into (workload, policy, phase, "
            "operating point) attribution buckets and diff them: buckets key "
            "on what the engine memo keys on, so two runs align even when "
            "their jobs executed in different orders.  Two traces of the "
            "same run report zero drift."
        ),
    )
    diff.add_argument(
        "trace_a", metavar="A", help="baseline trace (JSONL from --trace-out)"
    )
    diff.add_argument(
        "trace_b", metavar="B", help="comparison trace (JSONL from --trace-out)"
    )
    diff.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most N changed buckets (default 20)",
    )
    common.add_json_flag(diff, "print the full diff as JSON")
    export = common.add_command(
        trace_sub, "export", _cmd_trace_export,
        help="convert a trace to Chrome/Perfetto trace_event JSON",
        description=(
            "Convert a --trace-out JSONL file to the Trace Event Format "
            "(chrome://tracing, https://ui.perfetto.dev): the span waterfall "
            "on one process row, engine segment/transition timelines (one "
            "thread per run, simulated time) on another."
        ),
    )
    export.add_argument(
        "path", metavar="PATH", help="trace file written by --trace-out"
    )
    export.add_argument(
        "--chrome", required=True, metavar="OUT",
        help="write the trace_event JSON document to OUT",
    )
