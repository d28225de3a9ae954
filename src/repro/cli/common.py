"""Pieces every command module shares: usage errors, ``key=value`` flags,
the hardware flags, ``--json``, and the telemetry flags of ``run``/``serve``.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.hw import HardwareSpec, get_hardware
from repro.obs import Console, JsonlSink, render_metrics_text


class CliError(Exception):
    """A user-input error: print the message to stderr and exit 2."""


def parse_assignments(pairs: Optional[List[str]], flag: str) -> Dict[str, Any]:
    """Parse repeated ``key=value`` flag values into a keyword dictionary.

    Values are decoded as JSON where possible (``tdp=5.5`` -> float,
    ``subset='["470.lbm"]'`` -> list) and fall back to plain strings
    (``dram=ddr4``), so one syntax covers numbers, flags, and names.
    """
    assignments: Dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise CliError(f"{flag} expects key=value, got {pair!r}")
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        assignments[key] = value
    return assignments


def hardware_from_flags(
    platform: Optional[str], sets: Optional[List[str]]
) -> Optional[HardwareSpec]:
    """A registered platform (default skylake) with ``--set`` deltas applied,
    or ``None`` when neither a platform nor a ``--set`` was given."""
    overrides = parse_assignments(sets, "--set")
    if platform is None and not overrides:
        return None
    try:
        hardware = get_hardware(platform or "skylake")
        return hardware.derive(**overrides) if overrides else hardware
    except (KeyError, TypeError, ValueError) as error:
        raise CliError(f"invalid hardware description: {error}") from error


def exporting(args: argparse.Namespace) -> bool:
    """True when stdout carries a machine-readable document."""
    return bool(
        getattr(args, "json", False)
        or getattr(args, "csv", False)
        or getattr(args, "out", None)
    )


def add_command(
    subparsers: Any, name: str, handler: Callable[..., int], **kwargs: Any
) -> argparse.ArgumentParser:
    """A subcommand whose parsed arguments go to ``handler(args, ui)``."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def add_json_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    """Declare a command's ``--json``; its handler prints with :func:`print_json`."""
    parser.add_argument("--json", action="store_true", help=help_text)


def print_json(ui: Console, document: Any, sort_keys: bool = False) -> None:
    """A ``--json`` document on stdout."""
    ui.out(json.dumps(document, indent=2, sort_keys=sort_keys))


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The telemetry flags shared by ``run`` and ``serve``.

    Telemetry never changes results: job hashes, cache entries, and
    simulation outputs are bit-identical with or without it.
    """
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


def obs_setup(args: argparse.Namespace) -> Optional[JsonlSink]:
    """Apply the telemetry flags to the ambient scope.

    Returns the ``--trace-out`` sink (``None`` without one) for
    :func:`obs_teardown` to close.  Telemetry stays disabled unless tracing or
    profiling was requested, keeping the default invocation on the no-op
    fast path.
    """
    obs.reset()
    if args.log_level:
        obs.set_level(args.log_level)
    if args.trace_out or args.profile:
        obs.enable(trace_segments=bool(args.trace_out))
    return obs.add_sink(JsonlSink(args.trace_out)) if args.trace_out else None


def obs_teardown(
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
