"""``hw`` and ``scenarios``: list, describe and hash the hardware catalog, and
list or describe the synthesized-scenario catalog (``run scenarios`` sweeps it).
"""

from __future__ import annotations

import argparse
from typing import Any

from repro import config
from repro.cli import common
from repro.hw import HARDWARE
from repro.obs import Console
from repro.scenarios.registry import SCENARIOS


def print_hardware_catalog(ui: Console) -> None:
    """One line per registered platform (shared by ``list`` and ``hw list``)."""
    for name in sorted(HARDWARE):
        spec = HARDWARE[name]
        ui.out(f"  {name:18s} {spec.label:24s} {spec.description}")


def _cmd_hw_list(args: argparse.Namespace, ui: Console) -> int:
    if args.json:
        common.print_json(ui, {name: HARDWARE[name].to_dict() for name in sorted(HARDWARE)})
        return 0
    print_hardware_catalog(ui)
    ui.out(
        f"{len(HARDWARE)} platform(s); describe one with: hw describe NAME, "
        "derive variants with: run --platform NAME --set key=value"
    )
    return 0


def _cmd_hw_describe(args: argparse.Namespace, ui: Console) -> int:
    spec = common.hardware_from_flags(args.name, args.set)
    details = {
        "spec": spec.to_dict(),
        "description": spec.description,
        "content_hash": spec.content_hash,
        "platform": spec.build().describe(),
    }
    if args.json:
        common.print_json(ui, details)
        return 0
    ui.out(f"hardware {spec.name!r}: {spec.description}")
    ui.out(f"  label: {spec.label}")
    ui.out(f"  content hash: {spec.content_hash}")
    for key, value in spec.describe().items():
        if key == "content_hash":
            continue
        formatted = f"{value:.4g}" if isinstance(value, float) else value
        ui.out(f"  {key}: {formatted}")
    worst_case = details["platform"]["worst_case_io_memory_power_w"]
    ui.out(f"  worst_case_io_memory_power_w: {worst_case:.4g}")
    return 0


def _cmd_hw_hash(args: argparse.Namespace, ui: Console) -> int:
    names = args.names or sorted(HARDWARE)
    unknown = [name for name in names if name not in HARDWARE]
    if unknown:
        raise common.CliError(
            f"unknown hardware: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(HARDWARE))}"
        )
    for name in names:
        ui.out(f"{HARDWARE[name].content_hash}  {name}")
    return 0


def _cmd_scenarios_list(args: argparse.Namespace, ui: Console) -> int:
    if args.json:
        common.print_json(ui, {name: SCENARIOS[name].to_dict() for name in sorted(SCENARIOS)})
        return 0
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        ui.out(f"  {name:26s} {spec.generator:22s} seed={spec.seed:<6d} {spec.description}")
    ui.out(f"{len(SCENARIOS)} scenario(s); describe one with: scenarios describe NAME")
    return 0


def _cmd_scenarios_describe(args: argparse.Namespace, ui: Console) -> int:
    spec = SCENARIOS.get(args.name)
    if spec is None:
        raise common.CliError(
            f"unknown scenario {args.name!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
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
        common.print_json(ui, details)
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


def register(subparsers: Any) -> None:
    """Add ``hw list|describe|hash`` and ``scenarios list|describe``."""
    hw = subparsers.add_parser(
        "hw", help="the hardware description catalog (repro.hw)"
    )
    hw_sub = hw.add_subparsers(dest="hw_command", required=True)
    hw_list = common.add_command(
        hw_sub, "list", _cmd_hw_list, help="list the registered platforms"
    )
    common.add_json_flag(hw_list, "print the full specs as JSON")
    hw_describe = common.add_command(
        hw_sub, "describe", _cmd_hw_describe,
        help="show one platform's spec, hash, and derived figures",
    )
    hw_describe.add_argument("name", metavar="NAME", help="registered platform name")
    hw_describe.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help="apply derivation overrides before describing",
    )
    common.add_json_flag(hw_describe, "print the details as JSON")
    hw_hash = common.add_command(
        hw_sub, "hash", _cmd_hw_hash, help="print content hashes of registered platforms"
    )
    hw_hash.add_argument(
        "names", nargs="*", metavar="NAME", help="platform names (default: all)"
    )

    scenarios = subparsers.add_parser(
        "scenarios", help="the synthesized scenario catalog (repro.scenarios)"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_list = common.add_command(
        scenarios_sub, "list", _cmd_scenarios_list, help="list the scenario catalog"
    )
    common.add_json_flag(scen_list, "print the catalog specs as JSON")
    scen_describe = common.add_command(
        scenarios_sub, "describe", _cmd_scenarios_describe,
        help="show one scenario's spec, hash, and trace shape",
    )
    scen_describe.add_argument("name", metavar="NAME", help="catalog scenario name")
    common.add_json_flag(scen_describe, "print the details as JSON")
