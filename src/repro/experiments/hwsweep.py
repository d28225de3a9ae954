"""Hardware what-if sweep: SysScale's benefit across platform variants.

The ROADMAP's hardware-sensitivity question -- how much of SysScale's
energy/performance win survives on a different die? -- becomes answerable once
platforms are data: this experiment crosses a SPEC subset with {baseline,
SysScale} over a list of registered :mod:`repro.hw` variants (Skylake, the
Broadwell motivation part, a low-leakage bin, the 7 W cTDP point, the DDR4
device of Sec. 7.4 by default) and reports per-variant energy reduction,
performance impact, and low-point residency.  Every (variant, workload,
policy) triple is one runtime job whose content hash covers the *full*
hardware description, so sweeps cache, deduplicate, and parallelize like any
other campaign: a warm rerun simulates nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Metric, Table
from repro.experiments.runner import ExperimentContext, mean
from repro.hw import HardwareSpec, resolve_hardware
from repro.runtime.campaign import (
    DEFAULT_HW_VARIANTS,
    QUICK_SPEC_SUBSET,
    sysscale_policy_for,
)
from repro.runtime.jobs import PolicySpec, SimulationJob, TraceSpec

TITLE = "Hardware sweep: SysScale sensitivity across platform variants"

#: ``--quick``: the first three variants over half the SPEC subset.
QUICK_VARIANT_COUNT = 3
QUICK_WORKLOAD_COUNT = 6


def _variant_labels(specs: Sequence[HardwareSpec]) -> List[str]:
    """Report labels per variant; name collisions disambiguate by hash.

    Two swept specs may share a registry name (e.g. ``skylake`` and an ad-hoc
    ``--set`` derivation of it, whose name is still ``skylake``), and the name
    is presentation metadata that several physically distinct specs can carry
    -- rows must never aggregate across them.
    """
    counts: Dict[str, int] = {}
    for spec in specs:
        counts[spec.name] = counts.get(spec.name, 0) + 1
    return [
        spec.name if counts[spec.name] == 1 else f"{spec.name}@{spec.content_hash[:8]}"
        for spec in specs
    ]


@experiment(
    "hwsweep",
    title=TITLE,
    flags=("--duration",),
    quick=(
        f"first {QUICK_VARIANT_COUNT} variants x "
        f"{QUICK_WORKLOAD_COUNT}-benchmark subset"
    ),
)
def _hwsweep(
    context: ExperimentContext,
    quick: bool,
    *,
    variants: Optional[Sequence[object]] = None,
    subset: Optional[Tuple[str, ...]] = None,
) -> ExperimentReport:
    """Energy/perf sensitivity of SysScale across registered hardware variants.

    Sweeps {baseline, SysScale} x SPEC subset over hardware variants.
    ``variants`` accepts registered platform names or
    :class:`~repro.hw.HardwareSpec` objects; ``subset`` names the SPEC
    workloads (default: the representative 12-benchmark subset).  With no
    explicit ``variants``, the context's hardware (``--platform``/``--set``,
    ``Session(platform=...)``) is swept *in addition to* the default axis
    rather than silently ignored.
    """
    if isinstance(variants, str):
        variants = (variants,)
    if isinstance(subset, str):
        subset = (subset,)
    if variants is not None:
        specs = [resolve_hardware(entry) for entry in variants]
    else:
        defaults = (
            DEFAULT_HW_VARIANTS[:QUICK_VARIANT_COUNT] if quick else DEFAULT_HW_VARIANTS
        )
        specs = [resolve_hardware(name) for name in defaults]
        if context.hardware not in specs:
            specs.insert(0, context.hardware)
    if len(specs) < 2:
        raise ValueError("a hardware sweep needs at least two variants")
    if subset is None:
        subset = (
            QUICK_SPEC_SUBSET[:QUICK_WORKLOAD_COUNT] if quick else QUICK_SPEC_SUBSET
        )
    names = tuple(subset)
    traces = [
        TraceSpec.make("spec", name=name, duration=context.workload_duration)
        for name in names
    ]
    jobs: List[SimulationJob] = []
    for spec in specs:
        policies = (PolicySpec.make("baseline"), sysscale_policy_for(spec))
        for trace in traces:
            for policy in policies:
                jobs.append(
                    SimulationJob(
                        trace=trace, policy=policy, platform=spec, sim=context.sim
                    )
                )
    results = context.runtime.simulate(jobs)

    labels = _variant_labels(specs)
    detail: List[Dict[str, object]] = []
    per_variant: List[Dict[str, object]] = []
    cursor = iter(results)
    for spec, label in zip(specs, labels):
        rows: List[Dict[str, object]] = []
        for trace in traces:
            baseline = next(cursor)
            sysscale = next(cursor)
            rows.append(
                {
                    "variant": label,
                    "workload": trace.label,
                    "energy_reduction": sysscale.energy_reduction_vs(baseline),
                    "perf_impact": sysscale.performance_improvement_over(baseline),
                    "low_residency": sysscale.low_point_residency,
                    "baseline_power_w": baseline.average_power,
                }
            )
        detail.extend(rows)
        per_variant.append(
            {
                "variant": label,
                "tdp_w": spec.tdp,
                "dram": spec.dram.technology,
                "energy_reduction": mean(r["energy_reduction"] for r in rows),
                "perf_impact": mean(r["perf_impact"] for r in rows),
                "low_residency": mean(r["low_residency"] for r in rows),
                "baseline_power_w": mean(r["baseline_power_w"] for r in rows),
                "hardware_hash": spec.content_hash,
            }
        )

    ranked = sorted(per_variant, key=lambda row: row["energy_reduction"])
    return ExperimentReport(
        experiment="hwsweep",
        title=TITLE,
        params={
            "variants": labels,
            "subset": list(names),
            "duration": context.workload_duration,
        },
        blocks=(
            Table.from_records(
                "variants",
                per_variant,
                units={
                    "tdp_w": "W",
                    "energy_reduction": "fraction",
                    "perf_impact": "fraction",
                    "low_residency": "fraction",
                    "baseline_power_w": "W",
                },
            ),
            Table.from_records(
                "rows",
                detail,
                units={
                    "energy_reduction": "fraction",
                    "perf_impact": "fraction",
                    "low_residency": "fraction",
                    "baseline_power_w": "W",
                },
            ),
            Metric("best_variant", ranked[-1]["variant"]),
            Metric(
                "best_energy_reduction", ranked[-1]["energy_reduction"], "fraction"
            ),
            Metric("worst_variant", ranked[0]["variant"]),
            Metric(
                "worst_energy_reduction", ranked[0]["energy_reduction"], "fraction"
            ),
            Metric(
                "energy_reduction_spread",
                ranked[-1]["energy_reduction"] - ranked[0]["energy_reduction"],
                "fraction",
            ),
        ),
    )
