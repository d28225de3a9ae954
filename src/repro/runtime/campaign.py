"""Declarative sweep campaigns: grids of simulation jobs, deduplicated.

A campaign is a named, ordered, duplicate-free collection of jobs.  The grid
builders cross workloads x policies x platforms -- either a TDP axis over one
base hardware description, or an explicit list of
:class:`~repro.hw.spec.HardwareSpec` variants (the hardware grid) -- and drop
jobs whose content hash has already been seen, so overlapping campaigns (or a
figure re-listing a workload under a second axis) never submit redundant work.

The named campaigns registered in :data:`CAMPAIGNS` back the ``python -m repro
run <campaign>`` CLI targets and the fleet's ``submit``/``fleet verify``; all
of them look a name up through :func:`resolve_campaign`.  Every factory
accepts an optional ``hardware`` base so ``--platform NAME --set key=value``
rebases a whole campaign onto a different platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import config
from repro.hw import HardwareSpec, resolve_hardware
from repro.runtime.jobs import Job, PolicySpec, SimSpec, SimulationJob, TraceSpec
from repro.workloads.batterylife import BATTERY_LIFE_WORKLOADS
from repro.workloads.graphics import GRAPHICS_BENCHMARKS
from repro.workloads.spec2006 import SPEC_CPU2006


@dataclass(frozen=True)
class Campaign:
    """A named, deduplicated batch of jobs."""

    name: str
    jobs: Tuple[Job, ...]
    description: str = ""

    def __post_init__(self) -> None:
        hashes = [job.content_hash for job in self.jobs]
        if len(set(hashes)) != len(hashes):
            raise ValueError(f"campaign {self.name!r} contains duplicate jobs")

    def __len__(self) -> int:
        return len(self.jobs)

    def with_sim(self, sim: SimSpec) -> "Campaign":
        """A copy whose simulation jobs all use ``sim`` (for capped smoke runs)."""
        jobs = tuple(
            replace(job, sim=sim) if isinstance(job, SimulationJob) else job
            for job in self.jobs
        )
        return Campaign(name=self.name, jobs=dedupe_jobs(jobs), description=self.description)


def dedupe_jobs(jobs: Iterable[Job]) -> Tuple[Job, ...]:
    """Drop jobs with an already-seen content hash, preserving order."""
    seen = set()
    unique: List[Job] = []
    for job in jobs:
        job_hash = job.content_hash
        if job_hash not in seen:
            seen.add(job_hash)
            unique.append(job)
    return tuple(unique)


def build_grid_campaign(
    name: str,
    traces: Sequence[TraceSpec],
    policies: Sequence[PolicySpec],
    tdps: Optional[Sequence[float]] = None,
    sim: SimSpec = SimSpec(),
    peripherals: Optional[str] = None,
    description: str = "",
    hardware: Optional[Union[str, HardwareSpec]] = None,
) -> Campaign:
    """Cross workloads x policies x TDPs into one campaign.

    The TDP axis is a delta over ``hardware`` (default: the registered
    ``skylake`` description), so the same grid can be rebased onto any
    platform variant.  An omitted axis *inherits* the base description's value
    rather than resetting it -- ``run scenarios --set tdp=7.0`` must sweep at
    7 W, not silently at the grid's historical default.
    """
    base = resolve_hardware(hardware)
    tdp_axis: Sequence[float] = tuple(tdps) if tdps is not None else (base.tdp,)
    jobs: List[Job] = []
    for tdp in tdp_axis:
        platform = base.derive(tdp=tdp)
        for trace in traces:
            for policy in policies:
                jobs.append(
                    SimulationJob(
                        trace=trace,
                        policy=policy,
                        platform=platform,
                        sim=sim,
                        peripherals=peripherals,
                    )
                )
    return Campaign(name=name, jobs=dedupe_jobs(jobs), description=description)


def sysscale_policy_for(spec: HardwareSpec) -> PolicySpec:
    """SysScale with the operating-point table matched to ``spec``'s DRAM family.

    The parameter-free form on LPDDR3 matches the headline campaigns, so
    those jobs dedupe against theirs; DDR4 variants name the DDR4 table.
    """
    if spec.dram.technology == "lpddr3":
        return PolicySpec.make("sysscale")
    return PolicySpec.make("sysscale", operating_points="ddr4")


def build_hardware_grid_campaign(
    name: str,
    traces: Sequence[TraceSpec],
    hardware: Sequence[Union[str, HardwareSpec]],
    policies: Optional[Sequence[PolicySpec]] = None,
    sim: SimSpec = SimSpec(),
    peripherals: Optional[str] = None,
    description: str = "",
) -> Campaign:
    """Cross workloads x policies x an explicit list of hardware variants.

    When ``policies`` is omitted, every variant gets the headline
    {baseline, SysScale} pair with the SysScale operating-point table matched
    to the variant's DRAM family (the DDR4 variants need the DDR4 table).
    """
    jobs: List[Job] = []
    for entry in hardware:
        spec = resolve_hardware(entry)
        variant_policies = policies
        if variant_policies is None:
            variant_policies = (PolicySpec.make("baseline"), sysscale_policy_for(spec))
        for trace in traces:
            for policy in variant_policies:
                jobs.append(
                    SimulationJob(
                        trace=trace,
                        policy=policy,
                        platform=spec,
                        sim=sim,
                        peripherals=peripherals,
                    )
                )
    return Campaign(name=name, jobs=dedupe_jobs(jobs), description=description)


# ---------------------------------------------------------------------------
# Named campaigns (CLI targets)
# ---------------------------------------------------------------------------

#: Representative SPEC subset for ``--quick`` runs (also used by the
#: evaluation-sweep example).
QUICK_SPEC_SUBSET: Tuple[str, ...] = (
    "400.perlbench", "416.gamess", "429.mcf", "433.milc", "436.cactusADM",
    "444.namd", "445.gobmk", "456.hmmer", "462.libquantum", "470.lbm",
    "473.astar", "482.sphinx3",
)

#: Default workload duration (seconds) for campaign traces.
CAMPAIGN_SPEC_DURATION = 1.0

BOTH_POLICIES = (PolicySpec.make("baseline"), PolicySpec.make("sysscale"))


def _spec_traces(quick: bool, duration: float = CAMPAIGN_SPEC_DURATION) -> List[TraceSpec]:
    names = QUICK_SPEC_SUBSET if quick else tuple(sorted(SPEC_CPU2006))
    return [TraceSpec.make("spec", name=name, duration=duration) for name in names]


def spec_tdp_campaign(
    quick: bool = False, hardware: Optional[Union[str, HardwareSpec]] = None
) -> Campaign:
    """SPEC x {baseline, SysScale} x the Table 2 TDP range (Fig. 10's grid)."""
    return build_grid_campaign(
        name="spec-tdp",
        traces=_spec_traces(quick),
        policies=BOTH_POLICIES,
        tdps=(config.SKYLAKE_TDP_RANGE[0], config.SKYLAKE_DEFAULT_TDP, config.SKYLAKE_TDP_RANGE[1]),
        description="SPEC CPU2006 x {baseline, SysScale} x {3.5, 4.5, 7.0} W",
        hardware=hardware,
    )


def evaluation_campaign(
    quick: bool = False, hardware: Optional[Union[str, HardwareSpec]] = None
) -> Campaign:
    """The paper's headline evaluation: SPEC + 3DMark + battery life (Figs. 7-9)."""
    platform = resolve_hardware(hardware)
    jobs: List[Job] = []
    for trace in _spec_traces(quick):
        for policy in BOTH_POLICIES:
            jobs.append(SimulationJob(trace=trace, policy=policy, platform=platform))
    for name in sorted(GRAPHICS_BENCHMARKS):
        for policy in BOTH_POLICIES:
            jobs.append(
                SimulationJob(
                    trace=TraceSpec.make("graphics", name=name),
                    policy=policy,
                    platform=platform,
                )
            )
    for name in sorted(BATTERY_LIFE_WORKLOADS):
        for policy in BOTH_POLICIES:
            jobs.append(
                SimulationJob(
                    trace=TraceSpec.make("battery_life", name=name),
                    policy=policy,
                    platform=platform,
                    peripherals="single_hd",
                )
            )
    return Campaign(
        name="evaluation",
        jobs=dedupe_jobs(jobs),
        description="SPEC + 3DMark + battery-life workloads under baseline and SysScale",
    )


def dram_device_campaign(
    quick: bool = False, hardware: Optional[Union[str, HardwareSpec]] = None
) -> Campaign:
    """SPEC x {baseline, SysScale} on LPDDR3 and DDR4 platforms (Sec. 7.4)."""
    base = resolve_hardware(hardware)
    traces = _spec_traces(quick)
    jobs: List[Job] = []
    for dram in ("lpddr3", "ddr4"):
        platform = base.derive(dram=dram)
        policies = (
            PolicySpec.make("baseline"),
            PolicySpec.make("sysscale", operating_points="default" if dram == "lpddr3" else "ddr4"),
        )
        for trace in traces:
            for policy in policies:
                jobs.append(SimulationJob(trace=trace, policy=policy, platform=platform))
    return Campaign(
        name="dram-device",
        jobs=dedupe_jobs(jobs),
        description="SPEC under baseline and SysScale on LPDDR3 vs. DDR4 platforms",
    )


#: Hardware-variant axis of the ``hw-variants`` campaign and the ``hwsweep``
#: experiment; ``--quick`` keeps the first three.
DEFAULT_HW_VARIANTS: Tuple[str, ...] = (
    "skylake", "broadwell", "skylake-lowleak", "skylake-7w", "skylake-ddr4",
)


def hw_variants_campaign(
    quick: bool = False, hardware: Optional[Union[str, HardwareSpec]] = None
) -> Campaign:
    """SPEC subset x {baseline, SysScale} x registered hardware variants.

    ``hardware`` (from ``--platform``/``--set``) replaces the whole variant
    axis with the single given platform -- useful to run the workload grid on
    one ad-hoc description.
    """
    variants: Sequence[Union[str, HardwareSpec]]
    if hardware is not None:
        variants = (resolve_hardware(hardware),)
    else:
        variants = DEFAULT_HW_VARIANTS[:3] if quick else DEFAULT_HW_VARIANTS
    return build_hardware_grid_campaign(
        name="hw-variants",
        traces=_spec_traces(True),
        hardware=variants,
        description=(
            f"SPEC subset x {{baseline, SysScale}} x {len(variants)} "
            "hardware variant(s)"
        ),
    )


#: ``--quick`` scenario subset: one representative per generator family.
QUICK_SCENARIO_SUBSET: Tuple[str, ...] = (
    "bursty-heavy", "periodic-fast", "ramp-up", "idle-mostly",
    "thrash-sustained", "gfx-interference-light", "io-stream-hd",
    "markov-mobile-day",
)

#: Full scenario-sweep policy set; ``--quick`` drops the static MD-DVFS arm.
SCENARIO_POLICIES = (
    PolicySpec.make("baseline"),
    PolicySpec.make("sysscale"),
    PolicySpec.make("md_dvfs"),
)


def scenario_campaign(
    quick: bool = False, hardware: Optional[Union[str, HardwareSpec]] = None
) -> Campaign:
    """The synthesized-scenario catalog crossed with the policy set.

    The full grid is every catalog scenario x {baseline, SysScale, MD-DVFS};
    ``quick`` reduces to one scenario per generator family under the two
    headline policies.
    """
    # Deferred import: repro.runtime.__init__ imports this module, and the
    # scenario registry imports repro.runtime.jobs -- a top-level import here
    # would close that cycle.
    from repro.scenarios.registry import SCENARIOS, catalog_trace_specs

    names = QUICK_SCENARIO_SUBSET if quick else tuple(sorted(SCENARIOS))
    policies = BOTH_POLICIES if quick else SCENARIO_POLICIES
    return build_grid_campaign(
        name="scenarios",
        traces=catalog_trace_specs(names),
        policies=policies,
        description=(
            f"{len(names)} synthesized scenario(s) x "
            f"{len(policies)} polic(ies) (repro.scenarios catalog)"
        ),
        hardware=hardware,
    )


#: Campaigns runnable by name from the CLI; each factory takes ``quick`` and an
#: optional ``hardware`` base (the ``--platform``/``--set`` override).
CAMPAIGNS: Dict[str, Callable[..., Campaign]] = {
    "spec-tdp": spec_tdp_campaign,
    "evaluation": evaluation_campaign,
    "dram-device": dram_device_campaign,
    "scenarios": scenario_campaign,
    "hw-variants": hw_variants_campaign,
}


def resolve_campaign(
    name: str,
    quick: bool = False,
    max_time: Optional[float] = None,
    hardware: Optional[Union[str, HardwareSpec]] = None,
) -> Campaign:
    """A named catalog campaign, optionally rebased onto ``hardware`` and
    capped at ``max_time`` simulated seconds per job for smoke runs."""
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r} (known: {known})") from None
    campaign = factory(quick=quick, hardware=hardware)
    if max_time is not None:
        campaign = campaign.with_sim(SimSpec(max_simulated_time=max_time))
    return campaign
