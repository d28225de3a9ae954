"""The paper's claims, checked against one full-size run of every experiment.

SysScale's evaluation comes down to a few numbers -- a 9.2 % SPEC average (up
to 16 %), 8.9 / 6.7 / 8.1 % on 3DMark, 6.4-10.7 % lower battery-life power,
19.1 % at a 3.5 W TDP -- and a few shapes: who wins, in which direction, and by
roughly what factor.  ``CLAIMS`` holds one row per claim: its id, the figure,
the paper's value (``None`` where the paper gives no single number), the band
our value must fall in, the reason for that band, and how the value is read.
The substrate is a simulator, not the authors' silicon, so most bands bound a
shape rather than pin the paper's number.

A band is ``lo``..``hi`` (``None`` leaves a side open); ``ends`` says which
ends are inclusive, in interval notation: ``"()"`` by default, ``"[)"``,
``"(]"`` or ``"[]"``.  A failing claim reads::

    fig7.average.sysscale (Fig. 7): ours 0.07433217722642091, paper 0.092, band (0.04, 0.15)
      -- SPEC's average gain lands in the paper's single digits

Every value is read from the session's full-mode reports through the typed
block API: metric values by block key, table rows picked by column values, and
series points.  A missing block, row or column raises; no claim is skipped.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import pytest

from repro.experiments import ExperimentReport

Reports = Dict[str, ExperimentReport]
Read = Callable[[Reports], Any]


@dataclass(frozen=True)
class Claim:
    id: str
    figure: str
    paper: Optional[float]
    lo: Optional[float]
    hi: Optional[float]
    reason: str
    read: Read
    ends: str = "()"

    def __post_init__(self) -> None:
        if self.ends not in ("()", "[)", "(]", "[]"):
            raise ValueError(f"{self.id}: ends must be interval brackets, got {self.ends!r}")

    @property
    def band(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "inf" if self.hi is None else f"{self.hi:g}"
        return f"{self.ends[0]}{lo}, {hi}{self.ends[1]}"

    def holds(self, value: Any) -> bool:
        above = operator.ge if self.ends[0] == "[" else operator.gt
        below = operator.le if self.ends[1] == "]" else operator.lt
        return (self.lo is None or above(value, self.lo)) and (
            self.hi is None or below(value, self.hi)
        )


# ---------------------------------------------------------------------------
# Readers: small combinators over the typed block API
# ---------------------------------------------------------------------------


def metric(experiment: str, key: str) -> Read:
    return lambda reports: reports[experiment].block(key).value


def records(reports: Reports, experiment: str, table: str) -> List[Dict[str, Any]]:
    return reports[experiment].block(table).records()


def cell(experiment: str, table: str, column: str, **match: Any) -> Read:
    """``column`` of the one row of ``table`` whose cells equal ``match``."""

    def read(reports: Reports) -> Any:
        rows = [
            row
            for row in records(reports, experiment, table)
            if all(row[name] == value for name, value in match.items())
        ]
        if len(rows) != 1:
            raise LookupError(f"{experiment}/{table}: {len(rows)} rows match {match}")
        return rows[0][column]

    return read


def ratio(numerator: Read, denominator: Read) -> Read:
    """``numerator / denominator``; a non-positive denominator raises."""

    def read(reports: Reports) -> float:
        below = denominator(reports)
        if below <= 0:
            raise ValueError(f"ratio over a non-positive denominator {below!r}")
        return numerator(reports) / below

    return read


def diff(first: Read, second: Read, times: float = 1) -> Read:
    """``first - times * second``: an ordering is a sign, exactly."""
    return lambda reports: first(reports) - times * second(reports)


def bandwidth(reports: Reports, workload: str) -> List[float]:
    """One Fig. 3(a) timeline's bandwidth samples, in GB/s."""
    points = reports["fig3"].block(f"timelines/{workload}").points()
    return [point["bandwidth_gbps"] for point in points]


def mean_degradation(low_ghz: float) -> Read:
    """Fig. 6's mean degradation over the panels that drop to ``low_ghz``."""

    def read(reports: Reports) -> float:
        values = [
            panel["mean_degradation"]
            for panel in records(reports, "fig6", "panels")
            if panel["low_ghz"] == low_ghz
        ]
        if not values:
            raise LookupError(f"fig6/panels: no panel drops to {low_ghz} GHz")
        return sum(values) / len(values)

    return read


def slug(name: str) -> str:
    return name.replace(" ", "_")


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

FIG2_WORKLOADS = ("400.perlbench", "436.cactusADM", "470.lbm")
FIG6_PANELS = tuple(
    (workload_class, high, low)
    for workload_class in ("cpu_single_thread", "cpu_multi_thread", "graphics")
    for high, low in ((1.6, 0.8), (1.6, 1.06), (2.13, 1.06))
)
#: The paper's per-variant SysScale gains (Fig. 8) and power reductions (Fig. 9).
FIG8_PAPER = {"3DMark06": 0.089, "3DMark11": 0.067, "3DMark Vantage": 0.081}
FIG9_PAPER = {
    "web_browsing": 0.064,
    "light_gaming": 0.095,
    "video_conferencing": 0.076,
    "video_playback": 0.107,
}


def _table1(component: str, column: str) -> Read:
    return cell("table1", "rows", column, component=component)


def _table2(parameter: str) -> Read:
    return cell("table2", "rows", "value", parameter=parameter)


def _fig3(configuration: str) -> Read:
    return cell("fig3", "component_demand", "fraction_of_peak", configuration=configuration)


def _fig10(column: str, tdp_w: float) -> Read:
    return cell("fig10", "rows", column, tdp_w=tdp_w)


CLAIMS = (
    # -- Table 1: the static MD-DVFS setup -----------------------------------
    Claim("table1.dram_ghz.baseline", "Table 1", 1.6, 1.6, 1.6,
          "the baseline runs LPDDR3 at its top 1.6 GHz bin",
          _table1("DRAM frequency (GHz)", "baseline"), ends="[]"),
    Claim("table1.dram_ghz.md_dvfs", "Table 1", 1.06, 1.06, 1.06,
          "MD-DVFS drops DRAM one bin, to 1.06 GHz",
          _table1("DRAM frequency (GHz)", "md_dvfs"), ends="[]"),
    Claim("table1.interconnect_ghz.md_dvfs", "Table 1", 0.4, 0.4, 0.4,
          "MD-DVFS halves the IO interconnect clock",
          _table1("IO interconnect (GHz)", "md_dvfs"), ends="[]"),
    Claim("table1.v_sa_scale.md_dvfs", "Table 1", 0.8, 0.8, 0.8,
          "MD-DVFS scales the shared V_SA rail to 0.8x",
          _table1("Shared voltage (x V_SA)", "md_dvfs"), ends="[]"),
    Claim("table1.v_io_scale.md_dvfs", "Table 1", 0.85, 0.85, 0.85,
          "MD-DVFS scales the DDRIO digital V_IO rail to 0.85x",
          _table1("DDRIO digital (x V_IO)", "md_dvfs"), ends="[]"),
    # -- Table 2: the evaluated SoC ------------------------------------------
    Claim("table2.cpu_base_ghz", "Table 2", 1.2, 1.2, 1.2,
          "Skylake M-6Y75 core base frequency",
          _table2("CPU core base frequency (GHz)"), ends="[]"),
    Claim("table2.gfx_base_mhz", "Table 2", 300, 300, 300,
          "graphics engine base frequency",
          _table2("Graphics engine base frequency (MHz)"), ends="[]"),
    Claim("table2.llc_mib", "Table 2", 4, 4, 4,
          "last-level cache size", _table2("L3 cache / LLC (MiB)"), ends="[]"),
    Claim("table2.tdp_w", "Table 2", 4.5, 4.5, 4.5,
          "the evaluation's thermal design power",
          _table2("Thermal design power (W)"), ends="[]"),
    Claim("table2.peak_bandwidth_gbps", "Table 2", 25.6, 25.6, 25.6,
          "2-channel LPDDR3-1600 peak bandwidth",
          _table2("Peak memory bandwidth (GB/s)"), ends="[]"),
    # -- Fig. 2: static MD-DVFS on the motivation trio -----------------------
    Claim("fig2.workloads", "Fig. 2", 3, 3, 3,
          "the motivation study uses exactly perlbench, cactusADM and lbm",
          lambda reports: len(records(reports, "fig2", "impact")), ends="[]"),
    *(
        Claim(f"fig2.power_reduction.{workload}", "Fig. 2", 0.10, 0.05, 0.25,
              "static MD-DVFS saves about 10% average power whatever the workload",
              cell("fig2", "impact", "power_reduction", workload=workload))
        for workload in FIG2_WORKLOADS
    ),
    Claim("fig2.performance.400.perlbench", "Fig. 2", None, -0.03, None,
          "compute-bound perlbench barely notices the slower memory",
          cell("fig2", "impact", "performance_change", workload="400.perlbench")),
    Claim("fig2.performance.436.cactusADM", "Fig. 2", None, None, -0.05,
          "latency-bound cactusADM loses clearly under MD-DVFS",
          cell("fig2", "impact", "performance_change", workload="436.cactusADM")),
    Claim("fig2.performance.470.lbm", "Fig. 2", None, None, -0.08,
          "bandwidth-bound lbm loses most under MD-DVFS",
          cell("fig2", "impact", "performance_change", workload="470.lbm")),
    Claim("fig2.redistributed.400.perlbench", "Fig. 2", 0.08, 0.03, None,
          "giving the saved power to the cores speeds perlbench up (~8%)",
          cell("fig2", "impact", "performance_with_redistribution",
               workload="400.perlbench")),
    Claim("fig2.redistributed.470.lbm", "Fig. 2", None, None, 0.02,
          "redistribution cannot help memory-bound lbm",
          cell("fig2", "impact", "performance_with_redistribution", workload="470.lbm")),
    Claim("fig2.latency_minus_bandwidth_bound.436.cactusADM", "Fig. 2", None, 0, None,
          "cactusADM is more latency- than bandwidth-bound",
          diff(cell("fig2", "bottlenecks", "memory_latency_bound", workload="436.cactusADM"),
               cell("fig2", "bottlenecks", "memory_bandwidth_bound",
                    workload="436.cactusADM"))),
    Claim("fig2.bandwidth_bound.470.lbm", "Fig. 2", None, 0.4, None,
          "lbm spends most of its time bandwidth-bound",
          cell("fig2", "bottlenecks", "memory_bandwidth_bound", workload="470.lbm")),
    # -- Fig. 3: bandwidth demand --------------------------------------------
    Claim("fig3.fraction_of_peak.single_hd", "Fig. 3", 0.17, 0.15, 0.19,
          "one HD panel takes about 17% of peak bandwidth", _fig3("single_hd")),
    Claim("fig3.fraction_of_peak.single_4k", "Fig. 3", 0.70, 0.67, 0.73,
          "one 4K panel takes about 70% of peak bandwidth", _fig3("single_4k")),
    Claim("fig3.fraction_of_peak.triple_hd", "Fig. 3", 0.51, 0.48, 0.54,
          "three HD panels take about 51% of peak bandwidth", _fig3("triple_hd"), ends="[]"),
    Claim("fig3.triple_minus_3x_single_hd", "Fig. 3", 0.0, -0.01, 0.01,
          "display demand scales linearly with the number of panels",
          diff(_fig3("triple_hd"), _fig3("single_hd"), times=3)),
    Claim("fig3.peak_over_trough.473.astar", "Fig. 3", None, 2.0, None,
          "astar's demand swings between low and high phases over time",
          ratio(lambda reports: max(bandwidth(reports, "473.astar")),
                lambda reports: min(bandwidth(reports, "473.astar")))),
    Claim("fig3.trough_gbps.470.lbm", "Fig. 3", None, 8.0, None,
          "lbm's demand stays high throughout",
          lambda reports: min(bandwidth(reports, "470.lbm"))),
    # -- Fig. 4: unoptimized MRC values --------------------------------------
    Claim("fig4.performance_degradation", "Fig. 4", 0.10, 0.05, 0.20,
          "stale MRC values cost about 10% on a peak-bandwidth microbenchmark",
          metric("fig4", "performance_degradation")),
    Claim("fig4.memory_power_increase", "Fig. 4", 0.22, 0.05, None,
          "stale MRC values raise memory power substantially",
          metric("fig4", "memory_power_increase")),
    Claim("fig4.unoptimized_minus_optimized_gbps", "Fig. 4", None, None, 0,
          "stale MRC values deliver less bandwidth",
          diff(metric("fig4", "unoptimized_bandwidth_gbps"),
               metric("fig4", "optimized_bandwidth_gbps"))),
    # -- Fig. 5 / Sec. 5: the transition flow --------------------------------
    Claim("fig5.within_budget", "Fig. 5", True, True, True,
          "every transition fits the flow's latency budget",
          metric("fig5", "within_budget"), ends="[]"),
    Claim("fig5.worst_latency_minus_budget_us", "Fig. 5", None, None, 0,
          "the slowest transition fits the paper's 10 us budget",
          diff(metric("fig5", "worst_latency_us"), metric("fig5", "budget_us")), ends="(]"),
    Claim("fig5.transitions", "Fig. 5", 2, 2, 2,
          "the flow is exercised high->low and low->high",
          lambda reports: len(records(reports, "fig5", "transitions")), ends="[]"),
    Claim("fig5.increasing_transitions", "Fig. 5", None, 1, None,
          "the frequency-raising direction is among them",
          lambda reports: sum(
              row["increasing_frequency"] for row in records(reports, "fig5", "transitions")
          ), ends="[)"),
    # -- Fig. 6: demand-prediction accuracy ----------------------------------
    Claim("fig6.evaluation_points", "Fig. 6", 1600, 1600, None,
          "the paper evaluates the predictor on more than 1600 points",
          metric("fig6", "total_evaluation_points"), ends="[)"),
    Claim("fig6.mean_accuracy", "Fig. 6", None, 0.85, None,
          "the paper's nine panels range 94.2-98.8%; ours must be high on average",
          metric("fig6", "mean_accuracy")),
    Claim("fig6.minimum_accuracy", "Fig. 6", 0.942, 0.45, None,
          "the synthetic corpus has one weak panel (graphics at 1.6->1.06 GHz, where"
          " many workloads sit within a fraction of a percent of the degradation"
          " bound), so the mean is bounded tightly and the worst panel loosely",
          metric("fig6", "minimum_accuracy")),
    Claim("fig6.false_positive_share", "Fig. 6", 0.0, None, 0.05,
          "the paper sees no false positives; at most 5% of points may be",
          ratio(metric("fig6", "total_false_positives"),
                metric("fig6", "total_evaluation_points")), ends="(]"),
    *(
        Claim(f"fig6.correlation.{workload_class}.{high:g}-{low:g}GHz", "Fig. 6", None,
              0.5, None, "predicted and actual degradation correlate in every panel",
              cell("fig6", "panels", "correlation",
                   workload_class=workload_class, high_ghz=high, low_ghz=low))
        for workload_class, high, low in FIG6_PANELS
    ),
    Claim("fig6.degradation_0.8_minus_1.06GHz", "Fig. 6", None, 0, None,
          "dropping DRAM to 0.8 GHz hurts more than dropping to 1.06 GHz (Sec. 7.4)",
          diff(mean_degradation(0.8), mean_degradation(1.06))),
    # -- Fig. 7: SPEC CPU2006 ------------------------------------------------
    Claim("fig7.average.sysscale", "Fig. 7", 0.092, 0.04, 0.15,
          "SPEC's average gain lands in the paper's single digits",
          metric("fig7", "average/sysscale")),
    Claim("fig7.max.sysscale", "Fig. 7", 0.16, 0.10, 0.25,
          "SysScale's best SPEC case is well into double digits",
          metric("fig7", "max/sysscale")),
    Claim("fig7.average.sysscale_over_coscale", "Fig. 7", 0.092 / 0.038, 1.5, None,
          "SysScale's average beats CoScale-R's by a clear factor",
          ratio(metric("fig7", "average/sysscale"),
                metric("fig7", "average/coscale_redist"))),
    Claim("fig7.average.coscale_minus_memscale", "Fig. 7", 0.038 - 0.017, 0, None,
          "CoScale-R beats MemScale-R on average",
          diff(metric("fig7", "average/coscale_redist"),
               metric("fig7", "average/memscale_redist"))),
    Claim("fig7.sysscale.410.bwaves", "Fig. 7", None, None, 0.02,
          "memory-bound bwaves gains about nothing",
          cell("fig7", "rows", "sysscale", workload="410.bwaves")),
    *(
        Claim(f"fig7.sysscale.{workload}", "Fig. 7", None, -0.01, 0.02,
              "memory-bound workloads gain about nothing and never regress",
              cell("fig7", "rows", "sysscale", workload=workload), ends="[)")
        for workload in ("433.milc", "470.lbm")
    ),
    *(
        Claim(f"fig7.sysscale.{workload}", "Fig. 7", None, 0.10, None,
              "frequency-scalable workloads gain double digits",
              cell("fig7", "rows", "sysscale", workload=workload))
        for workload in ("416.gamess", "444.namd")
    ),
    # -- Fig. 8: 3DMark ------------------------------------------------------
    *(
        claim
        for workload, paper in FIG8_PAPER.items()
        for claim in (
            Claim(f"fig8.sysscale.{slug(workload)}", "Fig. 8", paper, 0.02, 0.15,
                  "SysScale lifts every 3DMark variant by single digits",
                  cell("fig8", "rows", "sysscale", workload=workload)),
            Claim(f"fig8.sysscale_over_memscale.{slug(workload)}", "Fig. 8", None,
                  1.5, None, "SysScale gains several times what MemScale-R does",
                  ratio(cell("fig8", "rows", "sysscale", workload=workload),
                        cell("fig8", "rows", "memscale_redist", workload=workload))),
            Claim(f"fig8.memscale_minus_coscale.{slug(workload)}", "Fig. 8", None,
                  -0.01, 0.01,
                  "MemScale-R and CoScale-R nearly tie: the CPU already runs at its floor",
                  diff(cell("fig8", "rows", "memscale_redist", workload=workload),
                       cell("fig8", "rows", "coscale_redist", workload=workload))),
        )
    ),
    *(
        Claim(f"fig8.3DMark11_minus_{slug(other)}", "Fig. 8",
              FIG8_PAPER["3DMark11"] - FIG8_PAPER[other], None, 0,
              "3DMark11 is the most bandwidth-hungry variant and benefits least",
              diff(cell("fig8", "rows", "sysscale", workload="3DMark11"),
                   cell("fig8", "rows", "sysscale", workload=other)), ends="(]")
        for other in ("3DMark06", "3DMark Vantage")
    ),
    # -- Fig. 9: battery-life power ------------------------------------------
    *(
        claim
        for workload, paper in FIG9_PAPER.items()
        for claim in (
            Claim(f"fig9.sysscale.{workload}", "Fig. 9", paper, 0.03, 0.20,
                  "SysScale cuts battery-life power by roughly 6-11%",
                  cell("fig9", "rows", "sysscale", workload=workload)),
            Claim(f"fig9.sysscale_over_memscale.{workload}", "Fig. 9", None, 1.5, None,
                  "SysScale saves several times what the prior techniques do (paper ~5x)",
                  ratio(cell("fig9", "rows", "sysscale", workload=workload),
                        cell("fig9", "rows", "memscale_redist", workload=workload))),
            Claim(f"fig9.memscale_minus_coscale.{workload}", "Fig. 9", None, -0.01, 0.01,
                  "the prior techniques are equal for these workloads",
                  diff(cell("fig9", "rows", "memscale_redist", workload=workload),
                       cell("fig9", "rows", "coscale_redist", workload=workload))),
        )
    ),
    *(
        Claim(f"fig9.{workload}_minus_web_browsing", "Fig. 9",
              FIG9_PAPER[workload] - FIG9_PAPER["web_browsing"], 0, None,
              "web browsing saves least, as in the paper",
              diff(cell("fig9", "rows", "sysscale", workload=workload),
                   cell("fig9", "rows", "sysscale", workload="web_browsing")))
        for workload in ("video_playback", "light_gaming")
    ),
    # -- Fig. 10: TDP sensitivity --------------------------------------------
    Claim("fig10.average.3.5W_over_4.5W", "Fig. 10", 0.191 / 0.092, 1.3, None,
          "the benefit grows as the TDP shrinks (19.1% at 3.5 W vs. 9.2% at 4.5 W)",
          ratio(_fig10("average", 3.5), _fig10("average", 4.5))),
    Claim("fig10.average.4.5W_minus_7W", "Fig. 10", None, 0, None,
          "the benefit fades as the TDP grows",
          diff(_fig10("average", 4.5), _fig10("average", 7.0))),
    Claim("fig10.average.7W_minus_15W", "Fig. 10", None, 0, None,
          "the benefit fades as the TDP grows",
          diff(_fig10("average", 7.0), _fig10("average", 15.0)), ends="[)"),
    Claim("fig10.max.3.5W", "Fig. 10", 0.33, 0.15, None,
          "at 3.5 W the best case is well into double digits (paper up to 33%)",
          _fig10("max", 3.5)),
    Claim("fig10.average.15W", "Fig. 10", None, None, 0.05,
          "at 15 W power is no longer scarce, so there is little to gain",
          _fig10("average", 15.0)),
    # -- Sec. 7.4: DRAM device and operating-point sensitivity ---------------
    Claim("sensitivity.ddr4_minus_lpddr3_savings_w", "Sec. 7.4", None, None, 0,
          "scaling DDR4 frees somewhat less power than scaling LPDDR3 (paper ~7% less)",
          diff(metric("sensitivity", "ddr4_power_savings_w"),
               metric("sensitivity", "lpddr3_power_savings_w"))),
    Claim("sensitivity.degradation_0.8_over_1.06GHz", "Sec. 7.4", None, 1.5, None,
          "the 0.8 GHz bin hurts performance 2-3x more than the 1.06 GHz bin",
          metric("sensitivity", "degradation_ratio_0p8_vs_1p06")),
    Claim("sensitivity.extra_0.8_bin_over_lpddr3_savings", "Sec. 7.4", None, None, 0.5,
          "V_SA is already at Vmin, so the 0.8 GHz bin frees little more power;"
          " two operating points suffice",
          ratio(metric("sensitivity", "extra_savings_from_0p8_bin_w"),
                metric("sensitivity", "lpddr3_power_savings_w"))),
)


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(set(ids)) == len(ids)


def test_readers_raise_on_a_missing_block_row_or_column(full_reports):
    with pytest.raises(KeyError):
        metric("fig7", "average/nonexistent")(full_reports)
    with pytest.raises(LookupError):
        _table1("IO Interconnect (GHz)", "md_dvfs")(full_reports)
    with pytest.raises(KeyError):
        cell("fig7", "rows", "nonexistent", workload="470.lbm")(full_reports)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(full_reports, claim):
    value = claim.read(full_reports)
    paper = "none" if claim.paper is None else f"{claim.paper:g}"
    assert claim.holds(value), (
        f"{claim.id} ({claim.figure}): ours {value!r}, paper {paper}, "
        f"band {claim.band}\n  -- {claim.reason}"
    )
