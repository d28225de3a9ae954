#!/usr/bin/env python3
"""Regenerate the paper's headline evaluation (Figs. 7, 8, 9) in one run.

Runs the full SPEC CPU2006 suite, the three 3DMark variants, and the four
battery-life workloads under the baseline, SysScale, and the projected
MemScale-Redist / CoScale-Redist comparison points, then prints the per-workload
rows and the averages next to the numbers the paper reports.

Everything goes through the :class:`repro.api.Session` facade: ``--jobs N``
fans the simulations out over N worker processes, and the content-addressed
result cache makes warm reruns near-instant (the summary line reports how many
simulations were served from cache).  Each figure comes back as a structured
``ExperimentReport`` whose tables/metrics are read by key -- the same document
``python -m repro run fig7 --json`` exports.

Run with::

    python examples/evaluation_sweep.py                # full SPEC suite (slower)
    python examples/evaluation_sweep.py --quick        # representative SPEC subset
    python examples/evaluation_sweep.py --jobs 4       # four worker processes
    python examples/evaluation_sweep.py --no-cache     # always simulate
"""

from __future__ import annotations

import argparse

from repro.api import Session
from repro.experiments import format_table
from repro.obs import Console
from repro.runtime.cache import default_cache_dir

ui = Console()

PAPER_NUMBERS = {
    "fig7": {"memscale_redist": 0.017, "coscale_redist": 0.038, "sysscale": 0.092},
    "fig8": {"3DMark06": 0.089, "3DMark11": 0.067, "3DMark Vantage": 0.081},
    "fig9": {
        "web_browsing": 0.064, "light_gaming": 0.095,
        "video_conferencing": 0.076, "video_playback": 0.107,
    },
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use a 12-benchmark SPEC subset")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial execution)",
    )
    parser.add_argument(
        "--cache-dir", default=default_cache_dir(), metavar="DIR",
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    args = parser.parse_args()

    ui.out("Building the session (platform + threshold calibration) ...")
    session = Session(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        duration=0.5 if args.quick else 1.0,
    )

    # ---- Fig. 7: SPEC CPU2006 ------------------------------------------------
    ui.out("\nRunning the SPEC CPU2006 evaluation (Fig. 7) ...")
    fig7 = session.run("fig7", quick=args.quick)
    rows = fig7.block("rows").records()
    ui.out(format_table(rows, ["workload", "memscale_redist", "coscale_redist", "sysscale"]))
    ui.out("averages (measured vs. paper):")
    for technique, paper_value in PAPER_NUMBERS["fig7"].items():
        average = fig7.block(f"average/{technique}").value
        ui.out(f"  {technique:16s} {average:6.1%}   (paper {paper_value:.1%})")

    # ---- Fig. 8: 3DMark --------------------------------------------------------
    ui.out("\nRunning the 3DMark evaluation (Fig. 8) ...")
    fig8 = session.run("fig8").block("rows").records()
    ui.out(format_table(fig8, ["workload", "memscale_redist", "coscale_redist", "sysscale"]))
    for row in fig8:
        paper_value = PAPER_NUMBERS["fig8"][row["workload"]]
        ui.out(f"  {row['workload']:16s} {row['sysscale']:6.1%}   (paper {paper_value:.1%})")

    # ---- Fig. 9: battery life --------------------------------------------------
    ui.out("\nRunning the battery-life evaluation (Fig. 9) ...")
    fig9 = session.run("fig9").block("rows").records()
    ui.out(format_table(
        fig9, ["workload", "baseline_power_w", "memscale_redist", "coscale_redist", "sysscale"]
    ))
    for row in fig9:
        paper_value = PAPER_NUMBERS["fig9"][row["workload"]]
        ui.out(f"  {row['workload']:20s} {row['sysscale']:6.1%}   (paper {paper_value:.1%})")

    # ---- Runtime accounting ----------------------------------------------------
    ui.out(f"\nruntime: {session.summary()}")
    if session.runtime.cache is not None:
        ui.out(f"cache: {session.runtime.cache.root} ({len(session.runtime.cache)} entries)")


if __name__ == "__main__":
    main()
