"""One benchmark pass in a fresh interpreter; ``run.py`` spawns it.

Set-up is what every user pays before the first job: importing ``repro`` and
``repro.fleet``, building the default platform with ``platform_for``, and
calibrating its SysScale thresholds.  ``setup_s`` runs from the parent's
spawn timestamp to the end of set-up, so it includes interpreter start.
Then the workload's timed phase runs once, with the reference kernel timed
right before and after it (``reference_s``).  With ``--trace-out`` the layer
wrappers are installed before set-up, and the per-layer metrics and span
file are produced after the timed phase.

The pass prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    import repro.fleet  # noqa: F401
    from repro.runtime import jobs

    import layertrace
    import reference
    import workloads

    tracer = layertrace.install() if args.trace_out is not None else None
    platform = jobs.platform_for(jobs.PlatformSpec())
    jobs.PolicySpec.make("sysscale").build(platform)
    setup_s = time.time() - args.spawned_at

    before = reference.reference_seconds()
    result = workloads.run_pass(args.workload, args.size, args.seed, args.work_dir, args.cache)
    result["reference_s"] = (before + reference.reference_seconds()) / 2
    result["setup_s"] = setup_s
    if tracer is not None:
        tracer.active = False
        from repro.experiments import registry

        result["layers"] = layertrace.layer_metrics(tracer, list(registry()))
        tracer.write_spans(args.trace_out)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
