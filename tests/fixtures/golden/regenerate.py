"""Regenerate ``fleet_quick.json``, the per-job golden manifest.

    PYTHONPATH=src python tests/fixtures/golden/regenerate.py

The manifest pins every job of the quick ``scenarios`` (16 jobs) and
``hw-variants`` (72 jobs) fleet campaigns, capped at ``MAX_TIME`` simulated
seconds the way the benchmark's tiny fleet pass and the CI fleet smoke run
them.  Each record holds the job's label, its content hash, and the digest of
the payload it produces when run serially with no cache.  Digests come from
``perfbench/workloads.py::digest``, the benchmark's own pin format.
``tests/test_golden_jobs.py`` recomputes the records and names every job that
drifted.

This script is the only writer of the manifest.  A regeneration is a
deliberate behaviour migration: record it in CHANGES.md with the jobs that
moved and why.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "fleet_quick.json"
PERFBENCH = HERE.parents[2] / "perfbench"
CAMPAIGNS = ("scenarios", "hw-variants")
MAX_TIME = 0.05


def _load_digest():
    """``digest`` from ``perfbench/workloads.py`` (stdlib-only at import)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digest


digest = _load_digest()


def job_records(name: str) -> List[Dict[str, str]]:
    """One ``{label, hash, digest}`` record per job of campaign ``name``, in order."""
    from repro.fleet import resolve_campaign
    from repro.runtime.jobs import execute_job

    campaign = resolve_campaign(name, quick=True, max_time=MAX_TIME)
    return [
        {"label": job.label, "hash": job.content_hash, "digest": digest(execute_job(job))}
        for job in campaign.jobs
    ]


def build_manifest() -> Dict[str, Any]:
    return {
        "quick": True,
        "max_time": MAX_TIME,
        "campaigns": {name: job_records(name) for name in CAMPAIGNS},
    }


def main() -> int:
    manifest = build_manifest()
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    jobs = sum(len(records) for records in manifest["campaigns"].values())
    print(f"wrote {jobs} job record(s) to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
