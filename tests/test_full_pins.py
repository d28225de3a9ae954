"""Every full-size experiment output matches its digest in ``perfbench/pins.json``.

The benchmark pins a SHA-256 digest of each experiment's full-mode
``results_dict()`` (the ``repro`` -> ``full`` entries).  This test recomputes
the digests from the session's full-mode run with the benchmark's own
``perfbench/workloads.py::digest``, so a byte drift in any experiment fails
tier-1 and names the experiment.  It only reads the file:
``python3 perfbench/run.py --update-pins`` is the one way to regenerate it, and
a regeneration is a deliberate behaviour migration.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))["repro"]["full"]


def _load_digest():
    """``digest`` from ``perfbench/workloads.py`` (stdlib-only at import)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digest


digest = _load_digest()


@pytest.mark.parametrize("experiment", sorted(PINS))
def test_full_output_matches_pin(full_reports, experiment):
    ours = digest(full_reports[experiment].results_dict())
    assert ours == PINS[experiment], (
        f"{experiment}: full-mode results_dict() drifted from perfbench/pins.json "
        f"(pinned {PINS[experiment][:12]}..., now {ours[:12]}...)"
    )
