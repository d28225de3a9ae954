"""Every job of the quick fleet campaigns matches its golden record.

``tests/fixtures/golden/fleet_quick.json`` pins the content hash and payload
digest of each of the 88 jobs in the quick ``scenarios`` and ``hw-variants``
campaigns.  This test reruns both campaigns serially with no cache and names
each job whose hash or payload moved, where the benchmark's sweep-level pins
only say that some job in the sweep did.  It only reads the manifest:
``tests/fixtures/golden/regenerate.py`` is the one way to rewrite it, and a
regeneration is a deliberate behaviour migration.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
MANIFEST = json.loads(generator.MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("campaign", generator.CAMPAIGNS)
def test_every_job_matches_its_golden_record(campaign):
    pinned = MANIFEST["campaigns"][campaign]
    ours = generator.job_records(campaign)
    drifted = []
    for index, (old, new) in enumerate(zip(pinned, ours)):
        if old["hash"] != new["hash"]:
            drifted.append(
                f"#{index} {old['label']}: job hash {old['hash'][:12]} -> {new['hash'][:12]}"
            )
        elif old["digest"] != new["digest"]:
            drifted.append(
                f"#{index} {old['label']} ({old['hash'][:12]}): "
                f"payload digest {old['digest'][:12]} -> {new['digest'][:12]}"
            )
    if len(pinned) != len(ours):
        drifted.append(f"campaign has {len(ours)} jobs, the manifest pins {len(pinned)}")
    assert not drifted, f"{campaign}: {len(drifted)} job(s) drifted:\n" + "\n".join(drifted)
