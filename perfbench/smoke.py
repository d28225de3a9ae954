"""Smoke test of the benchmark harness at its tiny size (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload with ``--trace 0`` and ``--trace 1``, that the run
exits 0, that its last line has exactly the result keys, and that every
metric named in ``BENCHMARK.json`` is emitted with its unit.  Then checks
that the output gate fires on a tampered pinned digest, and that the harness
refuses to run without the ``repro`` source tree.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(args: List[str], cwd: Path = ROOT) -> Tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout


def last_json(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_metrics(label: str, result: Optional[dict], wanted: List[dict]) -> List[str]:
    if result is None or set(result) != RESULT_KEYS:
        return [f"{label}: last line is not a result object"]
    failures = []
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        failures.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        entry = metrics.get(metric["name"])
        if entry is None or entry.get("unit") != metric["unit"]:
            failures.append(f"{label}: {metric['name']} missing or has the wrong unit")
        elif not isinstance(entry.get("value"), (int, float)):
            failures.append(f"{label}: {metric['name']} has no numeric value")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: List[str] = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, out = bench(["--workload", workload, "--size", "tiny", "--trace", str(trace)])
            if code != 0:
                failures.append(f"{label}: exit code {code}")
            failures += check_metrics(label, last_json(out), spec[kind])
            print(f"checked {label}")

    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as temp:
        temp_dir = Path(temp)
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        tiny = pins["repro"]["tiny"]
        target = sorted(tiny)[0]
        tiny[target] = "0" * 64
        tampered = temp_dir / "tampered-pins.json"
        tampered.write_text(json.dumps(pins), encoding="utf-8")
        code, out = bench(["--workload", "repro-cold", "--size", "tiny", "--pins", str(tampered)])
        result = last_json(out)
        if code != 1 or result is None or result["correct"] is not False or target not in out:
            failures.append(f"tampered digest for {target!r} was not caught (exit {code})")
        print("checked the output gate against a tampered digest")

        bare = temp_dir / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, out = bench(["--workload", "repro-cold"], cwd=bare)
        if code == 0 or last_json(out) is not None:
            failures.append("the harness ran without the repro source tree")
        print("checked the refusal without a source tree")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
