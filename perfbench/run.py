"""Run one benchmark workload and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Every pass runs in a fresh interpreter (``worker.py``), so import-time and
per-process memos start cold exactly as they do for a user.  The first pass
of a run is an untimed warm-up.  Each pass times the reference kernel
(``reference.py``) around its timed phase, and its timings are scaled to the
kernel's nominal host speed.  With ``--trace 0`` untraced passes repeat
while another fits in ``--seconds`` and the end-to-end metrics are their
medians.  With ``--trace 1`` two traced passes give the per-layer metrics
(their deterministic counts must agree exactly) and untraced passes give the
baseline for ``tracing.overhead_frac``.

Every pass's outputs are compared with the digests pinned in ``pins.json``;
a mismatch, a failed job or a broken invariant prints ``"correct": false``
and exits 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import reference  # noqa: E402
from workloads import FLEET_WORKERS, SEED_IGNORED, WORKLOADS  # noqa: E402

#: Cap on one run's passes, so a run always ends within 180 s.
DEADLINE_S = 165.0
#: Output directory for result records and span files (ignored by git).
OUT_DIR = ROOT / ".perfbench"
#: Which pinned output group each workload is checked against.
PIN_GROUP = {
    "repro-cold": "repro",
    "repro-warm": "repro",
    "fleet-drain": "fleet",
    "engine-long": "engine",
}
#: Groups whose pinned outputs are a fixed set (every key must be produced).
#: The engine group pins every seed of the Markov-walk family, and a pass
#: produces only its own seed's jobs.
COMPLETE_GROUPS = ("repro", "fleet")


class BenchError(Exception):
    """The harness could not produce a result (not an output mismatch)."""


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny exists for the harness smoke test",
    )
    parser.add_argument("--pins", type=Path, default=HERE / "pins.json")
    parser.add_argument(
        "--update-pins", action="store_true",
        help="record this run's output digests in --pins instead of checking them",
    )
    return parser.parse_args(argv)


class Runner:
    """Spawns passes for one run and keeps the shared deadline."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.spans_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"

    def run_pass(
        self,
        workload: str,
        cache: Optional[Path] = None,
        trace_out: Optional[Path] = None,
        size: Optional[str] = None,
    ) -> Dict[str, Any]:
        work_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work))
        # Write back the previous pass's files first, so its disk traffic
        # does not land in this pass's timings.
        os.sync()
        try:
            command = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload,
                "--size", size or self.args.size,
                "--seed", str(self.args.seed),
                "--work-dir", str(work_dir),
                "--cache", str(cache or work_dir / "cache"),
            ]
            if trace_out is not None:
                command += ["--trace-out", str(trace_out)]
            command += ["--spawned-at", repr(time.time())]
            process = subprocess.Popen(
                command,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
            try:
                out, err = process.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
            except BaseException as error:
                # The pass and its pool workers share a session: stop them all.
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                if isinstance(error, subprocess.TimeoutExpired):
                    raise BenchError(
                        f"{workload} pass overran the {DEADLINE_S:.0f} s deadline"
                    ) from error
                raise
            if process.returncode != 0:
                raise BenchError(
                    f"{workload} pass exited with {process.returncode}:\n{err[-4000:]}"
                )
            return json.loads(out.strip().splitlines()[-1])
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def repeat(self, workload: str, seconds: float, cache: Optional[Path]) -> List[Dict[str, Any]]:
        """Untraced passes while another fits in ``seconds`` (at least one)."""
        samples: List[Dict[str, Any]] = []
        started = time.monotonic()
        while True:
            samples.append(self.run_pass(workload, cache=cache))
            elapsed = time.monotonic() - started
            if elapsed * (len(samples) + 1) / len(samples) > seconds:
                return samples


def check_outputs(
    group: str, observed: Dict[str, str], pinned: Dict[str, str]
) -> List[str]:
    """Mismatches between one pass's output digests and the pinned ones."""
    problems = []
    for key, value in sorted(observed.items()):
        expected = pinned.get(key)
        if expected is None:
            problems.append(f"{group}: no pinned digest for output {key!r}")
        elif expected != value:
            problems.append(f"{group}: output {key!r} drifted ({value[:12]} != pinned {expected[:12]})")
    if group in COMPLETE_GROUPS:
        for key in sorted(set(pinned) - set(observed)):
            problems.append(f"{group}: pinned output {key!r} was not produced")
    return problems


def exact_count_problems(
    workload: str, first: Dict[str, float], second: Dict[str, float]
) -> List[str]:
    exempt = layertrace.POLL_DEPENDENT if workload == "fleet-drain" else ()
    return [
        f"count {name} did not repeat: {first[name]} vs {second[name]}"
        for name in layertrace.EXACT_COUNTS
        if name not in exempt and first[name] != second[name]
    ]


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never pick up a repository that merely encloses the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def adjusted(sample: Dict[str, Any], key: str) -> float:
    """A pass's host seconds scaled to the reference kernel's nominal speed."""
    return sample[key] * reference.NOMINAL_S / sample["reference_s"]


def end_to_end(samples: List[Dict[str, Any]], served_ticks: Optional[int]) -> Dict[str, float]:
    def ticks(sample: Dict[str, Any]) -> int:
        return served_ticks if served_ticks is not None else sample["ticks"]

    return {
        "wall_s": statistics.median([adjusted(s, "wall_s") for s in samples]),
        "jobs_per_s": statistics.median([s["jobs"] / adjusted(s, "wall_s") for s in samples]),
        "sim_ticks_per_s": statistics.median([ticks(s) / adjusted(s, "wall_s") for s in samples]),
        "setup_s": statistics.median([adjusted(s, "setup_s") for s in samples]),
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in samples]),
    }


def raw_medians(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    """Unscaled host seconds, recorded beside the metrics."""
    return {
        key: statistics.median([s[key] for s in samples])
        for key in ("wall_s", "setup_s", "reference_s")
    }


def execute(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """Run the passes; returns the result record (metrics, checks, context)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads(args.pins.read_text(encoding="utf-8")) if args.pins.is_file() else {}
    runner = Runner(args, work)
    workload = args.workload
    group = PIN_GROUP[workload]

    checked: List[Dict[str, Any]] = []
    problems: List[str] = []
    cache = None
    served_ticks = None
    if workload == "repro-warm":
        # Untimed: fill the cache the warm passes read from.  It also warms
        # up the compiled modules and the page cache.
        cache = work / "warm-cache"
        fill = runner.run_pass("repro-cold", cache=cache)
        checked.append(fill)
        served_ticks = fill["ticks"]
    else:
        # Untimed warm-up at the tiny size, checked against the tiny pins:
        # compiled modules and the page cache settle before timing.
        warm_up = runner.run_pass(workload, size="tiny")
        problems += warm_up["problems"]
        if warm_up["failed"]:
            problems.append(f"warm-up: {warm_up['failed']} of {warm_up['attempted']} jobs failed")
        if not args.update_pins:
            problems += check_outputs(group, warm_up["outputs"], pins.get(group, {}).get("tiny", {}))

    traced: List[Dict[str, Any]] = []
    started = time.monotonic()
    if args.trace:
        traced = [
            runner.run_pass(workload, cache=cache, trace_out=runner.spans_path),
            runner.run_pass(workload, cache=cache, trace_out=work / "second.jsonl"),
        ]
    samples = runner.repeat(workload, args.seconds - (time.monotonic() - started), cache)
    checked += samples + traced

    pinned = pins.setdefault(group, {}).setdefault(args.size, {})
    for sample in checked:
        problems += sample["problems"]
        if args.update_pins:
            pinned.update(sample["outputs"])
        else:
            problems += check_outputs(group, sample["outputs"], pinned)
    if len({json.dumps(s["outputs"], sort_keys=True) for s in checked}) > 1:
        problems.append("outputs differ between passes of one run")
    if args.update_pins:
        args.pins.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.trace:
        first, second = traced[0]["layers"], traced[1]["layers"]
        problems += exact_count_problems(workload, first, second)
        if workload == "repro-warm" and first["cache.put.calls"] != 0:
            problems.append(f"warm pass wrote {first['cache.put.calls']} cache entries")
        values = {
            name: first[name] if first[name] == second[name] else (first[name] + second[name]) / 2
            for name in first
        }
        traced_wall = statistics.median([adjusted(t, "wall_s") for t in traced])
        untraced_wall = statistics.median([adjusted(s, "wall_s") for s in samples])
        values["tracing.overhead_frac"] = traced_wall / untraced_wall - 1.0
        wanted = spec["per_layer"]
    else:
        values = end_to_end(samples, served_ticks)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"harness produced no value for metric(s): {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(s["attempted"] for s in checked)
    failed = sum(s["failed"] for s in checked)
    if failed:
        problems.append(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    last = samples[-1]
    context = {
        "workload": workload,
        "size": args.size,
        "seed": args.seed,
        "seed_used": workload not in SEED_IGNORED,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(samples),
        "traced_passes": len(traced),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workers": FLEET_WORKERS if workload == "fleet-drain" else 1,
        "jobs": last["jobs"],
        "ticks": served_ticks if served_ticks is not None else last["ticks"],
        "failed_frac": failed / attempted,
        "counts": last["counts"],
        "reference_nominal_s": reference.NOMINAL_S,
        "raw_medians": raw_medians(samples),
    }
    return {
        "context": context,
        "problems": problems,
        "samples": [
            {
                key: s[key]
                for key in ("wall_s", "setup_s", "reference_s", "jobs", "ticks", "peak_rss_mb")
            }
            for s in samples
        ],
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def run_workload(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run one workload, save its record and print its human-readable lines."""
    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        record = execute(args, work)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context, result = record["context"], record["result"]
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if not context["seed_used"]:
        print(f"note: --seed {args.seed} is ignored; {args.workload} is fixed by the paper's experiment definitions")
    print("context: " + json.dumps(context, sort_keys=True))
    for problem in record["problems"]:
        print(f"FAIL: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"  {args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args)
        if result is None:
            return 1
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1

    # Every workload in turn; the last line then combines them, with each
    # metric named "<workload>.<metric>".
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
