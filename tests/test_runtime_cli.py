"""The ``python -m repro`` command line (registry-driven dispatch + exports)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.api import registry
from repro.experiments.report import ExperimentReport
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main
from repro.runtime.campaign import CAMPAIGNS

SRC = Path(__file__).resolve().parents[1] / "src"


class TestList:
    def test_lists_every_target(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in registry():
            assert name in output
        for name in CAMPAIGNS:
            assert name in output

    def test_prints_registered_descriptions(self, capsys):
        """``list`` shows each experiment's title and spec description."""
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for spec in registry().values():
            assert spec.title in output
            if spec.description:
                assert spec.description in output

    def test_run_help_is_generated_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        output = capsys.readouterr().out
        for name, spec in registry().items():
            assert name in output
            if spec.ignored_flags:
                assert f"ignores {'/'.join(spec.ignored_flags)}" in output
        for name, factory in CAMPAIGNS.items():
            assert f"  {name:12s} {factory(True).description}" in output

    def test_other_commands_build_no_campaign(self, monkeypatch):
        """Only ``run --help`` prints the campaign descriptions, so only it
        builds the campaigns."""
        built = []
        for name, factory in list(CAMPAIGNS.items()):
            monkeypatch.setitem(
                CAMPAIGNS,
                name,
                lambda quick, name=name, factory=factory: built.append(name)
                or factory(quick),
            )
        build_parser().parse_args(["hw", "hash", "skylake"])
        assert built == []


class TestClosedStdout:
    def test_a_reader_gone_before_the_first_write_gets_a_quiet_exit(self):
        """``repro list | head -1``: no traceback, nothing on stderr, and the
        documented exit code."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert completed.stderr == ""
        assert completed.returncode == EXIT_BROKEN_PIPE


class TestRun:
    def test_unknown_target_fails(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "table2", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "== table2 ==" in output
        assert "runtime:" in output

    def test_ignored_flag_warning_is_derived_from_spec(self, capsys):
        """fig5 declares it ignores --duration; the CLI warns from the spec."""
        assert main(["run", "fig5", "--no-cache", "--duration", "0.25"]) == 0
        captured = capsys.readouterr()
        assert "--duration do(es) not apply to 'fig5'" in captured.err

    def test_cache_hit_counter_reports_zero_new_simulations(self, tmp_path, capsys):
        """Acceptance: a warm-cache rerun performs zero new simulations, and
        the CLI summary's counters prove it."""
        args = [
            "run", "fig7", "--quick",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "0 cache hit(s)" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert ", 0 simulated" in warm
        assert "0 cache hit(s)" not in warm

        def averages(output):
            return [
                line for line in output.splitlines()
                if line.strip().startswith("average/")
            ]

        assert averages(warm) == averages(cold)
        assert averages(cold)

    def test_parallel_jobs_flag(self, tmp_path, capsys):
        args = [
            "run", "fig7", "--quick", "--jobs", "2",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        assert "simulated" in capsys.readouterr().out

    def test_campaign_target_with_progress(self, capsys):
        assert main([
            "run", "spec-tdp", "--quick", "--no-cache", "--progress",
            "--max-time", "0.03",
        ]) == 0
        output = capsys.readouterr().out
        assert "jobs:" in output
        assert "[" in output  # progress lines

    def test_campaign_hardware_is_none_without_platform_flags(self, monkeypatch):
        """``hw-variants`` replaces its whole variant axis when it is given a
        platform, so only --platform/--set may hand the campaign hardware."""
        from repro.cli import run as run_command
        from repro.hw import BROADWELL

        class Resolved(Exception):
            pass

        seen = []

        def record(name, **kwargs):
            seen.append((name, kwargs))
            raise Resolved

        monkeypatch.setattr(run_command, "resolve_campaign", record)
        for extra in ([], ["--platform", "broadwell"]):
            with pytest.raises(Resolved):
                main(["run", "hw-variants", "--no-cache", "--max-time", "0.05", *extra])
        assert seen == [
            ("hw-variants", {"quick": False, "max_time": 0.05, "hardware": None}),
            ("hw-variants", {"quick": False, "max_time": 0.05, "hardware": BROADWELL}),
        ]


class TestExports:
    def test_json_stdout_is_pure_and_round_trips(self, tmp_path, capsys):
        args = [
            "run", "fig7", "--quick", "--json",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)  # stdout is one JSON document
        report = ExperimentReport.from_dict(document)
        assert report.experiment == "fig7"
        assert report.to_dict() == document
        assert "runtime:" in captured.err  # decorations moved to stderr

    def test_warm_rerun_exports_identical_results(self, tmp_path, capsys):
        """Acceptance: cold vs. warm cache export bit-identical numbers (the
        volatile run accounting is the only differing field)."""
        args = [
            "run", "fig7", "--quick", "--json",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm != cold  # run accounting differs...
        cold.pop("run")
        warm.pop("run")
        assert warm == cold  # ...and nothing else does

    @pytest.mark.parametrize(
        "target",
        [["fig5"], ["scenarios", "--quick", "--max-time", "0.05"]],
        ids=["fig5", "scenarios"],
    )
    def test_csv_export_is_stable_across_cache_states(self, target, tmp_path, capsys):
        """A warm rerun simulates nothing and exports byte-identical numbers."""
        args = ["run", *target, "--csv", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold
        assert ", 0 simulated" in warm.err
        assert cold.startswith(f"experiment,{target[0]}")
        assert "metrics" in cold

    def test_multiple_targets_emit_a_json_array(self, tmp_path, capsys):
        args = [
            "run", "table1", "table2", "--json", "--no-cache",
        ]
        assert main(args) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [d["experiment"] for d in documents] == ["table1", "table2"]
        for document in documents:
            ExperimentReport.from_dict(document)

    def test_out_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        args = [
            "run", "table1", "table2", "--no-cache", "--out", str(out_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        for name in ("table1", "table2"):
            document = json.loads((out_dir / f"{name}.json").read_text())
            assert ExperimentReport.from_dict(document).experiment == name

    def test_out_single_file_csv(self, tmp_path, capsys):
        out_file = tmp_path / "table1.csv"
        args = ["run", "table1", "--no-cache", "--csv", "--out", str(out_file)]
        assert main(args) == 0
        capsys.readouterr()
        assert out_file.read_text().startswith("experiment,table1")

    def test_json_and_csv_are_mutually_exclusive(self, capsys):
        assert main(["run", "table1", "--json", "--csv", "--no-cache"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_repeated_target_exports_once_per_request(self, capsys):
        assert main(["run", "table1", "table1", "--json", "--no-cache"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [d["experiment"] for d in documents] == ["table1", "table1"]

    def test_out_existing_file_with_multiple_targets_fails_cleanly(
        self, tmp_path, capsys
    ):
        out_file = tmp_path / "results.json"
        out_file.write_text("{}")
        args = ["run", "table1", "table2", "--no-cache", "--out", str(out_file)]
        assert main(args) == 2
        assert "must be a directory" in capsys.readouterr().err

    def test_out_repeated_target_writes_numbered_files(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        args = ["run", "table1", "table1", "--no-cache", "--out", str(out_dir)]
        assert main(args) == 0
        capsys.readouterr()
        for filename in ("table1.json", "table1.2.json"):
            document = json.loads((out_dir / filename).read_text())
            assert document["experiment"] == "table1"

    def test_out_files_are_written_incrementally(self, tmp_path, capsys):
        """A failure in a later target must not discard finished reports."""
        out_dir = tmp_path / "reports"
        args = [
            "run", "table1", "fig7", "--no-cache", "--out", str(out_dir),
            "--duration", "0.05", "--max-time", "0.05", "--quick",
        ]
        assert main(args) == 0
        captured = capsys.readouterr().err
        # table1's file is announced before fig7 even starts running.
        assert captured.index("wrote") < captured.index("== fig7 ==")
        assert (out_dir / "table1.json").exists()


class TestCache:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "entries:" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        assert "removed" in capsys.readouterr().out
