"""The first-class experiment API: report types, registry, exports, Session.

Covers the acceptance surface of the experiment-API redesign:

* ``ExperimentReport`` ``to_dict``/``from_dict`` round-trips exactly (including
  through a JSON encode/decode);
* the CSV and JSON exports match golden documents;
* the registry is complete -- every experiment module registers exactly one
  spec, and every registered spec runs in ``--quick`` mode;
* ``python -m repro run <target> --json`` emits a parseable report for *all*
  targets, and a warm-cache rerun exports bit-identical numbers;
* the :class:`repro.api.Session` facade drives experiments and single
  simulations through one cached runtime.
"""

import importlib
import inspect
import json
import pkgutil

import pytest

import repro.experiments
from repro.api import Session
from repro.experiments import build_context, format_table
from repro.experiments.api import CONTEXT_FLAGS, REGISTRY, get_spec, registry
from repro.experiments.report import (
    ExperimentReport,
    Metric,
    RunInfo,
    Series,
    Table,
    render_csv,
    render_json,
)
from repro.runtime.cli import main
from repro.sim.engine import SimulationConfig

#: Modules that are plumbing, not experiments.
NON_EXPERIMENT_MODULES = {"runner", "report", "api"}

ALL_TARGETS = (
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "sensitivity", "robustness", "hwsweep",
)


@pytest.fixture(scope="module")
def tiny_context():
    return build_context(
        workload_duration=0.05,
        sim_config=SimulationConfig(max_simulated_time=0.05),
    )


def _demo_report() -> ExperimentReport:
    return ExperimentReport(
        experiment="demo",
        title="Demo experiment",
        params={"subset": ("a", "b"), "n": 2},
        blocks=(
            Table(
                key="rows",
                columns=("name", "value"),
                rows=(("a", 1.5), ("b", 2.0)),
                units=(("value", "W"),),
            ),
            Series(
                key="timeline",
                x=(0.0, 1.0),
                y=(3.0, 4.0),
                x_label="t",
                y_label="bw",
                unit="GB/s",
            ),
            Metric("average/value", 1.75, "W"),
        ),
        run=RunInfo(submitted=2, unique=2, executed=2, cache_hits=0),
    )


class TestReportRoundTrip:
    def test_handmade_report_round_trips_exactly(self):
        report = _demo_report()
        assert ExperimentReport.from_dict(report.to_dict()) == report

    def test_round_trip_survives_json_encoding(self):
        report = _demo_report()
        document = json.loads(json.dumps(report.to_dict()))
        assert ExperimentReport.from_dict(document) == report

    def test_real_reports_round_trip(self, tiny_context):
        for target in ("table1", "fig5", "fig7"):
            report = get_spec(target).run(tiny_context, quick=True)
            recovered = ExperimentReport.from_dict(
                json.loads(json.dumps(report.to_dict()))
            )
            assert recovered == report
            assert recovered.to_dict() == report.to_dict()

    def test_table_units_order_is_canonical(self):
        """Unit order never breaks the exact round trip: the constructor
        sorts, matching ``from_dict``'s reconstruction order."""
        table = Table(
            key="t",
            columns=("a", "b"),
            rows=((1, 2),),
            units=(("b", "W"), ("a", "s")),
        )
        assert table.units == (("a", "s"), ("b", "W"))
        assert Table.from_dict(table.to_dict()) == table

    def test_rejects_unknown_schema(self):
        document = _demo_report().to_dict()
        document["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            ExperimentReport.from_dict(document)

    def test_results_dict_drops_only_run_accounting(self):
        report = _demo_report()
        full = report.to_dict()
        results = report.results_dict()
        assert "run" not in results
        full.pop("run")
        assert results == full


class TestExportGoldens:
    def test_csv_golden(self):
        expected = "\n".join(
            [
                "experiment,demo",
                "param,n,2",
                'param,subset,"[""a"",""b""]"',
                "",
                "table,rows",
                "name,value",
                "a,1.5",
                "b,2.0",
                "",
                "series,timeline",
                "t,bw",
                "0.0,3.0",
                "1.0,4.0",
                "",
                "metrics",
                "key,value,unit",
                "average/value,1.75,W",
                "",
            ]
        )
        assert render_csv(_demo_report()) == expected

    def test_json_golden(self):
        document = json.loads(render_json(_demo_report()))
        spec_hash = document.pop("spec_hash")
        assert len(spec_hash) == 64 and int(spec_hash, 16) >= 0
        assert document == {
            "schema": 1,
            "experiment": "demo",
            "title": "Demo experiment",
            "params": {"subset": ["a", "b"], "n": 2},
            "run": {"submitted": 2, "unique": 2, "executed": 2, "cache_hits": 0},
            "blocks": [
                {
                    "type": "table",
                    "key": "rows",
                    "columns": ["name", "value"],
                    "rows": [["a", 1.5], ["b", 2.0]],
                    "units": {"value": "W"},
                },
                {
                    "type": "series",
                    "key": "timeline",
                    "x": [0.0, 1.0],
                    "y": [3.0, 4.0],
                    "x_label": "t",
                    "y_label": "bw",
                    "unit": "GB/s",
                },
                {
                    "type": "metric",
                    "key": "average/value",
                    "value": 1.75,
                    "unit": "W",
                },
            ],
        }

    def test_spec_hash_ignores_results_but_not_params(self):
        base = _demo_report()
        same_ask = ExperimentReport(
            experiment="demo", title="other title", params={"subset": ("a", "b"), "n": 2}
        )
        different_ask = ExperimentReport(experiment="demo", params={"n": 3})
        assert base.spec_hash == same_ask.spec_hash
        assert base.spec_hash != different_ask.spec_hash

    def test_format_table_renders(self, tiny_context):
        text = format_table(get_spec("table1").run(tiny_context).block("rows").records())
        assert "DRAM frequency" in text


class TestRegistryCompleteness:
    def test_all_targets_registered(self):
        assert set(registry()) == set(ALL_TARGETS)

    def test_every_experiment_module_registers_a_spec(self):
        """Each experiment module registers exactly one spec: its runner is
        the module's only entry point."""
        registered = [spec.runner.__module__ for spec in REGISTRY.values()]
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            if info.name in NON_EXPERIMENT_MODULES or info.name.startswith("_"):
                continue
            module_name = f"repro.experiments.{info.name}"
            assert registered.count(module_name) == 1, (
                f"{module_name} registers {registered.count(module_name)} specs"
            )

    def test_every_run_function_is_reachable_from_a_spec(self):
        """Each module-level entry -- a ``run_*`` function or one shaped
        ``(context, quick, ...)`` -- is a registered spec's runner, so no
        experiment keeps a second, unregistered way in."""
        runners = {spec.runner for spec in REGISTRY.values()}
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            if info.name in NON_EXPERIMENT_MODULES or info.name.startswith("_"):
                continue
            module = importlib.import_module(f"repro.experiments.{info.name}")
            entries = [
                obj
                for name, obj in vars(module).items()
                if inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (
                    name.startswith("run_")
                    or tuple(inspect.signature(obj).parameters)[:2]
                    == ("context", "quick")
                )
            ]
            assert entries, f"{module.__name__} has no entry function"
            for entry in entries:
                assert entry in runners, (
                    f"{module.__name__}.{entry.__name__} is not a registered runner"
                )

    def test_declared_flags_are_known(self):
        for spec in REGISTRY.values():
            assert set(spec.flags) <= set(CONTEXT_FLAGS)
            assert set(spec.ignored_flags) == set(CONTEXT_FLAGS) - set(spec.flags)

    @pytest.mark.parametrize("target", sorted(ALL_TARGETS))
    def test_every_spec_runs_in_quick_mode(self, target, tiny_context):
        report = get_spec(target).run(tiny_context, quick=True)
        assert isinstance(report, ExperimentReport)
        assert report.experiment == target
        assert report.blocks

    def test_get_spec_unknown_target(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("fig99")


class TestCliAllTargets:
    def test_run_json_round_trips_for_every_target(self, tmp_path, capsys):
        """Acceptance: ``run <target> --json`` parses back through
        ``ExperimentReport.from_dict`` for all registry targets."""
        args = [
            "run", *ALL_TARGETS, "--quick", "--json",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [d["experiment"] for d in documents] == list(ALL_TARGETS)
        for document in documents:
            report = ExperimentReport.from_dict(document)
            assert report.to_dict() == document

    def test_warm_rerun_simulates_nothing_and_matches(self, tmp_path, capsys):
        args = [
            "run", "fig9", "--json",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        cold = json.loads(captured.out)
        assert main(args) == 0
        captured = capsys.readouterr()
        warm = json.loads(captured.out)
        assert ", 0 simulated" in captured.err
        assert warm["run"]["executed"] == 0
        assert warm["run"]["cache_hits"] == warm["run"]["unique"] > 0
        cold.pop("run")
        warm.pop("run")
        assert warm == cold


class TestSession:
    def test_run_returns_report_and_caches(self, tmp_path):
        session = Session(
            cache_dir=str(tmp_path / "cache"), duration=0.05, max_time=0.05
        )
        first = session.run("fig7", quick=True)
        assert isinstance(first, ExperimentReport)
        assert session.runtime.executed > 0

        warm = Session(
            cache_dir=str(tmp_path / "cache"), duration=0.05, max_time=0.05
        )
        second = warm.run("fig7", quick=True)
        assert warm.runtime.executed == 0
        assert warm.runtime.cache_hits == warm.runtime.unique
        assert second.results_dict() == first.results_dict()

    def test_run_accepts_declared_params_only(self, tmp_path):
        session = Session(
            cache_dir=str(tmp_path / "cache"), duration=0.05, max_time=0.05
        )
        report = session.run("fig7", subset=("470.lbm",))
        rows = report.block("rows").records()
        assert [row["workload"] for row in rows] == ["470.lbm"]
        with pytest.raises(TypeError, match="does not accept"):
            session.run("fig7", bogus=1)

    def test_simulate_runs_one_job_through_the_runtime(self, tmp_path):
        session = Session(
            cache_dir=str(tmp_path / "cache"), duration=0.05, max_time=0.05
        )
        baseline = session.simulate("spec", "baseline", name="470.lbm", duration=0.05)
        sysscale = session.simulate("spec", "sysscale", name="470.lbm", duration=0.05)
        assert baseline.execution_time > 0
        assert sysscale.energy.total > 0
        assert session.runtime.submitted == 2
        assert "2 job(s) submitted" in session.summary()

    def test_specs_listing(self):
        session = Session(cache=False)
        specs = session.specs()
        assert set(specs) == set(ALL_TARGETS)
        assert specs["fig7"].title.startswith("Fig. 7")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=0)
