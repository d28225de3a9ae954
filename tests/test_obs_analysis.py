"""The repro.obs.analysis read side: trace models and their summary,
attribution diffs, and Chrome export."""

import json

import pytest

from repro import obs
from repro.obs.analysis import (
    TraceModel,
    attribution,
    chrome_trace_events,
    diff_traces,
    export_chrome_trace,
    render_diff_text,
)
from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends in the disabled default scope."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Handcrafted trace fixtures (golden inputs for model/diff/export tests)
# ----------------------------------------------------------------------
def _segment(t, duration, phase, dram=1.6e9, memo_hit=False, ticks=10, **extra):
    event = {
        "type": "engine.segment",
        "t": t,
        "duration_s": duration,
        "ticks": ticks,
        "phase": phase,
        "memo_hit": memo_hit,
        "dram_frequency": dram,
        "interconnect_frequency": 0.8e9,
        "cpu_frequency": 2.6e9,
        "gfx_frequency": 0.3e9,
        "v_sa_scale": 1.0,
        "v_io_scale": 1.0,
        "mrc_optimized": False,
        "low_point": False,
        "bandwidth": 2e9,
        "compute_power": 1.0,
        "io_power": 0.5,
        "memory_power": 0.25,
        "platform_power": 0.25,
    }
    event.update(extra)
    return event


def _run_summary(workload, policy, **extra):
    event = {"type": "engine.run", "workload": workload, "policy": policy}
    event.update(extra)
    return event


def _span(name, depth, duration):
    return {"type": "span", "name": name, "depth": depth, "duration_s": duration}


def _fixture_events(job_hash="h1", workload="w", policy="sysscale"):
    stamp = {"job_hash": job_hash}
    return [
        _segment(0.0, 0.5, "compute", **stamp),
        _segment(0.5, 0.25, "memory", dram=1.067e9, memo_hit=True, **stamp),
        {
            "type": "engine.transition",
            "t": 0.5,
            "latency_s": 0.001,
            "from_dram_frequency": 1.6e9,
            "to_dram_frequency": 1.067e9,
            **stamp,
        },
        _run_summary(workload, policy, **stamp),
        # Span exits arrive in post-order: child first, then its parent.
        _span("engine.run", 1, 0.2),
        _span("cli.run", 0, 0.3),
    ]


class TestTraceModel:
    def test_parses_runs_segments_and_spans(self):
        model = TraceModel(_fixture_events())
        assert len(model.runs) == 1
        run = model.runs[0]
        assert run.workload == "w" and run.policy == "sysscale"
        assert len(run.segments) == 2 and len(run.transitions) == 1
        assert run.simulated_seconds == pytest.approx(0.75)
        assert run.model_evaluations == 1  # one memo hit of two segments
        assert len(model.spans) == 2
        assert model.describe()["engine_runs"] == 1

    def test_interleaved_worker_events_group_by_job_hash(self):
        a = _fixture_events(job_hash="a", workload="wa")
        b = _fixture_events(job_hash="b", workload="wb")
        # Interleave the two streams the way parallel workers append.
        events = [a[0], b[0], b[1], a[1], a[2], b[2], b[3], a[3]]
        model = TraceModel(events)
        assert len(model.runs) == 2
        by_workload = {run.workload: run for run in model.runs}
        assert len(by_workload["wa"].segments) == 2
        assert len(by_workload["wb"].segments) == 2

    def test_unstamped_events_close_at_run_summary(self):
        events = [
            _segment(0.0, 0.5, "compute"),
            _run_summary("first", "p"),
            _segment(0.0, 0.5, "compute"),
            _run_summary("second", "p"),
        ]
        model = TraceModel(events)
        assert [run.workload for run in model.runs] == ["first", "second"]

    def test_summary_rolls_up_segments_spans_and_logs(self):
        logs = [
            {"type": "log", "level": "info", "message": "a"},
            {"type": "log", "level": "warning", "message": "b"},
            {"type": "log", "level": "info", "message": "c"},
        ]
        assert TraceModel(_fixture_events() + logs).summary() == {
            "events": 9,
            "by_type": {
                "engine.run": 1,
                "engine.segment": 2,
                "engine.transition": 1,
                "log": 3,
                "span": 2,
            },
            "engine": {
                "runs": 1,
                "segments": 2,
                "ticks": 20,
                "memo_hits": 1,
                "transitions": 1,
                "simulated_s": 0.75,
                "memo_hit_rate": 0.5,
            },
            "spans": {
                "cli.run": {"count": 1, "total_s": 0.3, "max_s": 0.3},
                "engine.run": {"count": 1, "total_s": 0.2, "max_s": 0.2},
            },
            "logs": {"info": 2, "warning": 1},
            # Power x duration per domain: 1.0/0.5/0.25/0.25 W over 0.75 s.
            "energy_j": {
                "compute": 0.75, "io": 0.375, "memory": 0.1875, "platform": 0.1875,
            },
            "dram_residency_s": {"1.067GHz": 0.25, "1.600GHz": 0.5},
            "phase_residency_s": {"compute": 0.5, "memory": 0.25},
        }

    def test_summary_omits_empty_sections(self):
        assert TraceModel([]).summary() == {
            "events": 0,
            "by_type": {},
            "engine": {
                "runs": 0,
                "segments": 0,
                "ticks": 0,
                "memo_hits": 0,
                "transitions": 0,
                "simulated_s": 0.0,
            },
        }

    def test_summary_counts_only_finished_runs(self):
        """A run cut off before its ``engine.run`` event (a killed process)
        contributes segments but is not counted as a run."""
        engine = TraceModel([_segment(0.0, 0.5, "compute")]).summary()["engine"]
        assert engine["runs"] == 0
        assert engine["segments"] == 1


class TestTraceDiff:
    def test_identical_traces_have_zero_drift(self):
        a = TraceModel(_fixture_events())
        b = TraceModel(_fixture_events())
        diff = diff_traces(a, b)
        assert not diff.drift
        assert diff.changed_rows == []
        assert "no drift" in render_diff_text(diff)

    def test_moved_time_is_attributed_to_its_bucket(self):
        a = TraceModel(_fixture_events())
        longer = _fixture_events()
        longer[0]["duration_s"] = 0.9  # compute phase grows by 0.4s
        b = TraceModel(longer)
        diff = diff_traces(a, b)
        assert diff.drift
        top = diff.rows[0]  # sorted by |moved seconds|
        assert "compute" in top.label
        assert top.deltas["seconds"] == pytest.approx(0.4)
        assert diff.to_dict()["totals_delta"]["seconds"] == pytest.approx(0.4)
        assert "compute" in render_diff_text(diff)

    def test_one_sided_bucket_is_drift(self):
        a = TraceModel(_fixture_events())
        extra = _fixture_events()
        extra.insert(2, _segment(0.75, 0.1, "gfx", job_hash="h1"))
        b = TraceModel(extra)
        diff = diff_traces(a, b)
        assert diff.drift
        only_b = [row for row in diff.rows if row.status == "only_b"]
        assert len(only_b) == 1 and "gfx" in only_b[0].label

    def test_buckets_align_across_execution_order(self):
        a_events = _fixture_events(job_hash="a", workload="wa") + _fixture_events(
            job_hash="b", workload="wb"
        )
        b_events = _fixture_events(job_hash="b", workload="wb") + _fixture_events(
            job_hash="a", workload="wa"
        )
        diff = diff_traces(TraceModel(a_events), TraceModel(b_events))
        assert not diff.drift  # keys carry no ordering, so reordering is clean

    def test_attribution_splits_memo_hits_from_evaluations(self):
        buckets = attribution(TraceModel(_fixture_events()))
        by_phase = {key[2]: bucket for key, bucket in buckets.items()}
        assert by_phase["compute"].model_evaluations == 1
        assert by_phase["compute"].memo_hits == 0
        assert by_phase["memory"].memo_hits == 1
        assert by_phase["memory"].energy_j == pytest.approx(2.0 * 0.25)


class TestChromeExport:
    def test_document_shape_and_span_reconstruction(self):
        model = TraceModel(_fixture_events())
        document = chrome_trace_events(model)
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        # Two process_name metadata events lead.
        assert [e["name"] for e in events[:2]] == ["process_name", "process_name"]
        spans = [e for e in events if e.get("cat") == "span"]
        assert len(spans) == 2
        parent = next(e for e in spans if e["name"] == "cli.run")
        child = next(e for e in spans if e["name"] == "engine.run")
        # Post-order reconstruction: the depth-1 exit before cli.run's exit is
        # its child, laid out from the parent's start.
        assert child["args"]["depth"] == 1
        assert child["ts"] == parent["ts"]
        assert child["dur"] == pytest.approx(0.2e6)
        segments = [e for e in events if e.get("cat") == "engine.segment"]
        assert [s["name"] for s in segments] == ["compute", "memory"]
        assert segments[0]["ts"] == 0.0
        assert segments[1]["ts"] == pytest.approx(0.5e6)
        assert segments[1]["args"]["memo_hit"] is True
        transitions = [e for e in events if e.get("cat") == "engine.transition"]
        assert len(transitions) == 1

    def test_export_writes_valid_json(self, tmp_path):
        model = TraceModel(_fixture_events())
        out = tmp_path / "trace.chrome.json"
        export_chrome_trace(model, out)
        document = json.loads(out.read_text())
        assert document["otherData"]["source"] == "repro trace export --chrome"
        assert len(document["traceEvents"]) > 0


class TestAnalysisCli:
    def _write_trace(self, path, events):
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )

    def test_trace_diff_same_run_reports_zero_drift(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a, _fixture_events())
        self._write_trace(b, _fixture_events())
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_trace_diff_json_reports_drift(self, tmp_path, capsys):
        events = _fixture_events()
        events[0]["duration_s"] = 0.9
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a, _fixture_events())
        self._write_trace(b, events)
        assert main(["trace", "diff", str(a), str(b), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["drift"] is True
        assert document["changed"] == 1

    def test_trace_diff_missing_file_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        self._write_trace(a, _fixture_events())
        assert main(["trace", "diff", str(a), str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_export_chrome(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        out = tmp_path / "a.chrome.json"
        self._write_trace(a, _fixture_events())
        assert main(["trace", "export", str(a), "--chrome", str(out)]) == 0
        assert "trace event(s)" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]
