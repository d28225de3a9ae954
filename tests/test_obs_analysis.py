"""The repro.obs.analysis read side: trace models, attribution diffs, Chrome
export, and the metrics time-series sampler -- including the guarantee that
sampling is inert with respect to results (bit-identical payloads with the
sampler on or off)."""

import json

import pytest

from repro import obs
from repro.obs import MemorySink
from repro.obs import state as obs_state
from repro.obs.analysis import (
    MetricsSampler,
    TraceModel,
    attribution,
    chrome_trace_events,
    diff_traces,
    export_chrome_trace,
    render_diff_text,
    summarize_timeseries,
)
from repro.runtime.cache import ResultCache
from repro.runtime.cli import main
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.jobs import (
    PlatformSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends in the disabled default scope."""
    obs.reset()
    yield
    obs.reset()


def _tiny_job(name="470.lbm", policy="baseline", max_time=0.05):
    return SimulationJob(
        trace=TraceSpec.make("spec", name=name, duration=0.05),
        policy=PolicySpec.make(policy),
        platform=PlatformSpec(tdp=4.5),
        sim=SimSpec(max_simulated_time=max_time),
    )


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


class TestMetricsSampler:
    def test_samples_poll_the_registry(self):
        sink = MemorySink()
        with obs_state.scoped(enabled=True, sinks=[sink]):
            obs.gauge("executor.queue_depth").set(3)
            obs.counter("cache.hits").inc(3)
            obs.counter("cache.misses").inc(1)
            sampler = MetricsSampler(interval=60.0)  # no timer ticks in-test
            sampler.start()
            obs.gauge("executor.queue_depth").set(7)
            sampler.stop()
        samples = [e for e in sink.events if e["type"] == "timeseries.sample"]
        assert len(samples) == 2  # immediate start sample + final stop sample
        assert [s["seq"] for s in samples] == [0, 1]
        assert samples[0]["queue_depth"] == 3
        assert samples[1]["queue_depth"] == 7
        assert samples[1]["cache_hit_ratio"] == pytest.approx(0.75)
        assert samples[1]["t"] >= samples[0]["t"] >= 0.0

    def test_background_thread_emits_monotonic_sequence(self):
        sink = MemorySink()
        with obs_state.scoped(enabled=True, sinks=[sink]):
            with MetricsSampler(interval=0.01):
                SerialExecutor().run([_tiny_job()])
        samples = [e for e in sink.events if e["type"] == "timeseries.sample"]
        assert len(samples) >= 2
        sequences = [s["seq"] for s in samples]
        assert sequences == sorted(sequences)
        times = [s["t"] for s in samples]
        assert times == sorted(times)

    def test_sampler_sees_warm_pool_executor_gauges(self, tmp_path):
        jobs = [
            _tiny_job(),
            _tiny_job(policy="sysscale"),
            _tiny_job(name="416.gamess"),
            _tiny_job(name="416.gamess", policy="sysscale"),
        ]
        sink = MemorySink()
        with ParallelExecutor(max_workers=2) as pool:
            pool.run([_tiny_job()], cache=ResultCache(tmp_path / "warm"))  # warm pool
            with obs_state.scoped(enabled=True, sinks=[sink]):
                with MetricsSampler(interval=0.005):
                    pool.run(jobs, cache=ResultCache(tmp_path / "cache"))
        samples = [e for e in sink.events if e["type"] == "timeseries.sample"]
        assert len(samples) >= 2
        final = samples[-1]
        assert final["jobs_executed"] == len(jobs)
        assert final["in_flight"] == 0  # gauges drained by the end of the run
        assert max(s["workers"] for s in samples) == 2

    def test_sampler_is_bit_inert(self, tmp_path):
        """Payloads are identical with the sampler on or off."""
        jobs = [_tiny_job(), _tiny_job(policy="sysscale")]
        plain = SerialExecutor().run(jobs, cache=ResultCache(tmp_path / "a"))
        sink = MemorySink()
        with obs_state.scoped(enabled=True, sinks=[sink]):
            with MetricsSampler(interval=0.005):
                sampled = SerialExecutor().run(jobs, cache=ResultCache(tmp_path / "b"))
        assert sampled.payloads() == plain.payloads()
        assert any(e["type"] == "timeseries.sample" for e in sink.events)

    def test_summarize_timeseries(self):
        samples = [
            {"type": "timeseries.sample", "seq": 0, "t": 0.0, "interval_s": 1.0,
             "queue_depth": 4, "cache_hit_ratio": None},
            {"type": "timeseries.sample", "seq": 1, "t": 1.0, "interval_s": 1.0,
             "queue_depth": 2, "cache_hit_ratio": 0.5},
            {"type": "timeseries.sample", "seq": 2, "t": 2.0, "interval_s": 1.0,
             "queue_depth": 0, "cache_hit_ratio": 1.0},
        ]
        summary = summarize_timeseries(samples)
        assert summary["samples"] == 3
        assert summary["span_s"] == pytest.approx(2.0)
        depth = summary["metrics"]["queue_depth"]
        assert depth == {"min": 0, "mean": 2.0, "max": 4, "last": 0}
        # None values (ratio before any lookup) are skipped, not zero-counted.
        assert summary["metrics"]["cache_hit_ratio"]["mean"] == pytest.approx(0.75)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval=0.0)


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

    def test_run_sample_interval_records_timeseries(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", str(trace_path), "--sample-interval", "0.01",
        ]) == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line
        ]
        samples = [e for e in events if e["type"] == "timeseries.sample"]
        assert len(samples) >= 2
        # And trace describe surfaces the time-series summary.
        assert main(["trace", "describe", str(trace_path)]) == 0
        assert "timeseries:" in capsys.readouterr().out

    def test_run_sample_interval_must_be_positive(self, capsys):
        assert main([
            "run", "fig5", "--quick", "--no-cache", "--sample-interval", "0",
        ]) == 2
        assert "--sample-interval" in capsys.readouterr().err
