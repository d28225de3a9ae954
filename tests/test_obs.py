"""The repro.obs telemetry layer: metrics, spans, sinks, traces, and the
instrumented runtime -- including the hard guarantee that telemetry is inert
with respect to results (bit-identical payloads and hashes, on or off)."""

import json

import pytest

from repro import obs
from repro.obs import (
    Console,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    read_jsonl,
    render_metrics_text,
)
from repro.obs import state as obs_state
from repro.obs.analysis import TraceModel
from repro.obs.metrics import NULL_INSTRUMENT
from repro.runtime.cache import ResultCache
from repro.cli import main
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.jobs import (
    PlatformSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    execute_job,
    execute_job_with_stats,
)
from repro.experiments.runner import ExperimentRuntime
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import build_platform


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


class TestMetricsRegistry:
    def test_instruments_accumulate(self):
        registry = MetricsRegistry("t")
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        with registry.timer("t").time():
            pass
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["histograms"]["h"] == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}
        assert snap["timers"]["t"]["count"] == 1
        json.dumps(snap)  # snapshot must stay JSON-able

    def test_merge_combines_worker_snapshots(self):
        parent, worker = MetricsRegistry("p"), MetricsRegistry("w")
        parent.counter("jobs").inc(2)
        worker.counter("jobs").inc(3)
        worker.histogram("lat").observe(0.25)
        parent.histogram("lat").observe(4.0)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["jobs"] == 5
        assert snap["histograms"]["lat"] == {"count": 2, "sum": 4.25, "min": 0.25, "max": 4.0}

    def test_render_text(self):
        registry = MetricsRegistry("t")
        registry.counter("engine.runs").inc(4)
        text = render_metrics_text(registry.snapshot(), title="profile")
        assert text.startswith("profile:")
        assert "engine.runs: 4" in text
        assert render_metrics_text(MetricsRegistry().snapshot()).endswith("(empty)")


class TestAmbientState:
    def test_disabled_by_default_returns_null_instrument(self):
        assert not obs.enabled()
        assert obs.counter("x") is NULL_INSTRUMENT
        obs.counter("x").inc(100)  # no-op, not an error
        assert obs.snapshot()["counters"] == {}

    def test_enable_routes_to_live_registry(self):
        obs.enable()
        obs.counter("x").inc(2)
        assert obs.snapshot()["counters"]["x"] == 2

    def test_scoped_isolates_registry_and_restores_parent(self):
        obs.enable()
        obs.counter("outer").inc()
        with obs_state.scoped() as scope:
            obs.counter("inner").inc()
            assert "outer" not in scope.registry.snapshot()["counters"]
        assert "inner" not in obs.snapshot()["counters"]
        assert obs.snapshot()["counters"]["outer"] == 1

    def test_scoped_pops_on_exception(self):
        before = obs_state.current()
        with pytest.raises(RuntimeError):
            with obs_state.scoped():
                raise RuntimeError("boom")
        assert obs_state.current() is before

    def test_scoped_inherits_sinks(self):
        sink = MemorySink()
        obs.enable()
        obs.add_sink(sink)
        with obs_state.scoped():
            obs.emit({"type": "ping"})
        assert sink.of_type("ping")

    def test_merge_snapshot_requires_enabled(self):
        worker = MetricsRegistry("w")
        worker.counter("n").inc(9)
        obs.merge_snapshot(worker.snapshot())  # disabled: dropped
        assert obs.snapshot()["counters"] == {}
        obs.enable()
        obs.merge_snapshot(worker.snapshot())
        assert obs.snapshot()["counters"]["n"] == 9


class TestSpans:
    def test_disabled_spans_are_free_and_silent(self):
        sink = MemorySink()
        obs.add_sink(sink)
        with obs.span("quiet", key="value"):
            pass
        assert sink.events == []

    def test_nested_spans_record_depth_and_duration(self):
        sink = MemorySink()
        obs.enable()
        obs.add_sink(sink)
        with obs.span("outer"):
            with obs.span("inner", detail=1):
                pass
        events = sink.of_type("span")
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert events[0]["depth"] == 1 and events[1]["depth"] == 0
        assert all(e["duration_s"] >= 0 for e in events)
        assert events[0]["detail"] == 1
        assert obs.snapshot()["timers"]["span.outer"]["count"] == 1

    def test_span_marks_errors(self):
        sink = MemorySink()
        obs.enable()
        obs.add_sink(sink)
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("nope")
        (event,) = sink.of_type("span")
        assert event["error"] == "ValueError"


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "a", "n": 1})
            sink.emit({"type": "b"})
        assert read_jsonl(path) == [{"type": "a", "n": 1}, {"type": "b"}]

    def test_jsonl_appends_whole_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "first"})
        with JsonlSink(path) as sink:
            sink.emit({"type": "second"})
        assert [e["type"] for e in read_jsonl(path)] == ["first", "second"]


class TestConsole:
    def test_stream_discipline(self, capsys):
        ui = Console()
        ui.out("primary")
        ui.info("decoration")
        ui.warning("careful")
        ui.error("broken")
        captured = capsys.readouterr()
        assert captured.out == "primary\ndecoration\n"
        assert captured.err == "careful\nbroken\n"

    def test_info_stream_override_for_exports(self, capsys):
        import sys

        ui = Console(info_stream=sys.stderr)
        ui.out("document")
        ui.info("header")
        captured = capsys.readouterr()
        assert captured.out == "document\n"
        assert "header" in captured.err

    def test_level_gating_spares_primary_output(self, capsys):
        obs.set_level("error")
        ui = Console()
        ui.info("hidden")
        ui.debug("hidden too")
        ui.out("always")
        ui.error("shown")
        captured = capsys.readouterr()
        assert captured.out == "always\n"
        assert captured.err == "shown\n"

    def test_logs_mirror_to_sinks_when_enabled(self):
        sink = MemorySink()
        obs.enable()
        obs.add_sink(sink)
        Console().info("hello")
        (event,) = sink.of_type("log")
        assert event["level"] == "info" and event["message"] == "hello"


class TestEngineTrace:
    def test_recorder_captures_segment_timeline(self):
        platform = build_platform()
        from repro.runtime.jobs import _build_sysscale

        engine = SimulationEngine(
            platform, SimulationConfig(max_simulated_time=0.2, trace_segments=True)
        )
        trace = TraceSpec.make("spec", name="470.lbm", duration=0.2).build()
        engine.run(trace, _build_sysscale(platform))
        recorder = engine.last_run_trace
        assert recorder is not None
        summary = recorder.summary()
        stats = engine.last_run_stats
        assert summary["segments"] == stats.segments
        assert summary["ticks"] == stats.ticks
        assert summary["memo_hits"] == stats.memo_hits
        events = list(recorder.events())
        assert events[-1]["type"] == "engine.run"
        assert sum(1 for e in events if e["type"] == "engine.segment") == stats.segments

    def test_tracing_never_changes_results(self):
        platform = build_platform()
        from repro.runtime.jobs import _build_sysscale

        trace = TraceSpec.make("spec", name="433.milc", duration=0.2).build()
        plain = SimulationEngine(
            platform, SimulationConfig(max_simulated_time=0.2)
        ).run(trace, _build_sysscale(platform))
        traced = SimulationEngine(
            platform, SimulationConfig(max_simulated_time=0.2, trace_segments=True)
        ).run(trace, _build_sysscale(platform))
        assert plain.to_dict() == traced.to_dict()

    def test_trace_flag_is_inert_to_job_hashes(self):
        """trace_segments lives on SimulationConfig only -- SimSpec (and
        therefore job identity and the cache key space) never sees it."""
        plain = SimSpec.from_config(SimulationConfig(max_simulated_time=0.05))
        traced = SimSpec.from_config(
            SimulationConfig(max_simulated_time=0.05, trace_segments=True)
        )
        assert plain == traced
        assert not hasattr(SimSpec(), "trace_segments")

    def test_execute_job_is_bit_identical_under_telemetry(self):
        job = _tiny_job()
        baseline = execute_job(job)
        sink = MemorySink()
        with obs_state.scoped(sinks=[sink], trace_segments=True):
            instrumented, stats = execute_job_with_stats(job)
        assert instrumented == baseline
        assert stats is not None and stats.ticks > 0
        run_events = sink.of_type("engine.run")
        assert len(run_events) == 1
        assert run_events[0]["job_hash"] == job.content_hash
        assert sink.of_type("engine.segment")

    def test_summarize_trace_events(self):
        job = _tiny_job()
        sink = MemorySink()
        with obs_state.scoped(sinks=[sink], trace_segments=True):
            with obs.span("test.root"):
                execute_job_with_stats(job)
        summary = TraceModel(sink.events).summary()
        assert summary["engine"]["runs"] == 1
        assert summary["engine"]["segments"] > 0
        assert 0.0 <= summary["engine"]["memo_hit_rate"] <= 1.0
        assert summary["spans"]["test.root"]["count"] == 1
        assert summary["by_type"]["engine.segment"] == summary["engine"]["segments"]


class TestStatsSurfacing:
    def test_outcomes_carry_engine_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [_tiny_job(), _tiny_job(policy="sysscale")]
        cold = SerialExecutor().run(jobs, cache=cache)
        assert all(o.stats is not None for o in cold.outcomes)
        totals = cold.engine_stats()
        assert totals["runs"] == 2
        assert totals["ticks"] == sum(o.stats.ticks for o in cold.outcomes)
        # Warm run: everything from cache, no engine ran, stats stay None.
        warm = SerialExecutor().run(jobs, cache=cache)
        assert all(o.stats is None for o in warm.outcomes)
        assert warm.engine_stats()["runs"] == 0

    def test_duplicate_submissions_count_one_run(self):
        job = _tiny_job()
        report = SerialExecutor().run([job, job, job])
        assert report.engine_stats()["runs"] == 1
        assert all(o.stats is not None for o in report.outcomes)


class TestRuntimeAccounting:
    def test_properties_are_registry_backed(self):
        runtime = ExperimentRuntime()
        report = runtime.run_jobs([_tiny_job(), _tiny_job()])
        assert report.executed == 1
        assert runtime.submitted == 2
        assert runtime.unique == 1
        assert runtime.executed == 1
        snap = runtime.metrics.snapshot()
        assert snap["counters"]["runtime.jobs_submitted"] == 2
        assert snap["counters"]["runtime.engine_runs"] == 1
        assert snap["counters"]["runtime.engine_ticks"] > 0
        assert snap["timers"]["runtime.batch_seconds"]["count"] == 1

    def test_accounting_since_uses_live_counters(self, tmp_path):
        runtime = ExperimentRuntime(cache=ResultCache(tmp_path / "c"))
        runtime.run_jobs([_tiny_job()])
        before = runtime.accounting()
        runtime.run_jobs([_tiny_job()])
        delta = runtime.accounting().since(before)
        assert delta.submitted == 1
        assert delta.cache_hits == 1
        assert delta.executed == 0


class TestExecutorInstrumentation:
    def test_serial_executor_emits_metrics(self, tmp_path):
        obs.enable()
        cache = ResultCache(tmp_path / "cache")
        jobs = [_tiny_job(), _tiny_job(), _tiny_job(policy="sysscale")]
        SerialExecutor().run(jobs, cache=cache)
        snap = obs.snapshot()
        assert snap["counters"]["executor.submitted"] == 3
        assert snap["counters"]["executor.unique"] == 2
        assert snap["counters"]["executor.executed"] == 2
        assert snap["counters"]["engine.runs"] == 2
        assert snap["counters"]["cache.misses"] == 2
        assert snap["counters"]["cache.writes"] == 2
        assert snap["histograms"]["executor.dedup_ratio"]["count"] == 1
        SerialExecutor().run(jobs, cache=cache)
        snap = obs.snapshot()
        assert snap["counters"]["executor.cache_hits"] == 2
        assert snap["counters"]["cache.hits"] == 2
        # No second engine pass: the engine counters did not move.
        assert snap["counters"]["engine.runs"] == 2


class TestParallelExecutorTelemetry:
    """Warm-pool ParallelExecutor: ordering, cache stats, metric aggregation."""

    def test_progress_ordering_and_cache_stats_warm_pool(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [
            _tiny_job(),
            _tiny_job(policy="sysscale"),
            _tiny_job(name="433.milc"),
            _tiny_job(),  # duplicate
        ]
        updates = []
        with obs_state.scoped(enabled=True), ParallelExecutor(max_workers=2) as pool:
            cold = pool.run(jobs, cache=cache, progress=updates.append)
            assert [u.completed for u in updates] == [1, 2, 3]
            assert all(not u.from_cache for u in updates)
            counters = obs.snapshot()["counters"]
            assert counters["cache.misses"] == 3
            assert counters["cache.writes"] == 3

            updates.clear()
            warm = pool.run(jobs, cache=cache, progress=updates.append)
            assert [u.completed for u in updates] == [1, 2, 3]
            assert all(u.from_cache for u in updates)
            assert obs.snapshot()["counters"]["cache.hits"] == 3
        assert warm.payloads() == cold.payloads()
        assert warm.executed == 0

    def test_worker_metrics_aggregate_across_runs(self, tmp_path):
        obs.enable()
        jobs_a = [_tiny_job(), _tiny_job(policy="sysscale")]
        jobs_b = [_tiny_job(name="433.milc"), _tiny_job(name="433.milc", policy="sysscale")]
        with ParallelExecutor(max_workers=2) as pool:
            report_a = pool.run(jobs_a)
            snap = obs.snapshot()
            # Worker-side engine counters merged back through the pool.
            assert snap["counters"]["engine.runs"] == 2
            assert snap["counters"]["engine.ticks"] == report_a.engine_stats()["ticks"]
            report_b = pool.run(jobs_b)  # same warm pool, second batch
            snap = obs.snapshot()
            assert snap["counters"]["engine.runs"] == 4
            assert snap["counters"]["engine.ticks"] == (
                report_a.engine_stats()["ticks"] + report_b.engine_stats()["ticks"]
            )
            assert snap["counters"]["executor.pool_reuse"] == 1
            assert snap["counters"]["executor.pool_starts"] == 1

    def test_parallel_payloads_identical_with_telemetry(self):
        jobs = [_tiny_job(), _tiny_job(policy="sysscale")]
        with ParallelExecutor(max_workers=2) as pool:
            plain = pool.run(jobs)
        obs.enable()
        with ParallelExecutor(max_workers=2) as pool:
            instrumented = pool.run(jobs)
        assert plain.payloads() == instrumented.payloads()


class TestCliTelemetry:
    def test_trace_out_and_profile(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", str(trace_path), "--profile",
        ]) == 0
        captured = capsys.readouterr()
        assert "profile:" in captured.out
        assert "engine.runs" in captured.out
        events = read_jsonl(trace_path)
        types = {e["type"] for e in events}
        assert {"span", "engine.segment", "engine.run", "log"} <= types
        # Ambient state is reset after the command.
        assert not obs.enabled()

    def test_trace_out_keeps_json_stdout_pure(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--no-cache", "--json", "--trace-out", str(trace_path), "--profile",
        ]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is exactly one JSON document
        assert "profile:" in captured.err

    def test_telemetry_is_inert_to_exports(self, tmp_path, capsys):
        args = [
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--no-cache", "--json",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + [
            "--trace-out", str(tmp_path / "t.jsonl"), "--profile",
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_trace_describe(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "run", "fig7", "--quick", "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "describe", str(trace_path)]) == 0
        text = capsys.readouterr().out
        assert "engine:" in text and "memo hit rate" in text
        assert main(["trace", "describe", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["engine"]["segments"] > 0
        assert summary["engine"]["runs"] >= 1

    def test_trace_describe_missing_file(self, capsys):
        assert main(["trace", "describe", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_log_level_quiets_decorations(self, tmp_path, capsys):
        assert main([
            "run", "fig5", "--quick", "--no-cache", "--log-level", "error",
        ]) == 0
        captured = capsys.readouterr()
        assert "== fig5 ==" not in captured.out  # info gated
        assert "Fig. 5" in captured.out  # primary report still printed


class TestSessionMetrics:
    def test_session_exposes_runtime_registry(self, tmp_path):
        from repro.api import Session

        session = Session(cache_dir=str(tmp_path / "cache"), max_time=0.05)
        session.simulate("spec", "baseline", name="470.lbm", duration=0.05)
        snap = session.metrics.snapshot()
        assert snap["counters"]["runtime.jobs_submitted"] == 1
        assert snap["counters"]["runtime.engine_runs"] == 1
        session.close()
