"""The repro.runtime subsystem: job hashing, caching, executors, campaigns."""

import errno
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro import config, obs
from repro.fleet import FailureRecord, QueueEntry
from repro.obs import state as obs_state
from repro.runtime import (
    Campaign,
    DegradationJob,
    Executor,
    PlatformSpec,
    PointSpec,
    PolicySpec,
    ResultCache,
    SimSpec,
    SimulationJob,
    TraceSpec,
    build_grid_campaign,
    dedupe_jobs,
    execute_job,
    job_from_dict,
)
from repro.runtime.cache import atomic_write_json
from repro.runtime.campaign import CAMPAIGNS
from repro.runtime.executor import MAX_AUTO_BATCH_SIZE, auto_batch_size
from repro.runtime.jobs import SCHEMA_VERSION
from repro.workloads.trace import WorkloadClass

SRC = Path(__file__).resolve().parents[1] / "src"

#: A fast simulation spec: 50 ticks, one or two evaluation intervals.
TINY_SIM = SimSpec(max_simulated_time=0.05)


def _tiny_job(name="470.lbm", policy="baseline", tdp=4.5):
    return SimulationJob(
        trace=TraceSpec.make("spec", name=name, duration=0.05),
        policy=PolicySpec.make(policy),
        platform=PlatformSpec(tdp=tdp),
        sim=TINY_SIM,
    )


def _counter(name):
    """A counter of the current telemetry scope (0 until first incremented)."""
    return obs.snapshot()["counters"].get(name, 0)


class TestContentHash:
    def test_stable_across_instances(self):
        assert _tiny_job().content_hash == _tiny_job().content_hash

    def test_param_order_does_not_matter(self):
        a = TraceSpec.make("spec", name="470.lbm", duration=0.05)
        b = TraceSpec.make("spec", duration=0.05, name="470.lbm")
        assert a == b

    def test_any_field_changes_the_hash(self):
        base = _tiny_job()
        assert _tiny_job(name="433.milc").content_hash != base.content_hash
        assert _tiny_job(policy="sysscale").content_hash != base.content_hash
        assert _tiny_job(tdp=7.0).content_hash != base.content_hash
        resized = SimulationJob(
            trace=base.trace, policy=base.policy, platform=base.platform,
            sim=SimSpec(max_simulated_time=0.06),
        )
        assert resized.content_hash != base.content_hash

    def test_simulation_and_degradation_jobs_never_collide(self):
        trace = TraceSpec.make("spec", name="470.lbm", duration=0.05)
        high = PointSpec(config.ghz(1.6), config.IO_INTERCONNECT_HIGH_FREQUENCY)
        low = PointSpec(
            config.ghz(1.06), config.IO_INTERCONNECT_LOW_FREQUENCY,
            v_sa_scale=0.8, v_io_scale=0.85,
        )
        sim = SimulationJob(trace=trace, policy=PolicySpec.make("baseline"))
        deg = DegradationJob(trace=trace, high=high, low=low)
        assert sim.content_hash != deg.content_hash

    def test_round_trip_through_dict(self):
        job = _tiny_job(policy="sysscale")
        assert job_from_dict(json.loads(json.dumps(job.to_dict()))) == job
        deg = DegradationJob(
            trace=TraceSpec.make("spec", name="470.lbm", duration=0.05),
            high=PointSpec(config.ghz(1.6), config.IO_INTERCONNECT_HIGH_FREQUENCY),
            low=PointSpec(config.ghz(1.06), config.IO_INTERCONNECT_LOW_FREQUENCY, 0.8, 0.85),
        )
        assert job_from_dict(json.loads(json.dumps(deg.to_dict()))) == deg

    def test_a_nan_sim_parameter_does_not_build(self):
        """JSON reads ``NaN``, so a job dict can carry one; such a job would
        spin the engine forever, so it must not build (a fleet quarantines
        the entry instead of leasing it to a worker)."""
        data = _tiny_job().to_dict()
        data["sim"]["tick"] = float("nan")
        with pytest.raises(ValueError, match="tick"):
            job_from_dict(json.loads(json.dumps(data)))


class TestTraceSpecs:
    def test_known_builders(self):
        assert TraceSpec.make("spec", name="416.gamess", duration=0.1).build().name == "416.gamess"
        assert TraceSpec.make("graphics", name="3DMark06").build().name == "3DMark06"
        assert TraceSpec.make("battery_life", name="web_browsing").build().name == "web_browsing"

    def test_unknown_builder_rejected(self):
        with pytest.raises(KeyError):
            TraceSpec.make("nope", name="x")

    def test_corpus_replay_is_call_sequence_faithful(self):
        """A corpus spec reproduces the trace generated by the same call
        sequence on one generator (the generator RNG advances per call)."""
        from repro.workloads.corpus import CorpusGenerator

        generator = CorpusGenerator(seed=77, duration=1.0)
        first = generator.generate_class(WorkloadClass.CPU_SINGLE_THREAD, 5)
        second = generator.generate_class(WorkloadClass.GRAPHICS, 4)
        calls = ("cpu_single_thread:5", "graphics:4")
        spec_first = TraceSpec.make(
            "corpus", seed=77, duration=1.0, calls=calls, call=0, index=3
        )
        spec_second = TraceSpec.make(
            "corpus", seed=77, duration=1.0, calls=calls, call=1, index=2
        )
        assert spec_first.build() == first[3].trace
        assert spec_second.build() == second[2].trace


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = _tiny_job()
        payload = execute_job(job)
        with obs_state.scoped(enabled=True):
            assert cache.get(job) is None
            cache.put(job, payload)
            assert cache.get(job) == payload
            assert _counter("cache.hits") == 1
            assert _counter("cache.misses") == 1
            assert _counter("cache.writes") == 1
        assert len(cache) == 1

    def test_corrupt_entries_count_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = _tiny_job()
        path = cache.put(job, {"x": 1})
        stale = {"schema": SCHEMA_VERSION - 1, "result": {"x": 1}}
        # The real entry under another schema stamp.
        restamped = path.read_text(encoding="utf-8").replace(
            f'"schema": {SCHEMA_VERSION}', f'"schema": {SCHEMA_VERSION - 1}', 1
        )
        with obs_state.scoped(enabled=True):
            for text in ("not json", json.dumps(stale), restamped):
                path.write_text(text)
                assert cache.get(job) is None
            assert _counter("cache.misses") == 3
            assert _counter("cache.hits") == 0

    def test_writer_instance_reads_what_is_on_disk(self, tmp_path):
        """The instance that wrote an entry holds no copy of it: a later
        ``get`` reads the file, so a damaged entry is a miss, never a stale hit."""
        cache = ResultCache(tmp_path / "cache")
        job = _tiny_job()
        cache.put(job, {"x": 1})
        cache.path_for(job.content_hash).write_text("not json")
        assert cache.get(job) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_tiny_job(), {"x": 1})
        cache.put(_tiny_job(name="433.milc"), {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_served_payloads_are_isolated(self, tmp_path):
        """Mutating a stored or a returned payload must not change later hits:
        every ``get`` returns a fresh dict."""
        cache = ResultCache(tmp_path / "cache")
        job = _tiny_job()
        original = {"x": 1, "nested": {"y": [1, 2]}}
        cache.put(job, original)
        original["nested"]["y"].append(3)  # caller keeps mutating its dict
        first = cache.get(job)
        first["x"] = 99
        first["nested"]["y"].clear()
        assert cache.get(job) == {"x": 1, "nested": {"y": [1, 2]}}


def _json_dump_text(document):
    """The text ``json.dump(document, handle)`` writes: the stdlib's
    pure-Python ``iterencode``.  Every file the cache, queue and store ever
    wrote has these bytes, so the writer must keep them exactly."""
    return "".join(json.JSONEncoder().iterencode(document))


def _degradation_job():
    return DegradationJob(
        trace=TraceSpec.make("spec", name="470.lbm", duration=0.05),
        high=PointSpec(config.ghz(1.6), config.IO_INTERCONNECT_HIGH_FREQUENCY),
        low=PointSpec(
            config.ghz(1.06), config.IO_INTERCONNECT_LOW_FREQUENCY, 0.8, 0.85
        ),
    )


def _cache_entry(job):
    """A cache entry document, built the way ``ResultCache.put`` builds it."""
    return {"schema": SCHEMA_VERSION, "hash": job.content_hash, "result": execute_job(job)}


def _writer_documents():
    """Real documents of every kind the atomic writer persists, plus edge cases."""
    job = _tiny_job(policy="sysscale")
    return {
        "simulation-cache-entry": _cache_entry(job),
        "degradation-cache-entry": _cache_entry(_degradation_job()),
        "queue-entry": QueueEntry(
            job_hash=job.content_hash,
            job=job.to_dict(),
            priority=2,
            seq=17,
            state="leased",
            attempts=1,
            lease_deadline=1760684400.125,
            worker="host-a:4242",
            note="requeued after lease expiry",
        ).to_dict(),
        "failure-record": FailureRecord(
            job_hash=job.content_hash,
            reason="exhausted",
            error_class="RuntimeError",
            message="injected failure ✗",
            attempts=3,
            job=job.to_dict(),
            history=(
                {"attempt": 1, "error": "RuntimeError: boom", "traceback": "Traceback\n  ..."},
                {"attempt": 2, "error": "RuntimeError: boom"},
            ),
            recorded_unix=1760684401.5,
        ).to_dict(),
        "edge-cases": {
            "floats": [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1],
            "text": "Grüße 東京 \u2028 \"quoted\"\t\\ \x00 \U0001f50b",
            2: "int key",
            -7: "negative int key",
            2.5: "float key",
            True: "bool key",
            None: "none key",
            "tuple": (1, 2.5, "x", (None, False)),
            "empty": {"dict": {}, "list": [], "tuple": (), "str": ""},
            "big_int": 10**30,
        },
    }


class _FullDisk:
    """Wraps a real file handle; every write fails the way a full disk does."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWriteJson:
    """The one durable writer: exact bytes, shard directories, clean failure."""

    def test_bytes_match_json_dump(self, tmp_path):
        for name, document in _writer_documents().items():
            path = tmp_path / name / "abcdef.json"
            atomic_write_json(path, document)
            assert path.read_bytes() == _json_dump_text(document).encode("utf-8"), name

    def test_first_write_creates_a_missing_root_and_shard(self, tmp_path):
        cache = ResultCache(tmp_path / "missing" / "cache")
        job = _tiny_job()
        path = cache.put(job, {"x": 1})
        assert path.parent == tmp_path / "missing" / "cache" / job.content_hash[:2]
        assert ResultCache(cache.root).get(job) == {"x": 1}

    def test_a_write_into_an_existing_shard_makes_no_mkdir_call(self, tmp_path, monkeypatch):
        atomic_write_json(tmp_path / "ab" / "ab01.json", {"x": 1})
        calls = []

        def spy(real):
            def record(*args, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)
            return record

        # Path.mkdir reaches os.mkdir only from Python 3.11 on; os.makedirs
        # goes through os.mkdir.
        monkeypatch.setattr(Path, "mkdir", spy(Path.mkdir))
        monkeypatch.setattr(os, "mkdir", spy(os.mkdir))
        atomic_write_json(tmp_path / "ab" / "ab02.json", {"x": 2})
        assert calls == []
        atomic_write_json(tmp_path / "cd" / "cd01.json", {"x": 3})
        assert calls  # the spies do see the first write into a new shard

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_a_failed_write_reraises_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, failing
    ):
        path = tmp_path / "ab" / "abcdef.json"
        atomic_write_json(path, {"x": 1})
        if failing == "write":
            real_fdopen = os.fdopen
            monkeypatch.setattr(
                os, "fdopen", lambda *args, **kwargs: _FullDisk(real_fdopen(*args, **kwargs))
            )
        else:
            def refuse(*args, **kwargs):
                raise PermissionError(errno.EACCES, "replace refused")
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            atomic_write_json(path, {"x": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == {"x": 1}
        assert sorted(entry.name for entry in path.parent.iterdir()) == ["abcdef.json"]

    def test_an_unserializable_document_raises_before_any_file_is_created(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ab" / "abcdef.json"
        atomic_write_json(path, {"x": 1})
        before = path.read_bytes()
        created = []
        real_mkstemp = tempfile.mkstemp

        def spy(*args, **kwargs):
            created.append(kwargs.get("dir"))
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", spy)
        with pytest.raises(TypeError):
            atomic_write_json(path, {"x": 2, "late": object()})
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "cd" / "abcdef.json", {"x": {1, 2}})
        assert created == []
        assert path.read_bytes() == before
        assert sorted(entry.name for entry in tmp_path.rglob("*")) == ["ab", "abcdef.json"]


class TestExecutors:
    def test_serial_deduplicates(self):
        jobs = [_tiny_job(), _tiny_job(), _tiny_job(name="416.gamess")]
        report = Executor().run(jobs)
        assert report.submitted == 3
        assert report.unique_jobs == 2
        assert report.executed == 2
        # Duplicates share one payload.
        assert report.outcomes[0].payload == report.outcomes[1].payload

    def test_cache_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [_tiny_job(), _tiny_job(name="416.gamess", policy="sysscale")]
        cold = Executor().run(jobs, cache=cache)
        warm = Executor().run(jobs, cache=cache)
        assert cold.executed == 2 and cold.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == 2
        assert warm.payloads() == cold.payloads()

    def test_parallel_results_bit_identical_to_serial(self):
        jobs = [
            _tiny_job(name=name, policy=policy)
            for name in ("470.lbm", "416.gamess", "429.mcf")
            for policy in ("baseline", "sysscale")
        ]
        serial = Executor().run(jobs)
        with Executor(workers=2) as parallel_executor:
            parallel = parallel_executor.run(jobs)
        assert parallel.payloads() == serial.payloads()

    def test_parallel_pool_persists_across_runs(self):
        """The worker pool is created once and reused by later batches (and
        the reused pool still produces bit-identical results)."""
        jobs = [_tiny_job(), _tiny_job(name="416.gamess")]
        serial = Executor().run(jobs)
        with Executor(workers=2) as executor:
            first = executor.run(jobs)
            pool = executor._pool
            assert pool is not None
            second = executor.run([_tiny_job(name="429.mcf"), *jobs])
            assert executor._pool is pool
            # Once warm, even a single-job batch goes through the pool.
            executor.run([_tiny_job()])
            assert executor._pool is pool
        assert executor._pool is None  # context exit closed it
        assert first.payloads() == serial.payloads()
        assert second.payloads()[1:] == serial.payloads()

    def test_closed_pool_restarts_on_demand(self):
        executor = Executor(workers=2)
        jobs = [_tiny_job(), _tiny_job(name="416.gamess")]
        executor.run(jobs)
        executor.close()
        assert executor._pool is None
        report = executor.run(jobs)  # lazily starts a fresh pool
        assert report.executed == 2
        executor.close()

    def test_single_job_without_pool_stays_in_process(self):
        """No pool is forked for a one-job batch on a cold executor."""
        executor = Executor(workers=2)
        executor.run([_tiny_job()])
        assert executor._pool is None

    def test_worker_count_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            Executor(workers=0)

    @pytest.mark.parametrize(
        "jobs, workers, size",
        [
            (0, 2, 1),
            (3, 2, 1),
            (8, 2, 1),
            (9, 2, 2),
            (64, 2, 8),
            (100_000, 2, MAX_AUTO_BATCH_SIZE),
            (100_000, 64, MAX_AUTO_BATCH_SIZE),
        ],
    )
    def test_auto_batch_size(self, jobs, workers, size):
        """About four submissions per worker, one job per submission for a
        handful of jobs, and never more than the cap."""
        assert auto_batch_size(jobs, workers) == size

    def test_importing_the_package_loads_no_process_pool(self):
        """The pool machinery is imported by the first run that needs a pool,
        not by ``import repro``."""
        code = (
            "import sys, repro, repro.fleet, repro.experiments; "
            "print(' '.join(name for name in ('multiprocessing', "
            "'concurrent.futures.process') if name in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.stdout.strip() == ""

    def test_progress_reports_every_unique_job(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        Executor().run([_tiny_job()], cache=cache)
        updates = []
        Executor().run(
            [_tiny_job(), _tiny_job(name="416.gamess")],
            cache=cache,
            progress=updates.append,
        )
        assert len(updates) == 2
        assert {u.from_cache for u in updates} == {True, False}
        assert all(u.total == 2 for u in updates)

    def test_degradation_job_executes(self):
        outcome = Executor().run([_degradation_job()]).outcomes[0]
        measurement = outcome.result
        assert measurement.degradation > 0.0
        assert all(value >= 0 for value in measurement.counters.values.values())


def _explode_on_prefix(prefix, job):
    """Module-level (picklable) pre-execution hook failing matching jobs."""
    if job.content_hash.startswith(prefix):
        raise RuntimeError(f"injected failure for {job.content_hash[:8]}")


class TestExecutorIsolation:
    """The ``on_error``/``pre_hook`` seam the fleet's failure isolation uses."""

    def test_without_on_error_a_job_exception_propagates(self):
        from functools import partial

        job = _tiny_job()
        hook = partial(_explode_on_prefix, job.content_hash[:8])
        with pytest.raises(RuntimeError):
            Executor().run([job], pre_hook=hook)

    def test_serial_isolation_completes_healthy_jobs(self):
        from functools import partial

        poison = _tiny_job()
        healthy = _tiny_job(name="416.gamess")
        hook = partial(_explode_on_prefix, poison.content_hash[:8])
        failures = []
        report = Executor().run(
            [poison, healthy],
            on_error=lambda job, failure: failures.append((job, failure)),
            pre_hook=hook,
        )
        assert report.failed == 1
        assert report.executed == 1
        [(failed_job, failure)] = failures
        assert failed_job.content_hash == poison.content_hash
        assert failure.kind == "RuntimeError"
        assert "injected failure" in failure.message
        assert failure.traceback  # forensics survive
        assert failure.describe().startswith("RuntimeError: ")
        # The healthy job's outcome is present and bit-identical to a solo run.
        [outcome] = report.outcomes
        assert outcome.job.content_hash == healthy.content_hash
        solo = Executor().run([healthy])
        assert outcome.payload == solo.outcomes[0].payload

    def test_parallel_isolation_across_the_pool_boundary(self):
        from functools import partial

        poison = _tiny_job()
        healthy = [
            _tiny_job(name="416.gamess"),
            _tiny_job(name="429.mcf", policy="sysscale"),
        ]
        hook = partial(_explode_on_prefix, poison.content_hash[:8])
        failures = []
        with Executor(workers=2) as executor:
            report = executor.run(
                [poison, *healthy],
                on_error=lambda job, failure: failures.append(failure),
                pre_hook=hook,
            )
        assert report.failed == 1
        assert report.executed == 2
        [failure] = failures
        assert failure.job_hash == poison.content_hash
        assert failure.kind == "RuntimeError"
        serial = Executor().run(healthy)
        assert report.payloads() == serial.payloads()

    def test_failed_job_is_not_cached(self, tmp_path):
        from functools import partial

        cache = ResultCache(tmp_path / "cache")
        poison = _tiny_job()
        hook = partial(_explode_on_prefix, poison.content_hash[:8])
        report = Executor().run(
            [poison], cache=cache, on_error=lambda job, failure: None, pre_hook=hook
        )
        assert report.failed == 1
        assert cache.get(poison) is None  # a retry really re-executes


class TestCampaigns:
    def test_grid_crosses_all_axes(self):
        campaign = build_grid_campaign(
            "grid",
            traces=[TraceSpec.make("spec", name="470.lbm", duration=0.05)],
            policies=[PolicySpec.make("baseline"), PolicySpec.make("sysscale")],
            tdps=(3.5, 4.5),
            sim=TINY_SIM,
        )
        assert len(campaign) == 4

    def test_dedupe_preserves_order(self):
        a, b = _tiny_job(), _tiny_job(name="416.gamess")
        assert dedupe_jobs([a, b, a, b, a]) == (a, b)

    def test_duplicate_jobs_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="dup", jobs=(_tiny_job(), _tiny_job()))

    def test_named_campaigns_build(self):
        for name, factory in CAMPAIGNS.items():
            campaign = factory(True)
            assert len(campaign) > 0, name
            assert len(factory(False)) >= len(campaign), name


class TestPlatformMemoBound:
    def test_repeated_distinct_specs_do_not_grow_the_memo(self):
        """Regression: a sweep over many distinct platform specs keeps the
        worker-local platform memo LRU-bounded instead of unbounded."""
        import gc
        import weakref

        from repro.runtime.jobs import MEMO_MAX_ENTRIES, clear_memos, platform_for

        clear_memos()
        alive = []
        try:
            for index in range(3 * MEMO_MAX_ENTRIES):
                spec = PlatformSpec(tdp=3.5 + 0.1 * index)
                platform = platform_for(spec)
                # Calibrate it too: the calibration lives on the platform,
                # so it must go when the memo evicts the platform.
                PolicySpec.make("sysscale").build(platform)
                alive.append(weakref.ref(platform._calibration_memo["default"][1]))
                assert platform_for.cache_info().currsize <= MEMO_MAX_ENTRIES
            gc.collect()
            assert sum(ref() is not None for ref in alive) <= MEMO_MAX_ENTRIES
        finally:
            clear_memos()
        assert platform_for.cache_info().currsize == 0

    def test_memo_hits_return_the_same_platform(self):
        from repro.runtime.jobs import clear_memos, platform_for

        clear_memos()
        try:
            spec = PlatformSpec(tdp=4.5)
            assert platform_for(spec) is platform_for(spec)
        finally:
            clear_memos()

    def test_eviction_preserves_correct_rebuild(self):
        """An evicted platform spec rebuilds an equivalent platform later."""
        from repro.runtime.jobs import MEMO_MAX_ENTRIES, clear_memos, platform_for

        clear_memos()
        try:
            first = platform_for(PlatformSpec(tdp=4.5))
            described = first.describe()
            for index in range(MEMO_MAX_ENTRIES + 1):  # evict the first entry
                platform_for(PlatformSpec(tdp=5.0 + 0.1 * index))
            rebuilt = platform_for(PlatformSpec(tdp=4.5))
            assert rebuilt is not first
            assert rebuilt.describe() == described
        finally:
            clear_memos()


class TestSharedPlatformAndCalibration:
    """An experiment context reads the runtime's memoized platform and the
    SysScale calibration kept on it: one platform and one calibration per
    spec and process."""

    def test_the_context_reads_the_runtime_platform_and_its_calibration(self):
        from repro.core.sysscale import calibration_for
        from repro.experiments import build_context
        from repro.runtime.jobs import platform_for

        context = build_context()
        assert context.platform is platform_for(context.hardware)
        points, thresholds = calibration_for(context.platform)
        assert context.operating_points is points
        assert context.thresholds is thresholds
        policy = PolicySpec.make("sysscale").build(context.platform)
        assert policy.operating_points is points
        assert policy.thresholds is thresholds

    def test_a_second_context_or_controller_runs_no_calibration(self, monkeypatch):
        from repro.core import sysscale
        from repro.experiments import build_context
        from repro.hw import HardwareSpec
        from repro.runtime.jobs import clear_memos

        builds, calibrations = [], []
        build, calibrate = HardwareSpec.build, sysscale.default_thresholds

        def counted_build(spec, *args, **kwargs):
            builds.append(spec)
            return build(spec, *args, **kwargs)

        def counted_calibrate(platform, *args, **kwargs):
            calibrations.append(platform)
            return calibrate(platform, *args, **kwargs)

        monkeypatch.setattr(HardwareSpec, "build", counted_build)
        monkeypatch.setattr(sysscale, "default_thresholds", counted_calibrate)
        clear_memos()
        try:
            first = build_context()
            assert builds == [] and calibrations == []
            thresholds = first.thresholds
            platform = first.platform
            assert (builds, calibrations) == ([first.hardware], [platform])
            assert build_context().thresholds is thresholds
            for _ in range(2):
                controller = sysscale.SysScaleController(platform=platform)
                assert controller.thresholds is thresholds
            assert (builds, calibrations) == ([first.hardware], [platform])
        finally:
            clear_memos()

    def test_an_evicted_platform_is_rebuilt_and_recalibrated(self):
        from repro.experiments import build_context
        from repro.runtime.jobs import MEMO_MAX_ENTRIES, clear_memos, platform_for

        clear_memos()
        try:
            context = build_context()
            platform, thresholds = context.platform, context.thresholds
            for index in range(MEMO_MAX_ENTRIES):
                platform_for(PlatformSpec(tdp=5.0 + 0.1 * index))
            assert context.platform is not platform
            assert context.thresholds is not thresholds
            assert context.thresholds == thresholds
        finally:
            clear_memos()

    def test_in_process_jobs_leave_the_shared_platform_at_boot(self):
        """A SysScale run ends wherever its last decision left the platform,
        and the context reads that same platform: Fig. 5's flow must still
        start from the boot state."""
        from repro.experiments import build_context, get_spec

        context = build_context()
        fig5 = get_spec("fig5")
        before = fig5.run(context, quick=True).results_dict()
        job = context.simulation_job(
            TraceSpec.make("spec", name="416.gamess", duration=0.3),
            PolicySpec.make("sysscale"),
        )
        result = context.runtime.simulate([job])[0]
        assert result.transitions % 2 == 1  # the run ended at the low point
        dram = context.platform.dram
        assert dram.current_frequency == dram.max_frequency
        assert fig5.run(context, quick=True).results_dict() == before


class TestTraceMemo:
    """Jobs that share a TraceSpec in one process share the trace it built."""

    def test_second_build_returns_the_same_trace(self):
        from repro.runtime.jobs import clear_memos

        clear_memos()
        try:
            spec = TraceSpec.make("spec", name="416.gamess", duration=0.05)
            first = spec.build()
            assert TraceSpec.make("spec", duration=0.05, name="416.gamess").build() is first
        finally:
            clear_memos()

    def test_parameter_types_are_part_of_the_key(self):
        """``1 == 1.0`` in Python but not in the JSON a job hashes: after the
        int spec is built, the equal float spec still reaches its builder,
        which rejects a float cycle count."""
        from repro.runtime.jobs import clear_memos

        clear_memos()
        try:
            as_int = TraceSpec.make("battery_life", name="web_browsing", cycles=1)
            as_float = TraceSpec.make("battery_life", name="web_browsing", cycles=1.0)
            assert as_int == as_float
            as_int.build()
            with pytest.raises(TypeError):
                as_float.build()
        finally:
            clear_memos()

    def test_clear_memos_empties_the_memo(self):
        from repro.runtime.jobs import _built_trace, clear_memos

        spec = TraceSpec.make("spec", name="416.gamess", duration=0.05)
        first = spec.build()
        assert _built_trace.cache_info().currsize
        clear_memos()
        assert _built_trace.cache_info().currsize == 0
        assert spec.build() is not first
        clear_memos()

    def test_memo_is_lru_bounded(self):
        from repro.runtime.jobs import MEMO_MAX_ENTRIES, _built_trace, clear_memos

        clear_memos()
        try:
            first = TraceSpec.make("spec", name="416.gamess", duration=0.01)
            first_trace = first.build()
            for index in range(1, 3 * MEMO_MAX_ENTRIES):
                TraceSpec.make("spec", name="416.gamess", duration=0.01 * (index + 1)).build()
                assert _built_trace.cache_info().currsize <= MEMO_MAX_ENTRIES
            assert first.build() is not first_trace
        finally:
            clear_memos()
