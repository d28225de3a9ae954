"""Failure semantics: fault injection, backoff, quarantine, doctor."""

import json
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fleet import (
    FaultPlan,
    FaultRule,
    FleetConfig,
    FleetService,
    JobQueue,
    Quarantine,
    ShardedResultStore,
    backoff_seconds,
    fleet_status,
    run_doctor,
    submit_campaign,
    sweep_spec_hash,
    verify_campaign,
)
from repro.fleet.faults import InjectedFault, InjectedOSError
from repro.fleet.queue import STATE_EXHAUSTED, STATE_LEASED, STATE_QUEUED, tally
from repro.fleet.resilience import FailureRecord
from repro.fleet.service import FleetPaths
from repro.fleet.store import read_manifests
from repro.runtime import (
    Campaign,
    PlatformSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
)
from repro.runtime.executor import JobFailure

FIXTURES = Path(__file__).parent / "fixtures" / "fleet"
SRC = Path(__file__).resolve().parents[1] / "src"

TINY_SIM = SimSpec(max_simulated_time=0.05)


def _tiny_job(name="470.lbm", policy="baseline", tdp=4.5):
    return SimulationJob(
        trace=TraceSpec.make("spec", name=name, duration=0.05),
        policy=PolicySpec.make(policy),
        platform=PlatformSpec(tdp=tdp),
        sim=TINY_SIM,
    )


def _tiny_campaign(name="resilience-tiny"):
    return Campaign(
        name=name,
        jobs=(
            _tiny_job(policy="baseline"),
            _tiny_job(policy="sysscale"),
            _tiny_job(name="433.milc", policy="sysscale"),
        ),
    )


def _dead_pid():
    """The pid of a child process that has already exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


#: The tally of a queue with no entry file at all.
EMPTY = {STATE_QUEUED: 0, STATE_LEASED: 0, "corrupt": 0, "transient": 0}


def _torn(method, returned):
    """``method``, a ``JobQueue`` method, with every queue write it makes
    torn; what each call returns is appended to ``returned``."""

    def torn(queue, *args, **kwargs):
        queue.faults = FaultPlan.parse("seed=0;torn@queue.write=1.0")
        try:
            returned.append(method(queue, *args, **kwargs))
        finally:
            queue.faults = None
        return returned[-1]

    return torn


def _drain_config(root, faults=None, **overrides):
    settings = {
        "root": root,
        "workers": 1,
        "poll_interval": 0.01,
        "drain": True,
        "drain_grace": 5.0,
        "autoscale": False,
        "faults": faults,
    }
    settings.update(overrides)
    return FleetConfig(**settings)


# ---------------------------------------------------------------------------
# FaultPlan: parsing, decisions, determinism
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trips_through_describe(self):
        spec = "seed=42;torn@queue.write=0.25;hang@job=0.1:0.05;crash@job[ab12]=1"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 42
        assert len(plan.rules) == 3
        assert plan.rules[1] == FaultRule(
            kind="hang", op="job", rate=0.1, param=0.05
        )
        assert plan.rules[2].match == "ab12"
        assert FaultPlan.parse(plan.describe()).rules == plan.rules

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate@queue.write=0.5",  # unknown kind
            "torn@job=0.5",  # kind/op mismatch
            "crash@job=1.5",  # rate out of range
            "torn@queue.write",  # missing rate
            "torn=0.5",  # missing op
            "torn@queue.write=abc",  # non-numeric
        ],
    )
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_decisions_are_pure_functions_of_seed_and_key(self):
        spec = "seed=9;crash@job=0.5"
        pairs = [(f"{i:02d}" * 20, 1) for i in range(20)]
        first = FaultPlan.parse(spec).job_directives(pairs)
        second = FaultPlan.parse(spec).job_directives(pairs)
        assert first == second
        assert 0 < len(first) < len(pairs)  # some fire, some don't
        # A different seed decides differently somewhere.
        other = FaultPlan.parse("seed=10;crash@job=0.5").job_directives(pairs)
        assert other != first

    def test_job_directives_are_order_independent(self):
        pairs = [(f"{i:02d}" * 20, 1) for i in range(10)]
        forward = FaultPlan.parse("seed=3;raise@job=0.5").job_directives(pairs)
        backward = FaultPlan.parse("seed=3;raise@job=0.5").job_directives(
            list(reversed(pairs))
        )
        assert forward == backward

    def test_retry_attempt_gets_a_fresh_decision(self):
        plan = FaultPlan.parse("seed=1;raise@job=0.5")
        job_hash = "ab" * 20
        outcomes = {
            attempt: bool(plan.job_directives([(job_hash, attempt)]))
            for attempt in range(1, 30)
        }
        assert True in outcomes.values() and False in outcomes.values()

    def test_match_prefix_pins_a_poison_job(self):
        target = "aa" * 20
        bystander = "bb" * 20
        plan = FaultPlan.parse(f"seed=0;crash@job[{target[:8]}]=1.0")
        directives = plan.job_directives([(target, 1), (bystander, 1)])
        assert directives == {target: ("crash", 0.0)}

    def test_torn_write_leaves_invalid_json(self, tmp_path):
        plan = FaultPlan.parse("seed=0;torn@queue.write=1.0")
        path = tmp_path / "entry.json"
        assert plan.intercept_write("queue.write", path, json.dumps({"k": "v" * 50})) == "torn"
        with pytest.raises(ValueError):
            json.loads(path.read_text(encoding="utf-8"))

    def test_skip_write_loses_the_rename_but_keeps_the_tmp(self, tmp_path):
        plan = FaultPlan.parse("seed=0;skip@queue.write=1.0")
        path = tmp_path / "entry.json"
        path.write_text('{"old": true}', encoding="utf-8")
        assert plan.intercept_write("queue.write", path, json.dumps({"new": True})) == "skip"
        # The destination is untouched (the "crash" hit before os.replace)...
        assert json.loads(path.read_text(encoding="utf-8")) == {"old": True}
        # ...and the orphaned temp file is left behind for doctor --fix to sweep.
        assert list(tmp_path.glob("*.tmp"))

    def test_oserror_rules_raise(self, tmp_path):
        writer = FaultPlan.parse("seed=0;oserror@queue.write=1.0")
        with pytest.raises(InjectedOSError):
            writer.intercept_write("queue.write", tmp_path / "e.json", "{}")
        reader = FaultPlan.parse("seed=0;oserror@queue.read=1.0")
        with pytest.raises(InjectedOSError):
            reader.intercept_read("queue.read", tmp_path / "e.json")

    def test_event_log_replays_identically(self, tmp_path):
        """The pinned determinism table: one synthetic op sequence, driven
        twice, must produce byte-identical event logs -- and match the
        committed fixture so cross-platform or cross-version drift fails
        loudly."""
        events_a = self._drive(tmp_path / "a")
        events_b = self._drive(tmp_path / "b")
        assert events_a == events_b
        assert events_a  # the table is not vacuously empty
        fixture = json.loads(
            (FIXTURES / "fault_plan_events.json").read_text(encoding="utf-8")
        )
        assert events_a == fixture

    @staticmethod
    def _drive(root: Path):
        root.mkdir(parents=True, exist_ok=True)
        plan = FaultPlan.parse(
            "seed=3;torn@queue.write=0.3;skip@store.write=0.4;"
            "oserror@queue.read=0.25;expire@queue.lease=0.5;"
            "crash@job=0.4;hang@job=0.3:0.01"
        )
        for i in range(8):
            plan.intercept_write(
                "queue.write", root / f"e{i}.json", json.dumps({"i": i, "pad": "x" * 40})
            )
        for i in range(6):
            plan.intercept_write(
                "store.write", root / f"r{i}.json", json.dumps({"i": i, "pad": "y" * 40})
            )
        for i in range(8):
            try:
                plan.intercept_read("queue.read", root / f"e{i}.json")
            except OSError:
                pass
        for i in range(4):
            plan.lease_expired(f"{i:02d}" * 20, attempt=1)
        plan.job_directives(
            [(f"{i:02d}" * 20, attempt) for attempt in (1, 2) for i in range(6)]
        )
        return plan.events


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_backoff_is_deterministic_and_exponential(self):
        job_hash = "cd" * 20
        first = backoff_seconds(job_hash, 1)
        assert first == backoff_seconds(job_hash, 1)
        # Base delay doubles per attempt; jitter stays within [1x, 1.5x).
        for attempt in range(1, 6):
            delay = backoff_seconds(job_hash, attempt)
            base = 0.25 * 2 ** (attempt - 1)
            assert base <= delay < base * 1.5

    def test_backoff_caps(self):
        assert backoff_seconds("ef" * 20, 30, cap=30.0) < 30.0 * 1.5

    def test_backoff_decorrelates_jobs(self):
        delays = {backoff_seconds(f"{i:02d}" * 20, 1) for i in range(10)}
        assert len(delays) == 10  # no thundering herd

    def test_attempt_zero_is_immediate(self):
        assert backoff_seconds("ab" * 20, 0) == 0.0


# ---------------------------------------------------------------------------
# Queue crash consistency
# ---------------------------------------------------------------------------


class TestQueueCrashConsistency:
    def test_corrupt_entry_is_counted_not_swallowed(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        path = queue.locate(entry.job_hash)
        path.write_text('{"schema": 1, "job_hash"', encoding="utf-8")
        counts = queue.counts()
        assert counts["corrupt"] == 1
        assert counts[STATE_QUEUED] == 0
        entries, corrupt, transient, _ = queue.scan()
        assert entries == [] and corrupt == [path] and transient == []

    def test_wrong_schema_reads_as_corrupt(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        path = queue.locate(entry.job_hash)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema"] = 999
        path.write_text(json.dumps(data), encoding="utf-8")
        assert queue.counts()["corrupt"] == 1

    def test_torn_write_faults_are_healed_by_fallback(self, tmp_path):
        # A torn lease write leaves an unreadable file, yet the entry's next
        # transition lands durably, because every transition writes the
        # caller's in-memory entry; completing removes the torn file outright.
        queue = JobQueue(tmp_path / "q")
        queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=0;torn@queue.write=1.0")
        [leased] = queue.lease(limit=1, now=100.0)
        assert queue.counts()["corrupt"] == 1  # the lease write was torn
        queue.faults = None
        released = queue.release(leased)
        assert released.state == STATE_QUEUED and released.attempts == 0
        counts = queue.counts()
        assert counts["corrupt"] == 0 and counts[STATE_QUEUED] == 1
        queue.faults = FaultPlan.parse("seed=0;torn@queue.write=1.0")
        [leased] = queue.lease(limit=1, now=100.0)
        queue.faults = None
        queue.complete(leased)
        assert queue.counts() == EMPTY

    def test_lost_write_keeps_old_state_and_strays_a_tmp(self, tmp_path):
        # The kill-between-tmp-write-and-rename shape: the destination keeps
        # its pre-crash bytes, the temp file survives as an orphan.
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=0;skip@queue.write=1.0")
        [leased] = queue.lease(limit=1, now=100.0)
        queue.faults = None
        on_disk = queue.get(entry.job_hash)
        assert on_disk.state == STATE_QUEUED  # the lease write never landed
        assert list(queue.entries_dir.rglob("*.tmp"))
        # Completing from the caller's copy removes the queued file too.
        queue.complete(leased)
        assert queue.duplicates() == []
        assert queue.counts() == EMPTY

    def test_requeue_expired_racing_lease_loses_nothing(self, tmp_path):
        # Worker w1's lease expires; the entry is requeued and re-leased by
        # w2; w1 finally finishes and completes with its stale entry, which
        # carries the same file name.  The job is done (a caller completes
        # only once its result reads back), so no entry is left -- and none
        # is duplicated.
        queue = JobQueue(tmp_path / "q", lease_timeout=30.0)
        entry = queue.submit(_tiny_job())
        [stale] = queue.lease(limit=1, worker="w1", now=100.0)
        assert len(queue.expire_leases([stale], now=200.0)) == 1
        requeued = queue.get(entry.job_hash)
        assert requeued.state == STATE_QUEUED and requeued.attempts == 1
        [fresh] = queue.lease(limit=1, worker="w2", now=300.0)
        assert fresh.attempts == 2
        # w1 lands late with its stale lease record.
        queue.complete(stale)
        assert queue.counts() == EMPTY
        assert queue.duplicates() == []
        queue.complete(fresh)  # w2 finishing too changes nothing
        assert queue.counts() == EMPTY

    def test_release_refunds_the_attempt(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, now=100.0)
        assert leased.attempts == 1
        released = queue.release(leased, note="pool-suspect")
        assert queue.get(entry.job_hash) == released
        assert released.state == STATE_QUEUED
        assert released.attempts == 0
        assert released.not_before is None  # immediately leasable
        assert released.note == "pool-suspect"

    def test_forced_lease_expiry_fault(self, tmp_path):
        queue = JobQueue(
            tmp_path / "q",
            faults=FaultPlan.parse("seed=0;expire@queue.lease=1.0"),
        )
        queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, now=100.0)
        assert leased.lease_deadline < 100.0  # handed out already expired
        assert len(queue.expire_leases([leased], now=100.0)) == 1

    def test_transient_read_errors_hide_entries_without_corrupting(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=0;oserror@queue.read=1.0")
        entries, corrupt, transient, _ = queue.scan()
        assert entries == [] and corrupt == []  # invisible, not corrupt
        assert len(transient) == 1  # ...but the degradation is reported
        queue.faults = None
        assert len(queue.entries()) == 1  # next scan sees it again

    def test_degraded_scan_never_reads_as_drained(self, tmp_path):
        # A transient read blip hides the only queued entry; a draining
        # service trusting that scan would exit with work still on disk.
        # drained() must stay conservative until the scan settles.
        queue = JobQueue(tmp_path / "q")
        queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=0;oserror@queue.read=1.0")
        counts = queue.counts()
        assert counts[STATE_QUEUED] == 0 and counts["transient"] == 1
        assert not queue.drained()
        queue.faults = None
        assert queue.counts()["transient"] == 0
        assert not queue.drained()  # still queued, now visibly so

    def test_scan_settled_retries_past_transient_blips(self, tmp_path):
        # Rate 0.5 makes individual scans flaky; scan_settled retries until
        # one comes back clean, so doctor-grade readers see the entry.
        queue = JobQueue(tmp_path / "q")
        queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=2;oserror@queue.read=0.5")
        entries, corrupt, transient, _ = queue.scan_settled(attempts=20)
        assert len(entries) == 1 and corrupt == transient == []

    def test_scan_settled_gives_up_on_persistent_failures(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        queue.faults = FaultPlan.parse("seed=0;oserror@queue.read=1.0")
        entries, corrupt, transient, _ = queue.scan_settled(attempts=3)
        assert entries == [] and transient == []
        assert corrupt == [queue.locate(entry.job_hash)]


# ---------------------------------------------------------------------------
# Service-level chaos: isolation, quarantine, healing, bit-identity
# ---------------------------------------------------------------------------


class TestServiceChaos:
    def test_chaos_drain_stays_bit_identical(self, tmp_path):
        """The flagship chaos contract: torn writes, lost writes, injected fs
        errors, per-job exceptions, and short hangs -- the drained sweep is
        still bit-identical to a serial run, with no entry lost or
        duplicated, and the service never exits on a per-job failure."""
        plan = FaultPlan.parse(
            "seed=7;torn@queue.write=0.15;skip@queue.write=0.05;"
            "oserror@queue.read=0.1;raise@job=0.3;hang@job=0.2:0.02"
        )
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        service = FleetService(
            _drain_config(root, faults=plan, max_attempts=6, lease_timeout=5.0)
        )
        summary = service.serve_forever()
        assert summary["drained"] is True
        assert sum(plan.summary().values()) > 0  # chaos actually fired
        verdict = verify_campaign(root, campaign)
        assert verdict["ok"] is True, verdict
        assert JobQueue(FleetPaths(root).queue_dir).counts() == EMPTY

    @pytest.mark.parametrize("kind", ["torn", "skip"])
    def test_a_result_that_does_not_read_back_runs_again(
        self, tmp_path, monkeypatch, kind
    ):
        """The store is the done state: a torn or lost result write releases
        the entry with its attempt refunded, and the job runs again until
        its result reads back.  No job is completed or counted before that,
        and the drained queue holds no entry."""
        plan = FaultPlan.parse(f"seed=3;{kind}@store.write=0.5")
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        service = FleetService(_drain_config(root, faults=plan))
        completed = []
        complete = JobQueue.complete

        def checked_complete(queue, entry):
            assert service.store.job_payload(entry.job_hash) is not None
            completed.append(entry.job_hash)
            complete(queue, entry)

        monkeypatch.setattr(JobQueue, "complete", checked_complete)
        summary = service.serve_forever()
        assert (summary["exit"], summary["jobs_failed"]) == ("drained", 0)
        hashes = sorted(job.content_hash for job in campaign.jobs)
        faulted = {event["path"][: -len(".json")] for event in plan.events}
        assert faulted & set(hashes)  # result writes were hit, not only reports
        assert sorted(completed) == hashes
        assert summary["jobs_run"] == len(hashes)
        assert verify_campaign(root, campaign)["ok"] is True
        assert JobQueue(FleetPaths(root).queue_dir).counts() == EMPTY

    def test_a_torn_result_is_not_landed(self, tmp_path):
        """``fleet status`` counts a job landed by the store's done rule,
        a result that reads back; ``store.jobs`` counts result files."""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        store = ShardedResultStore(FleetPaths(root).store_dir)
        for job in campaign.jobs:
            store.job_cache().put(job, {"answer": 42})
        torn = campaign.jobs[0].content_hash
        store.job_path(torn).write_text("{torn", encoding="utf-8")
        status = fleet_status(root)
        [manifest] = status["campaigns"]
        assert manifest["landed"] == len(campaign.jobs) - 1
        assert status["store"]["jobs"] == len(campaign.jobs)

    def test_status_reads_a_result_shared_by_campaigns_once(self, tmp_path, monkeypatch):
        root = tmp_path / "fleet"
        jobs = _tiny_campaign().jobs
        for campaign in (Campaign("first", jobs[:2]), Campaign("second", jobs[1:])):
            submit_campaign(root, campaign)
        store = ShardedResultStore(FleetPaths(root).store_dir)
        for job in jobs:
            store.job_cache().put(job, {"answer": 42})
        reads = []
        real = ShardedResultStore.job_payload

        def counting(self, job_hash):
            reads.append(job_hash)
            return real(self, job_hash)

        monkeypatch.setattr(ShardedResultStore, "job_payload", counting)
        status = fleet_status(root)
        assert sorted(reads) == sorted(job.content_hash for job in jobs)
        assert [campaign["landed"] for campaign in status["campaigns"]] == [2, 2]

    @pytest.mark.parametrize("cause", ["result-lost", "pool-break"])
    def test_a_torn_release_heals_with_its_attempt_refunded(
        self, tmp_path, monkeypatch, cause
    ):
        """A release whose write tears is healed as ``release`` returned it:
        the attempt stays refunded and, after a pool break, the
        ``pool-suspect`` note stays, so the retry runs solo."""
        root = tmp_path / "fleet"
        jobs = _tiny_campaign().jobs[: 1 if cause == "result-lost" else 2]
        queue = JobQueue(FleetPaths(root).queue_dir)
        for job in jobs:
            queue.submit(job)
        service = FleetService(_drain_config(root))
        leases, released = [], []
        lease, release = JobQueue.lease, JobQueue.release

        def recorded_lease(queue, *args, **kwargs):
            leases.append(lease(queue, *args, **kwargs))
            return leases[-1]

        def no_result(jobs, **kwargs):
            if cause == "pool-break":
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(JobQueue, "lease", recorded_lease)
        monkeypatch.setattr(JobQueue, "release", _torn(release, released))
        service.executor.run = no_result
        assert service.run_once(now=100.0) == 0
        assert queue.counts()["corrupt"] == len(jobs)
        monkeypatch.setattr(JobQueue, "release", release)
        del service.executor.run
        assert service.run_once(now=101.0) == len(jobs)
        service.executor.close()
        note = "pool-suspect" if cause == "pool-break" else None
        assert [(e.attempts, e.note) for e in released] == [(0, note)] * len(jobs)
        # The healing poll leased each entry as released: one attempt.
        assert [(e.attempts, e.note) for e in leases[1]] == [(1, note)] * len(jobs)
        assert queue.counts() == EMPTY

    def test_a_torn_fail_heals_with_its_backoff_and_error(
        self, tmp_path, monkeypatch
    ):
        """A failed attempt whose requeue write tears is healed as ``fail``
        returned it, backoff window and error included: the retry waits."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        entry = queue.submit(_tiny_job())
        service = FleetService(_drain_config(root))
        failed = []
        fail = JobQueue.fail

        def failing(jobs, on_error=None, **kwargs):
            for job in jobs:
                on_error(job, JobFailure(job.content_hash, "RuntimeError", "boom", ""))

        monkeypatch.setattr(JobQueue, "fail", _torn(fail, failed))
        service.executor.run = failing
        assert service.run_once(now=100.0) == 0
        assert queue.counts()["corrupt"] == 1
        monkeypatch.setattr(JobQueue, "fail", fail)
        assert service.run_once(now=100.1) == 0
        service.executor.close()
        [returned] = failed
        assert returned.error == "RuntimeError: boom" and returned.not_before > 100.1
        assert queue.get(entry.job_hash) == returned

    def test_a_torn_lease_heals_leased_and_expires(self, tmp_path):
        """A lease whose write tore, held by a poll that raised before the
        job settled, is healed as the lease: it is not leased again before
        its deadline, and then expires like any lease."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        entry = queue.submit(_tiny_job())
        service = FleetService(_drain_config(root, lease_timeout=5.0))
        service.queue.faults = FaultPlan.parse("seed=0;torn@queue.write=1.0")

        def broken(jobs, **kwargs):
            service.queue.faults = FaultPlan.parse("seed=0;oserror@queue.write=1.0")
            raise RuntimeError("worker lost")

        service.executor.run = broken
        with pytest.raises(OSError):  # the requeue write raised out of the poll
            service.run_once(now=100.0)
        assert queue.counts()["corrupt"] == 1
        service.queue.faults = None
        del service.executor.run
        assert service.run_once(now=101.0) == 0
        healed = queue.get(entry.job_hash)
        assert (healed.state, healed.attempts, healed.lease_deadline) == (
            STATE_LEASED, 1, 105.0
        )
        assert service.run_once(now=106.0) == 0  # requeued behind its backoff
        service.executor.close()
        requeued = queue.get(entry.job_hash)
        assert (requeued.state, requeued.attempts) == (STATE_QUEUED, 1)
        assert "lease expired" in requeued.error

    def test_fault_sequence_replays_bit_identically_from_seed(self, tmp_path):
        """Two fresh directories, same seed, same driven poll sequence: the
        injected fault event logs and final queue states are identical."""
        spec = "seed=11;torn@queue.write=0.2;raise@job=0.25;oserror@queue.read=0.1"

        def drive(name):
            plan = FaultPlan.parse(spec)
            root = tmp_path / name
            campaign = _tiny_campaign()
            submit_campaign(root, campaign)
            service = FleetService(
                _drain_config(root, faults=plan, max_attempts=6)
            )
            t = 1000.0
            for _ in range(12):
                service.run_once(now=t)
                t += 100.0  # far past any backoff window
            service.executor.close()
            counts = service.queue.counts()
            return plan.events, counts

        events_a, counts_a = drive("a")
        events_b, counts_b = drive("b")
        assert events_a == events_b
        assert events_a  # chaos actually fired
        assert counts_a == counts_b == EMPTY  # every job done

    def test_in_process_crash_is_isolated_and_quarantined(self, tmp_path):
        """workers=1 runs jobs in-process: the crash directive degrades to an
        isolated exception; co-leased jobs complete, the poison job exhausts
        its attempts and lands in quarantine with its paper trail."""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        poison_hash = campaign.jobs[0].content_hash
        submit_campaign(root, campaign)
        plan = FaultPlan.parse(f"crash@job[{poison_hash[:12]}]=1.0")
        service = FleetService(_drain_config(root, faults=plan, max_attempts=2))
        summary = service.serve_forever()
        assert summary["jobs_quarantined"] == 1
        record = Quarantine(root / "quarantine").get(poison_hash)
        assert record is not None
        assert record.reason == "exhausted"
        assert record.error_class == "InjectedWorkerCrash"
        assert record.attempts == 2
        assert len(record.history) == 2
        assert record.job is not None  # resubmittable payload preserved
        store = ShardedResultStore(FleetPaths(root).store_dir)
        for job in campaign.jobs[1:]:
            assert store.has_job(job.content_hash)
        assert not store.has_job(poison_hash)

    def test_pool_crash_poison_job_quarantined_others_complete(self, tmp_path):
        """The acceptance shape: a job that kills its pool worker every
        attempt ends quarantined after max_attempts while every co-submitted
        job completes; the service never exits on the failures; doctor
        accounts for the poison job and reports the dir healthy."""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        poison_hash = campaign.jobs[0].content_hash
        submit_campaign(root, campaign)
        plan = FaultPlan.parse(f"crash@job[{poison_hash[:12]}]=1.0")
        service = FleetService(
            _drain_config(root, faults=plan, workers=2, max_attempts=2)
        )
        summary = service.serve_forever()
        assert summary["jobs_quarantined"] == 1
        assert summary["drained"] is False  # the manifest can never finalize
        record = Quarantine(root / "quarantine").get(poison_hash)
        assert record is not None
        assert record.attempts == 2
        store = ShardedResultStore(FleetPaths(root).store_dir)
        for job in campaign.jobs[1:]:
            assert store.has_job(job.content_hash)
        # The queue holds nothing: the completed jobs left it, and the
        # poison entry moved out.
        assert JobQueue(FleetPaths(root).queue_dir).counts() == EMPTY
        # Doctor: the quarantined job is accounted for, the dir is healthy.
        report = run_doctor(root)
        assert report.ok, [f.to_dict() for f in report.findings]
        codes = {finding.code for finding in report.findings}
        assert "quarantined-job" in codes

    def test_expired_last_attempt_is_quarantined_in_the_same_poll(self, tmp_path):
        # The poll's one scan sees the entry still leased; expiring it spends
        # the last attempt, and the same poll must quarantine it, or a
        # draining loop could exit "blocked" with it still in the queue.
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir, lease_timeout=5.0, max_attempts=1)
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, worker="gone", now=100.0)
        assert leased.attempts == 1
        service = FleetService(
            _drain_config(root, max_attempts=1, lease_timeout=5.0)
        )
        assert service.run_once(now=200.0) == 0
        service.executor.close()
        record = Quarantine(root / "quarantine").get(entry.job_hash)
        assert record is not None
        assert record.reason == "exhausted"
        assert "lease expired" in record.message
        assert queue.get(entry.job_hash) is None
        assert service.jobs_quarantined == 1

    def test_a_crash_before_the_quarantine_record_costs_one_lease(self, tmp_path):
        """The last attempt's ``fail`` writes nothing, so a service that dies
        before writing the quarantine record leaves only its lease: once the
        lease deadline passes, a fresh service's poll quarantines the job,
        and no entry is left."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir, lease_timeout=5.0, max_attempts=1)
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, worker="gone", now=100.0)
        exhausted = queue.fail(leased, error="boom", now=101.0)
        assert exhausted.state == STATE_EXHAUSTED
        quarantine = Quarantine(root / "quarantine")
        assert quarantine.get(entry.job_hash) is None
        assert queue.get(entry.job_hash) == leased
        service = FleetService(_drain_config(root, max_attempts=1, lease_timeout=5.0))
        assert service.run_once(now=104.0) == 0  # the lease is still live
        assert queue.get(entry.job_hash) == leased
        assert service.run_once(now=106.0) == 0
        service.executor.close()
        record = quarantine.get(entry.job_hash)
        assert (record.reason, record.attempts) == ("exhausted", 1)
        assert "lease expired" in record.message
        assert list(queue.entries_dir.rglob("*.json")) == []
        assert not (queue.entries_dir / "failed").exists()

    @pytest.mark.parametrize(
        "case", ["hashes-elsewhere", "does-not-build", "not-a-dict", "nan-tick"]
    )
    def test_an_entry_that_cannot_run_under_its_hash_is_quarantined(
        self, tmp_path, case
    ):
        """An entry whose job rebuilds into another job (one queued before a
        job-hash change) would store its result under the other hash and be
        released forever; one whose job does not build (a NaN tick would
        spin the engine forever) would fail each poll that leases it.  The
        poll that leases either quarantines it as ``invalid-entry``, keeping
        its job for a resubmit, and the rest of the slice runs."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        good, named = _tiny_job(), _tiny_job(policy="sysscale")
        if case == "hashes-elsewhere":
            other = _tiny_job(tdp=7.0)
            carried, error_class = other.to_dict(), "ValueError"
            named_in_message = other.content_hash
        elif case == "does-not-build":
            carried = {**named.to_dict(), "policy": {"builder": "no-such-policy", "params": {}}}
            error_class, named_in_message = "KeyError", "no-such-policy"
        elif case == "nan-tick":
            carried = named.to_dict()
            carried["sim"]["tick"] = float("nan")
            error_class, named_in_message = "ValueError", "tick"
        else:
            carried, error_class, named_in_message = ["not", "a", "job"], "TypeError", "list"
        queue.submit(good)
        queue.restore(replace(queue.submit(named), job=carried))
        service = FleetService(_drain_config(root))
        assert service.run_once(now=100.0) == 1
        service.executor.close()
        record = Quarantine(root / "quarantine").get(named.content_hash)
        assert record is not None
        assert (record.reason, record.error_class, record.attempts) == (
            "invalid-entry", error_class, 1
        )
        assert named_in_message in record.message
        # Compared as JSON text: NaN equals nothing, not even itself.
        assert json.dumps(record.job) == json.dumps(carried)
        assert queue.counts() == EMPTY
        assert service.jobs_quarantined == 1
        store = ShardedResultStore(FleetPaths(root).store_dir)
        assert [store.has_job(job.content_hash) for job in (good, named)] == [True, False]
        assert len(store.job_cache()) == 1

    def test_a_torn_entry_is_unfinished_work_to_status_doctor_and_serve(
        self, tmp_path
    ):
        """A torn queued entry no service holds reads as unfinished work by
        the one drained rule: ``fleet status`` is not drained, the doctor
        sees work pending with no service, and ``serve --drain`` polls on
        until the lease timeout passes and it quarantines the file."""
        root = tmp_path / "fleet"
        submit_campaign(root, _tiny_campaign())
        FleetService(_drain_config(root)).serve_forever()
        queue = JobQueue(FleetPaths(root).queue_dir)
        stray = queue.submit(_tiny_job(tdp=3.5))  # in no manifest
        queue.locate(stray.job_hash).write_text("{torn", encoding="utf-8")
        status = fleet_status(root)
        assert (status["drained"], status["queue"]["corrupt"]) == (False, 1)
        codes = {f.code for f in run_doctor(root).findings}
        assert {"corrupt-entry", "no-service"} <= codes
        summary = FleetService(
            _drain_config(root, drain_grace=0.1, lease_timeout=0.5)
        ).serve_forever()
        assert (summary["exit"], summary["jobs_quarantined"]) == ("drained", 1)
        assert summary["rounds"] > 1
        assert Quarantine(root / "quarantine").has(stray.job_hash)
        assert fleet_status(root)["drained"] is True

    def test_corrupt_entry_restored_from_store(self, tmp_path):
        """A corrupt entry whose result reads back from the store is healed
        by dropping it: the store says the job is done, and it never runs
        again."""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        FleetService(_drain_config(root)).serve_forever()
        queue = JobQueue(FleetPaths(root).queue_dir)
        victim = queue.submit(campaign.jobs[0])
        path = queue.locate(victim.job_hash)
        path.write_text("{torn", encoding="utf-8")
        assert queue.counts()["corrupt"] == 1
        healer = FleetService(_drain_config(root))
        assert healer.run_once(now=time.time()) == 0
        healer.executor.close()
        assert queue.counts() == EMPTY
        assert not path.exists()

    def test_interrupted_loop_leaves_a_stopped_beat(self, tmp_path):
        root = tmp_path / "fleet"
        heartbeat = FleetPaths(root).heartbeat

        def interrupted_service():
            service = FleetService(_drain_config(root))

            def interrupt(now=None):
                raise KeyboardInterrupt

            service.run_once = interrupt
            return service

        with pytest.raises(KeyboardInterrupt):
            interrupted_service().serve_forever()
        beat = json.loads(heartbeat.read_text(encoding="utf-8"))
        assert (beat["state"], beat["exit"]) == ("stopped", "interrupted")

        # A final beat that cannot be written never masks the loop's own
        # exception.
        heartbeat.unlink()
        heartbeat.mkdir()
        with pytest.raises(KeyboardInterrupt):
            interrupted_service().serve_forever()

    @pytest.mark.parametrize(
        "settings",
        ({"drain": True, "drain_grace": 0.2}, {"drain": False, "idle_timeout": 0.2}),
        ids=("drain", "idle-timeout"),
    )
    def test_polls_that_always_fail_end_a_bounded_loop(self, tmp_path, settings):
        """A fault that recurs on every poll must not keep a draining or
        idle-bounded service alive: it exits with ``poll-errors``, not
        drained.  (A subprocess with a timeout, because the loop once spun
        forever here.)"""
        root = tmp_path / "fleet"
        script = (
            "import json, sys\n"
            "from repro.fleet.service import FleetConfig, FleetService\n"
            "def fail(self, now=None):\n"
            "    raise OSError('injected: every poll fails')\n"
            "FleetService.run_once = fail\n"
            "config = FleetConfig(root=sys.argv[1], workers=1, poll_interval=0.01,\n"
            "                     **json.loads(sys.argv[2]))\n"
            "print(json.dumps(FleetService(config).serve_forever()))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(root), json.dumps(settings)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 0, completed.stderr
        summary = json.loads(completed.stdout)
        assert summary["drained"] is False
        assert summary["poll_errors"] > 1
        beat = json.loads(FleetPaths(root).heartbeat.read_text(encoding="utf-8"))
        assert (beat["state"], beat["exit"]) == ("stopped", "poll-errors")
        # The stopped beat carries the summary whole.
        assert {key: beat[key] for key in summary} == summary

    def test_the_drain_check_reads_no_entry_file(self, tmp_path, monkeypatch):
        """The drain check between polls is a listing, ``scan(states=())``:
        under a plan where every entry read fails, it still counts each
        entry file in its directory's state and attempts no read, so no
        read fault can hide work from it."""
        root = tmp_path / "fleet"
        JobQueue(FleetPaths(root).queue_dir).submit(_tiny_job())
        plan = FaultPlan.parse("seed=7;oserror@queue.read=1.0")
        service = FleetService(_drain_config(root, faults=plan))
        # Polls that read nothing, and a loop stopped at its first sleep, so
        # the stopped beat carries the drain check's tally.
        service.run_once = lambda now=None: 0

        def stop(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", stop)
        with pytest.raises(KeyboardInterrupt):
            service.serve_forever()
        beat = json.loads(FleetPaths(root).heartbeat.read_text(encoding="utf-8"))
        assert beat["exit"] == "interrupted"
        assert beat["queue"] == {**EMPTY, STATE_QUEUED: 1}
        assert plan.events == []
        # A scan that reads the entry cannot see it at all.
        assert tally(*service.queue.scan()) == {**EMPTY, "transient": 1}

    def test_a_lost_manifest_job_ends_a_drain_blocked(self, tmp_path):
        """A manifest job with no queue entry, no result and no quarantine
        record (a submitter killed between writing its manifest and
        enqueuing) can never land: once the queue has been empty with no
        work for ``drain_grace`` seconds, ``serve --drain`` exits
        ``blocked`` with status 1.  (A subprocess with a timeout, because
        the loop once polled forever here.)"""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        for path in FleetPaths(root).queue_dir.rglob("*.json"):
            path.unlink()
        assert {f.code for f in run_doctor(root).findings} >= {"lost-job"}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--fleet-dir", str(root),
             "--drain", "--drain-grace", "0.5", "--workers", "1",
             "--poll-interval", "0.01", "--json"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 1, completed.stderr
        summary = json.loads(completed.stdout)
        assert (summary["exit"], summary["jobs_run"]) == ("blocked", 0)

    def test_flat_layout_entries_are_restored_or_quarantined(self, tmp_path):
        """Entries in the schema-1 flat layout (``entries/<hash>.json``) read
        as corrupt: the doctor names them, and a draining service drops each
        one whose result reads back (the job is done) and quarantines the
        rest, then exits (a subprocess with a timeout, since flat files no
        scan reads would leave their manifest pending forever)."""
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        FleetService(_drain_config(root)).serve_forever()
        queue = JobQueue(FleetPaths(root).queue_dir)
        store = ShardedResultStore(FleetPaths(root).store_dir)
        for job in campaign.jobs:
            queue.submit(job)
        stamp = time.time() - 3600.0
        for path in sorted(queue.entries_dir.rglob("*.json")):
            entry = json.loads(path.read_text(encoding="utf-8"))
            flat = queue.entries_dir / f"{entry['job_hash']}.json"
            flat.write_text(json.dumps({**entry, "schema": 1}), encoding="utf-8")
            os.utime(flat, (stamp, stamp))
            path.unlink()
        lost = campaign.jobs[0].content_hash
        store.job_path(lost).unlink()
        store.report_path(sweep_spec_hash(campaign)).unlink()

        audit = run_doctor(root)
        flat_findings = [f for f in audit.findings if f.code == "corrupt-entry"]
        assert sorted(f.subject for f in flat_findings) == sorted(
            job.content_hash for job in campaign.jobs
        )
        assert all("flat layout" in f.message for f in flat_findings)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--fleet-dir", str(root),
             "--drain", "--drain-grace", "0.5", "--workers", "1",
             "--poll-interval", "0.01", "--json"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 1, completed.stderr
        summary = json.loads(completed.stdout)
        assert (summary["exit"], summary["jobs_quarantined"]) == ("blocked", 1)
        assert list(queue.entries_dir.rglob("*.json")) == []
        assert Quarantine(root / "quarantine").has(lost)

    def test_unreadable_manifest_never_blocks_a_drain(self, tmp_path):
        """No service can finalize a manifest that does not parse, so it is
        never pending: the drain exits ``drained``, ``fleet status`` agrees
        and lists the file, and the doctor names it until ``--fix`` moves it
        into quarantine.  (A subprocess with a timeout, because the loop once
        spun forever here.)"""
        root = tmp_path / "fleet"
        submit_campaign(root, _tiny_campaign())
        torn = FleetPaths(root).campaigns_dir / "ffffffffffffffff.json"
        torn.write_text('{"torn": ', encoding="utf-8")
        script = (
            "import json, sys\n"
            "from repro.fleet.service import FleetConfig, FleetService\n"
            "config = FleetConfig(root=sys.argv[1], workers=1, drain=True,\n"
            "                     drain_grace=0.5, poll_interval=0.01)\n"
            "print(json.dumps(FleetService(config).serve_forever()))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 0, completed.stderr
        summary = json.loads(completed.stdout)
        assert (summary["exit"], summary["drained"]) == ("drained", True)
        assert summary["reports_finalized"] == 1

        status = fleet_status(root)
        assert status["drained"] is True
        assert status["unreadable_manifests"] == [torn.name]
        audit = run_doctor(root)
        assert not audit.ok
        [finding] = [f for f in audit.findings if f.code == "corrupt-manifest"]
        assert (finding.severity, finding.subject) == (
            "error", "campaigns/ffffffffffffffff.json"
        )
        assert run_doctor(root, fix=True).ok
        assert not torn.exists()
        moved = root / "quarantine" / "corrupt" / torn.name
        assert moved.read_text(encoding="utf-8") == '{"torn": '
        assert run_doctor(root).ok
        assert fleet_status(root)["unreadable_manifests"] == []


class TestReadManifests:
    @pytest.mark.parametrize(
        "text",
        (
            '{"torn": ',
            "[]",
            '{"schema": 99, "kind": "fleet_manifest", "campaign": "c", '
            '"spec_hash": "ffffffffffffffff", "jobs": []}',
            '{"schema": 1, "kind": "fleet_manifest", "campaign": "c", '
            '"spec_hash": "0123456789abcdef", "jobs": []}',
            '{"schema": 1, "kind": "fleet_manifest", "campaign": "c", '
            '"spec_hash": "ffffffffffffffff"}',
        ),
        ids=("torn", "not-a-dict", "other-schema", "hash-not-its-name", "no-jobs"),
    )
    def test_a_manifest_no_service_can_finalize_is_unreadable(self, tmp_path, text):
        root = tmp_path / "fleet"
        submit_campaign(root, _tiny_campaign())
        bad = FleetPaths(root).campaigns_dir / "ffffffffffffffff.json"
        bad.write_text(text, encoding="utf-8")
        manifests, unreadable = read_manifests(FleetPaths(root))
        assert [manifest["campaign"] for manifest in manifests] == [
            "resilience-tiny"
        ]
        assert unreadable == [bad]

    def test_missing_campaigns_directory_reads_empty(self, tmp_path):
        assert read_manifests(FleetPaths(tmp_path / "fleet")) == ([], [])


# ---------------------------------------------------------------------------
# Doctor
# ---------------------------------------------------------------------------


class TestDoctor:
    def _drained_fleet(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        FleetService(_drain_config(root)).serve_forever()
        return root, campaign

    def test_healthy_drained_dir_is_ok(self, tmp_path):
        root, _ = self._drained_fleet(tmp_path)
        report = run_doctor(root)
        assert report.ok
        # The exited service's heartbeat reads as informational, not broken.
        assert all(f.severity != "error" for f in report.findings)

    def test_corrupt_entry_is_an_error_until_fixed(self, tmp_path):
        """``--fix`` drops a corrupt entry whose result reads back: the job
        is done, so nothing is lost."""
        root, campaign = self._drained_fleet(tmp_path)
        queue = JobQueue(FleetPaths(root).queue_dir)
        victim = queue.submit(campaign.jobs[0])
        path = queue.locate(victim.job_hash)
        path.write_text("{torn", encoding="utf-8")
        audit = run_doctor(root)
        assert not audit.ok
        assert any(f.code == "corrupt-entry" for f in audit.findings)
        fixed = run_doctor(root, fix=True)
        assert fixed.ok
        [finding] = [f for f in fixed.findings if f.code == "corrupt-entry"]
        assert "dropped" in finding.message and finding.fixed
        assert not path.exists()
        assert not Quarantine(root / "quarantine").has(victim.job_hash)
        assert run_doctor(root).ok

    def test_corrupt_entry_without_result_is_quarantined_on_fix(self, tmp_path):
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        entry = queue.submit(_tiny_job())
        path = queue.locate(entry.job_hash)
        path.write_text("{torn", encoding="utf-8")
        report = run_doctor(root, fix=True)
        assert report.ok
        assert not path.exists()
        assert Quarantine(root / "quarantine").has(entry.job_hash)

    def test_corrupt_entry_with_a_torn_result_is_quarantined_on_fix(self, tmp_path):
        """A torn result does not read back, so the job is not done: the
        corrupt entry is quarantined, bytes intact, never dropped."""
        root, campaign = self._drained_fleet(tmp_path)
        queue = JobQueue(FleetPaths(root).queue_dir)
        store = ShardedResultStore(FleetPaths(root).store_dir)
        victim = queue.submit(campaign.jobs[0])
        path = queue.locate(victim.job_hash)
        path.write_text("{torn", encoding="utf-8")
        store.job_path(victim.job_hash).write_text("{torn", encoding="utf-8")
        fixed = run_doctor(root, fix=True)
        assert fixed.ok
        [finding] = [f for f in fixed.findings if f.code == "corrupt-entry"]
        assert "quarantine" in finding.message and finding.fixed
        assert not path.exists()
        moved = root / "quarantine" / "corrupt" / f"{victim.job_hash}.json"
        assert moved.read_text(encoding="utf-8") == "{torn"
        assert any(f.code == "quarantined-job" for f in run_doctor(root).findings)

    def test_already_stored_lease_is_completed_on_fix(self, tmp_path):
        root, campaign = self._drained_fleet(tmp_path)
        queue = JobQueue(FleetPaths(root).queue_dir)
        victim = queue.submit(campaign.jobs[0])
        queue.lease(limit=1, now=time.time())
        report = run_doctor(root, fix=True)
        assert any(
            f.code == "already-stored" and f.fixed for f in report.findings
        )
        assert queue.get(victim.job_hash) is None
        assert queue.counts() == EMPTY

    def _fix_leaves_the_expired_lease(self, root, queue, job_hash, now):
        """Run ``doctor --fix`` on an expired lease: it is reported, unfixed,
        and its file and the quarantine are untouched."""
        lease_file = queue.locate(job_hash)
        lease_bytes = lease_file.read_bytes()
        report = run_doctor(root, fix=True, now=now)
        assert report.ok
        [finding] = [f for f in report.findings if f.code == "expired-lease"]
        assert (finding.severity, finding.fixed) == ("warning", False)
        assert "next serve poll" in finding.message
        assert lease_file.read_bytes() == lease_bytes
        assert Quarantine(root / "quarantine").counts() == {"jobs": 0, "corrupt": 0}

    def test_expired_lease_is_recovered_on_fix(self, tmp_path):
        """Only ``serve`` knows the attempt budget, so ``--fix`` reports an
        expired lease and leaves it to the service's next poll: a lease on
        attempt 3 of a queue drained with ``--max-attempts 6`` is not
        quarantined, and that poll requeues it."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir, lease_timeout=30.0, max_attempts=6)
        entry = queue.submit(_tiny_job())
        now = 100.0
        for _ in range(2):
            [leased] = queue.lease(limit=1, worker="gone", now=now)
            queue.expire_leases([leased], now=now + 100.0)
            now += 200.0
        [last] = queue.lease(limit=1, worker="gone", now=now)
        assert last.attempts == 3
        now += 100.0
        self._fix_leaves_the_expired_lease(root, queue, entry.job_hash, now)
        service = FleetService(_drain_config(root, lease_timeout=30.0, max_attempts=6))
        assert service.run_once(now=now) == 0  # requeued behind its backoff
        service.executor.close()
        requeued = queue.get(entry.job_hash)
        assert (requeued.state, requeued.attempts) == (STATE_QUEUED, 3)
        assert "lease expired" in requeued.error

    def test_expired_last_attempt_is_quarantined_on_fix(self, tmp_path):
        """An expired lease on the last attempt of the budget ``serve``
        drains with is left by ``--fix`` too, and the service's next poll
        quarantines it through ``FailureRecord``, leaving no entry file."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir, lease_timeout=30.0)
        entry = queue.submit(_tiny_job())
        now = 100.0
        for _ in range(queue.max_attempts - 1):
            [leased] = queue.lease(limit=1, now=now)
            queue.fail(leased, error="boom", now=now)
            now += 100.0
        [last] = queue.lease(limit=1, worker="gone", now=now)
        assert last.attempts == queue.max_attempts
        now += 100.0
        self._fix_leaves_the_expired_lease(root, queue, entry.job_hash, now)
        service = FleetService(
            _drain_config(root, lease_timeout=30.0, max_attempts=queue.max_attempts)
        )
        assert service.run_once(now=now) == 0
        service.executor.close()
        record = Quarantine(root / "quarantine").get(entry.job_hash)
        assert (record.reason, record.attempts) == ("exhausted", queue.max_attempts)
        assert "lease expired" in record.message and record.job == entry.job
        assert list(queue.entries_dir.rglob("*.json")) == []

    def test_status_and_doctor_leave_a_missing_directory_missing(self, tmp_path):
        root = tmp_path / "fleet"
        assert fleet_status(root)["drained"] is True
        assert run_doctor(root).ok and run_doctor(root, fix=True).ok
        assert not root.exists()

    def test_stray_tmp_is_swept_on_fix(self, tmp_path):
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        queue.entries_dir.mkdir(parents=True)
        stray = queue.entries_dir / ".cafef00d-abc.tmp"
        stray.write_text("{}", encoding="utf-8")
        stamp = time.time() - 3600.0
        os.utime(stray, (stamp, stamp))
        report = run_doctor(root, fix=True)
        assert any(f.code == "stray-tmp" and f.fixed for f in report.findings)
        assert not stray.exists()

    def test_lost_manifest_job_is_an_error(self, tmp_path):
        root, campaign = self._drained_fleet(tmp_path)
        victim = campaign.jobs[0].content_hash
        store = ShardedResultStore(FleetPaths(root).store_dir)
        store.job_path(victim).unlink()
        report = run_doctor(root)
        assert not report.ok
        assert any(
            f.code == "lost-job" and f.subject == victim
            for f in report.findings
        )

    @pytest.mark.parametrize("later", [STATE_LEASED])
    def test_entry_in_two_state_directories_resolves_to_the_later(
        self, tmp_path, later
    ):
        """The crash between a transition's write and the old file's removal:
        the later state wins, the entry is never leased again, and the doctor
        reports the leftover and removes it on ``--fix``."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        job = _tiny_job()
        entry = queue.submit(job)
        queued_file = queue.locate(entry.job_hash)
        queued_bytes = queued_file.read_bytes()
        now = time.time()
        queue.lease(limit=1, now=now)  # a live lease: nothing else to repair
        queued_file.write_bytes(queued_bytes)
        assert queue.get(entry.job_hash).state == later
        assert queue.lease(limit=1, now=now) == []
        counts = queue.counts()
        assert (counts[STATE_QUEUED], counts[later]) == (0, 1)
        assert queue.duplicates() == [queued_file]

        [finding] = [
            f for f in run_doctor(root).findings if f.code == "duplicate-entry"
        ]
        assert (finding.severity, finding.subject, finding.fixed) == (
            "warning", entry.job_hash, False
        )
        fixed = run_doctor(root, fix=True).findings
        assert [f.fixed for f in fixed if f.code == "duplicate-entry"] == [True]
        assert not queued_file.exists()
        assert queue.duplicates() == []
        assert queue.get(entry.job_hash).state == later

    def test_stale_heartbeat_with_pending_work_is_a_warning(self, tmp_path):
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir)
        queue.submit(_tiny_job())
        FleetPaths(root).heartbeat.write_text(
            json.dumps({"pid": 1, "updated_unix": 0.0}), encoding="utf-8"
        )
        report = run_doctor(root)
        assert report.ok  # warnings never flip the health verdict
        [finding] = [
            f for f in report.findings if f.code == "stale-heartbeat"
        ]
        assert finding.severity == "warning"

    @pytest.mark.parametrize("pending", [False, True])
    def test_stopped_heartbeat_is_never_stale(self, tmp_path, pending):
        root = tmp_path / "fleet"
        root.mkdir()
        queue = JobQueue(FleetPaths(root).queue_dir)
        if pending:
            queue.submit(_tiny_job())
        FleetPaths(root).heartbeat.write_text(
            json.dumps(
                {
                    "pid": _dead_pid(),
                    "updated_unix": 0.0,
                    "state": "stopped",
                    "exit": "interrupted",
                }
            ),
            encoding="utf-8",
        )
        report = run_doctor(root)
        assert report.ok
        assert not any(f.code == "stale-heartbeat" for f in report.findings)
        no_service = [f for f in report.findings if f.code == "no-service"]
        if pending:
            [finding] = no_service
            assert finding.severity == "warning"
            assert "interrupted" in finding.message
        else:
            assert no_service == []


# ---------------------------------------------------------------------------
# CLI: fleet doctor / serve --faults / status surfaces
# ---------------------------------------------------------------------------


class TestResilienceCli:
    def _drained_fleet(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        FleetService(_drain_config(root)).serve_forever()
        return root

    def test_doctor_healthy_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        root = self._drained_fleet(tmp_path)
        assert main(["fleet", "doctor", "--fleet-dir", str(root)]) == 0
        output = capsys.readouterr().out
        assert "verdict: healthy" in output

    def test_doctor_flags_corruption_and_fixes_it(self, tmp_path, capsys):
        from repro.cli import main

        root = self._drained_fleet(tmp_path)
        queue = JobQueue(FleetPaths(root).queue_dir)
        victim = queue.submit(_tiny_job())
        queue.locate(victim.job_hash).write_text(
            "{torn", encoding="utf-8"
        )
        assert main(["fleet", "doctor", "--fleet-dir", str(root)]) == 1
        output = capsys.readouterr().out
        assert "UNHEALTHY" in output and "corrupt-entry" in output
        assert main(["fleet", "doctor", "--fleet-dir", str(root), "--fix"]) == 0
        assert "[fixed]" in capsys.readouterr().out
        assert main(["fleet", "doctor", "--fleet-dir", str(root)]) == 0

    def test_doctor_json_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        root = self._drained_fleet(tmp_path)
        assert main(["fleet", "doctor", "--fleet-dir", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert isinstance(report["findings"], list)

    def test_status_surfaces_corruption_and_quarantine(self, tmp_path, capsys):
        from repro.cli import main

        root = self._drained_fleet(tmp_path)
        queue = JobQueue(FleetPaths(root).queue_dir)
        victim = queue.submit(_tiny_job(tdp=3.5))
        queue.locate(victim.job_hash).write_text(
            "{torn", encoding="utf-8"
        )
        Quarantine(root / "quarantine").add(
            FailureRecord(
                job_hash="ab" * 20,
                reason="exhausted",
                error_class="RuntimeError",
                message="boom",
                attempts=3,
            )
        )
        assert main(["fleet", "status", "--fleet-dir", str(root)]) == 0
        output = capsys.readouterr().out
        assert "1 CORRUPT" in output
        assert "quarantine: 1 job(s)" in output
        assert f"service: stopped (drained, pid {os.getpid()})" in output

    def test_serve_rejects_invalid_faults_spec(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--fleet-dir", str(tmp_path), "--faults", "bogus-spec"]
        )
        assert code == 2
        assert "invalid --faults spec" in capsys.readouterr().err

    def test_serve_exits_one_when_every_poll_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        def fail(self, now=None):
            raise OSError("injected: every poll fails")

        monkeypatch.setattr(FleetService, "run_once", fail)
        root = tmp_path / "fleet"
        code = main(
            [
                "serve", "--fleet-dir", str(root), "--drain", "--drain-grace",
                "0.3", "--workers", "1", "--poll-interval", "0.01", "--json",
            ]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert (summary["exit"], summary["drained"]) == ("poll-errors", False)
        beat = json.loads(FleetPaths(root).heartbeat.read_text(encoding="utf-8"))
        assert beat["exit"] == "poll-errors"
        assert beat["poll_errors"] == summary["poll_errors"] > 1

    def test_serve_exits_one_when_blocked(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        poison = campaign.jobs[0].content_hash
        code = main(
            [
                "serve", "--fleet-dir", str(root), "--drain", "--workers", "1",
                "--poll-interval", "0.01", "--max-attempts", "1",
                "--faults", f"crash@job[{poison[:12]}]=1.0",
            ]
        )
        assert code == 1
        assert "serve: blocked after 2 job(s)" in capsys.readouterr().out
        beat = json.loads(FleetPaths(root).heartbeat.read_text(encoding="utf-8"))
        assert (beat["exit"], beat["jobs_quarantined"]) == ("blocked", 1)
        assert beat["faults"] == {"crash@job": 1}

    def test_serve_drains_under_faults(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        code = main(
            [
                "serve",
                "--fleet-dir",
                str(root),
                "--drain",
                "--workers",
                "1",
                "--poll-interval",
                "0.01",
                "--faults",
                "seed=5;raise@job=0.2",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (summary["exit"], summary["drained"]) == ("drained", True)
        assert "faults" in summary
        assert "chaos faults active" in captured.err + captured.out
        assert verify_campaign(root, campaign)["ok"] is True


# ---------------------------------------------------------------------------
# FailureRecord round-trip
# ---------------------------------------------------------------------------


class TestFailureRecord:
    def test_round_trip(self, tmp_path):
        record = FailureRecord(
            job_hash="ab" * 20,
            reason="exhausted",
            error_class="RuntimeError",
            message="boom",
            attempts=3,
            job={"kind": "simulation"},
            history=(
                {"attempt": 1, "error_class": "RuntimeError", "error": "boom"},
            ),
            recorded_unix=123.0,
        )
        quarantine = Quarantine(tmp_path / "quarantine")
        quarantine.add(record)
        loaded = quarantine.get(record.job_hash)
        assert loaded == record
        assert quarantine.counts() == {"jobs": 1, "corrupt": 0}
        assert quarantine.has(record.job_hash)
