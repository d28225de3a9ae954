"""The repro.fleet subsystem: queue, store, service."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.fleet import (
    FleetConfig,
    FleetService,
    JobQueue,
    Quarantine,
    ShardedResultStore,
    fleet_status,
    submit_campaign,
    sweep_spec_hash,
    verify_campaign,
)
from repro.fleet.queue import (
    PRIORITIES,
    STATE_EXHAUSTED,
    STATE_LEASED,
    STATE_QUEUED,
    _SeqLock,
)
from repro.fleet.service import FleetPaths, resolve_campaign
from repro.hashing import content_hash
from repro.runtime import (
    Campaign,
    ParallelExecutor,
    PlatformSpec,
    PolicySpec,
    SerialExecutor,
    SimSpec,
    SimulationJob,
    TraceSpec,
)

#: A fast simulation spec: 50 ticks, one or two evaluation intervals.
TINY_SIM = SimSpec(max_simulated_time=0.05)

#: The package source, for tests that run ``python -m repro`` in a subprocess.
SRC = Path(__file__).resolve().parents[1] / "src"


def _tiny_job(name="470.lbm", policy="baseline", tdp=4.5):
    return SimulationJob(
        trace=TraceSpec.make("spec", name=name, duration=0.05),
        policy=PolicySpec.make(policy),
        platform=PlatformSpec(tdp=tdp),
        sim=TINY_SIM,
    )


def _tally(scan):
    """Per-state counts of one ``JobQueue.scan()`` result: the entries it
    read, plus the files it listed without reading."""
    entries, corrupt, transient, unread = scan
    totals = dict.fromkeys((STATE_QUEUED, STATE_LEASED), 0)
    totals.update(unread)
    for entry in entries:
        totals[entry.state] += 1
    totals.update(corrupt=len(corrupt), transient=len(transient))
    return totals


def _tiny_campaign(name="fleet-tiny"):
    return Campaign(
        name=name,
        jobs=(
            _tiny_job(policy="baseline"),
            _tiny_job(policy="sysscale"),
            _tiny_job(name="433.milc", policy="sysscale"),
        ),
    )


# ---------------------------------------------------------------------------
# JobQueue: lease / timeout / requeue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_dispatch_order_is_priority_then_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        low = queue.submit(_tiny_job(policy="baseline"), priority=0)
        high = queue.submit(_tiny_job(policy="sysscale"), priority=5)
        ordered = queue.entries()
        assert [e.job_hash for e in ordered] == [high.job_hash, low.job_hash]
        assert low.seq < high.seq  # FIFO seq still records submission order

    def test_lease_claims_and_stamps_deadline(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_timeout=30.0)
        entry = queue.submit(_tiny_job())
        leased = queue.lease(limit=4, worker="w1", now=100.0)
        assert [e.job_hash for e in leased] == [entry.job_hash]
        assert leased[0].state == STATE_LEASED
        assert leased[0].attempts == 1
        assert leased[0].lease_deadline == pytest.approx(130.0)
        assert leased[0].worker == "w1"
        # Nothing queued is left, so a second lease finds nothing.
        assert queue.lease(limit=4, worker="w2", now=101.0) == []

    def test_expired_lease_requeues_with_attempt_spent(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_timeout=30.0, max_attempts=2)
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, worker="w1", now=100.0)
        # Before the deadline nothing is recovered.
        assert queue.expire_leases([leased], now=120.0) == []
        assert queue.get(entry.job_hash).state == STATE_LEASED
        # Past the deadline the entry goes back to queued, attempt spent.
        assert len(queue.expire_leases([leased], now=131.0)) == 1
        requeued = queue.get(entry.job_hash)
        assert requeued.state == STATE_QUEUED
        assert requeued.attempts == 1
        assert "lease expired" in requeued.error

    def test_exhausted_attempts_fail_terminally(self, tmp_path):
        """The last attempt's ``fail`` writes nothing: the entry comes back
        exhausted, for the caller to quarantine, and its lease stays on disk
        until then."""
        queue = JobQueue(tmp_path / "q", lease_timeout=30.0, max_attempts=2)
        entry = queue.submit(_tiny_job())
        [first] = queue.lease(limit=1, worker="w1", now=100.0)
        queue.expire_leases([first], now=131.0)
        [second] = queue.lease(limit=1, worker="w1", now=200.0)
        lease_file = queue.locate(entry.job_hash)
        lease_bytes = lease_file.read_bytes()
        # Second attempt spent -> exhausted.
        [dead] = queue.expire_leases([second], now=231.0)
        assert dead.state == STATE_EXHAUSTED
        assert dead.attempts == 2
        assert "lease expired" in dead.error
        assert lease_file.read_bytes() == lease_bytes
        assert sorted(path.name for path in queue.entries_dir.iterdir()) == [
            STATE_LEASED, STATE_QUEUED
        ]
        assert not queue.drained()  # unfinished until it is quarantined

    def test_complete_is_idempotent(self, tmp_path):
        """Completing removes the entry's file, and the queue keeps no record
        of the done job; completing again changes nothing."""
        queue = JobQueue(tmp_path / "q")
        queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, now=100.0)
        queue.complete(leased)
        queue.complete(leased)
        assert queue.get(leased.job_hash) is None
        assert list(queue.entries_dir.rglob("*.json")) == []
        assert queue.drained()

    def test_fail_requeues_until_attempts_run_out(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_attempts=2)
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, now=100.0)
        failed = queue.fail(leased, error="boom", now=100.0)
        assert failed.state == STATE_QUEUED
        # A failed attempt schedules a backoff window before the retry.
        assert failed.not_before is not None and failed.not_before > 100.0
        assert queue.get(entry.job_hash) == failed
        assert queue.lease(limit=1, now=100.0) == []  # still backing off
        [again] = queue.lease(limit=1, now=failed.not_before + 0.01)
        assert queue.fail(again, error="boom", now=200.0).state == STATE_EXHAUSTED

    @pytest.mark.parametrize("old", ["done", "failed"])
    def test_a_state_directory_of_an_older_version_is_never_read(
        self, tmp_path, old
    ):
        """Done jobs live in the store and exhausted ones in quarantine, so
        an older service's ``done/`` or ``failed/`` entry is no part of the
        queue: nothing lists it, and the job submits afresh."""
        queue = JobQueue(tmp_path / "q")
        entry = queue.submit(_tiny_job())
        (queue.entries_dir / old).mkdir()
        leftover = queue.entries_dir / old / entry.name
        queue.locate(entry.job_hash).rename(leftover)
        assert set(queue.counts().values()) == {0} and queue.drained()
        assert queue.get(entry.job_hash) is None and queue.duplicates() == []
        fresh = queue.submit(_tiny_job())
        assert (fresh.state, fresh.seq) == (STATE_QUEUED, entry.seq + 1)
        assert leftover.exists()

    def test_priorities_beyond_32_bits_are_refused_before_any_write(
        self, tmp_path, capsys
    ):
        """An entry's file name carries its priority in 8 hex digits."""
        from repro.cli import main

        root = tmp_path / "fleet"
        for priority in (PRIORITIES[0] - 1, PRIORITIES[-1] + 1):
            with pytest.raises(ValueError, match="priority"):
                submit_campaign(root, _tiny_campaign(), priority=priority)
        assert not root.exists()
        argv = ["submit", "scenarios", "--quick", "--fleet-dir", str(root)]
        assert main(argv + ["--priority", str(2**31)]) == 2
        assert "invalid --priority" in capsys.readouterr().err
        # The extremes themselves list, and lease, in dispatch order.
        queue = JobQueue(tmp_path / "q")
        low = queue.submit(_tiny_job(policy="baseline"), priority=PRIORITIES[0])
        high = queue.submit(_tiny_job(policy="sysscale"), priority=PRIORITIES[-1])
        [first] = queue.lease(limit=1, now=100.0)
        assert (first.job_hash, queue.lease(limit=1, now=100.0)[0].job_hash) == (
            high.job_hash, low.job_hash
        )

    def test_entries_survive_reopen(self, tmp_path):
        root = tmp_path / "q"
        JobQueue(root).submit(_tiny_job(), priority=3)
        reopened = JobQueue(root)
        [entry] = reopened.entries()
        assert entry.priority == 3
        assert entry.state == STATE_QUEUED
        assert entry.build_job() == _tiny_job()


# ---------------------------------------------------------------------------
# Dedup against a pre-populated store
# ---------------------------------------------------------------------------


class TestSubmitDedup:
    def test_store_hit_lands_straight_in_done(self, tmp_path):
        """The store is the done state: a job whose result reads back is
        done already, so submit writes no entry for it."""
        store = ShardedResultStore(tmp_path / "store")
        job = _tiny_job()
        store.job_cache().put(job, {"answer": 42})
        queue = JobQueue(tmp_path / "q")
        assert queue.submit(job, store=store) is None
        assert list(queue.entries_dir.rglob("*.json")) == []
        assert queue.drained()
        # A torn result does not read back, so the job is enqueued again.
        store.job_path(job.content_hash).write_text("{torn", encoding="utf-8")
        assert queue.submit(job, store=store).state == STATE_QUEUED

    def test_submit_many_accounts_each_dedup_kind(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        answered = _tiny_job(policy="sysscale")
        store.job_cache().put(answered, {"answer": 42})
        queue = JobQueue(tmp_path / "q")
        fresh = _tiny_job()
        queue.submit(fresh)  # already live in the queue
        accounting = queue.submit_many(
            [fresh, answered, _tiny_job(name="433.milc")], store=store
        )
        assert accounting == {
            "enqueued": 1,
            "deduped_store": 1,
            "deduped_queue": 1,
        }

    def test_submit_many_reserves_its_sequence_block_under_one_lock(
        self, tmp_path, monkeypatch
    ):
        live = _tiny_job(name="433.milc", policy="sysscale")
        answered = _tiny_job(policy="sysscale")
        fresh = _tiny_job()
        jobs = [
            fresh,
            answered,
            fresh,
            live,
            _tiny_job(name="433.milc"),
            _tiny_job(tdp=3.5),
        ]

        def queue_with_history(name):
            store = ShardedResultStore(tmp_path / name / "store")
            store.job_cache().put(answered, {"answer": 42})
            queue = JobQueue(tmp_path / name / "q")
            queue.submit(live)
            return queue, store

        one_by_one, store = queue_with_history("single")
        for job in jobs:
            one_by_one.submit(job, store=store)
        batched, store = queue_with_history("batch")
        entered = []
        enter = _SeqLock.__enter__

        def counted_enter(lock):
            entered.append(lock)
            return enter(lock)

        monkeypatch.setattr(_SeqLock, "__enter__", counted_enter)
        accounting = batched.submit_many(jobs, store=store)
        assert len(entered) == 1
        assert accounting == {"enqueued": 3, "deduped_store": 1, "deduped_queue": 2}
        # Same entries, with contiguous seqs in job order; the store hit is
        # done already, so it has no entry and takes no number.
        hashes = [job.content_hash for job in jobs]
        assert [batched.get(h) for h in hashes] == [one_by_one.get(h) for h in hashes]
        seqs = [getattr(batched.get(h), "seq", None) for h in hashes]
        assert seqs == [1, None, 1, 0, 2, 3]
        # A later submit continues from the counter.
        assert batched.submit(_tiny_job(tdp=5.5)).seq == 4

    def test_resubmit_returns_existing_entry_unchanged(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        first = queue.submit(_tiny_job())
        again = queue.submit(_tiny_job())
        assert again.seq == first.seq
        assert again.state == STATE_QUEUED

    def test_failed_entry_is_resubmittable(self, tmp_path):
        """A job out of attempts leaves the queue for quarantine; submitting
        it again writes a fresh queued entry."""
        root = tmp_path / "fleet"
        queue = JobQueue(FleetPaths(root).queue_dir, max_attempts=1)
        entry = queue.submit(_tiny_job())
        [leased] = queue.lease(limit=1, now=100.0)
        exhausted = queue.fail(leased, error="boom")
        Quarantine(root / "quarantine").absorb_exhausted(queue, exhausted, 100.0)
        assert queue.get(entry.job_hash) is None
        fresh = queue.submit(_tiny_job())
        assert fresh.state == STATE_QUEUED
        assert fresh.attempts == 0
        assert fresh.seq == entry.seq + 1


# ---------------------------------------------------------------------------
# Sweep identity and reports
# ---------------------------------------------------------------------------


class TestSweepIdentity:
    def test_spec_hash_is_stable_and_sensitive(self):
        campaign = _tiny_campaign()
        assert sweep_spec_hash(campaign) == sweep_spec_hash(_tiny_campaign())
        capped = campaign.with_sim(SimSpec(max_simulated_time=0.04))
        assert sweep_spec_hash(capped) != sweep_spec_hash(campaign)
        renamed = Campaign(name="other", jobs=campaign.jobs)
        assert sweep_spec_hash(renamed) != sweep_spec_hash(campaign)

    def test_resolve_campaign_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            resolve_campaign("no-such-campaign")

    def test_resolve_campaign_caps_simulated_time(self):
        campaign = resolve_campaign("scenarios", quick=True, max_time=0.05)
        assert campaign.jobs
        assert all(
            job.sim.max_simulated_time == 0.05
            for job in campaign.jobs
            if isinstance(job, SimulationJob)
        )


# ---------------------------------------------------------------------------
# End to end: fleet-run sweep is bit-identical to a serial sweep
# ---------------------------------------------------------------------------


class TestFleetBitIdentity:
    def _drain_config(self, root, **overrides):
        settings = {
            "root": root,
            "workers": 2,
            "batch_size": 2,
            "poll_interval": 0.01,
            "drain": True,
            "drain_grace": 5.0,
        }
        settings.update(overrides)
        return FleetConfig(**settings)

    def test_cold_fleet_sweep_matches_serial(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        summary = submit_campaign(root, campaign)
        assert summary["warm_start"] is False
        assert summary["enqueued"] == len(campaign.jobs)

        service = FleetService(self._drain_config(root))
        outcome = service.serve_forever()
        assert outcome["drained"] is True
        assert outcome["jobs_run"] == len(campaign.jobs)
        assert outcome["reports_finalized"] == 1
        assert outcome["workers"] == 2  # the pool stays pinned at --workers

        verdict = verify_campaign(root, campaign)
        assert verdict["missing"] == []
        assert verdict["mismatched"] == []
        assert verdict["report_ok"] is True
        assert verdict["ok"] is True

        status = fleet_status(root)
        assert status["drained"] is True
        # Done jobs leave the queue: their stored results are the record.
        assert set(status["queue"].values()) == {0}
        assert list(FleetPaths(root).queue_dir.rglob("*.json")) == []
        assert status["store"]["jobs"] == len(campaign.jobs)
        [manifest] = status["campaigns"]
        assert manifest["reported"] is True
        assert manifest["landed"] == len(campaign.jobs)
        # The loop has exited, though this process (the beat's pid) lives on.
        beat = status["service"]
        assert beat["state"] == "stopped"
        assert beat["exit"] == "drained"
        assert beat["workers"] == 2
        assert beat["health"]["stale"] is False
        assert beat["health"]["alive"] is False

    def test_autoscale_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pinned"):
            FleetConfig(root=tmp_path / "fleet", autoscale=True)

    @pytest.mark.parametrize(
        "setting",
        [
            {"lease_limit": 0},
            {"workers": 0},
            {"max_attempts": 0},
            {"batch_size": 0},
            {"lease_timeout": 0.0},
            {"poll_interval": -1.0},
            {"drain_grace": -0.5},
            {"idle_timeout": -1.0},
        ],
    )
    def test_config_rejects_settings_the_loop_cannot_run_with(self, tmp_path, setting):
        """A lease limit of 0 used to make every poll raise, so a draining
        service never exited; now the config refuses it, naming the field."""
        [name] = setting
        with pytest.raises(ValueError, match=name):
            FleetConfig(root=tmp_path, **setting)

    @pytest.mark.parametrize(
        "flags", [["--drain", "--lease-limit", "0"], ["--max-attempts", "0"]]
    )
    def test_serve_rejects_bad_settings_as_usage_errors(self, tmp_path, flags):
        """Exit 2 with a one-line message: no traceback, and no loop that
        never ends (a subprocess with a timeout, because it once hung)."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--fleet-dir",
             str(tmp_path / "fleet"), "--drain-grace", "0.5", *flags],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("invalid serve setting:")

    def test_warm_resubmission_runs_nothing(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        FleetService(self._drain_config(root)).serve_forever()

        # Report-level warm start: nothing is enqueued at all.
        summary = submit_campaign(root, campaign)
        assert summary["warm_start"] is True
        assert summary["enqueued"] == 0
        assert verify_campaign(root, campaign)["ok"] is True

        # Job-level warm start: drop the report but keep the results; the
        # resubmission dedups every job against the store and the service
        # rebuilds the report without executing anything.
        store = ShardedResultStore(FleetPaths(root).store_dir)
        store.report_path(summary["spec_hash"]).unlink()
        summary = submit_campaign(root, campaign)
        assert summary["warm_start"] is False
        assert summary["enqueued"] == 0
        assert summary["deduped_store"] + summary["deduped_queue"] == len(
            campaign.jobs
        )
        service = FleetService(self._drain_config(root))
        outcome = service.serve_forever()
        assert outcome["jobs_run"] == 0
        assert outcome["reports_finalized"] == 1
        # Finalizing counts as work: one poll rebuilds the report, the next
        # finds the directory drained -- no waiting out the drain grace.
        assert outcome["rounds"] == 2
        assert verify_campaign(root, campaign)["ok"] is True

    def test_each_poll_scans_the_queue_once(self, tmp_path, monkeypatch):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        heartbeat = FleetPaths(root).heartbeat
        scans, polls = [], []
        scan, run_once = JobQueue.scan, FleetService.run_once

        def counted_scan(queue, *args, **kwargs):
            result = scan(queue, *args, **kwargs)
            scans.append(result)
            return result

        def recorded_poll(service, now=None):
            first = len(scans)
            completed = run_once(service, now)
            beat = json.loads(heartbeat.read_text(encoding="utf-8"))
            polls.append((completed, scans[first:], beat))
            return completed

        monkeypatch.setattr(JobQueue, "scan", counted_scan)
        monkeypatch.setattr(FleetService, "run_once", recorded_poll)
        service = FleetService(self._drain_config(root, workers=1, lease_limit=1))
        assert service.serve_forever()["drained"] is True
        assert [completed for completed, _, _ in polls if completed] == [1, 1, 1]
        for _, poll_scans, beat in polls:
            assert len(poll_scans) == 1
            # The running beat carries that very scan's tally.
            assert beat["state"] == "running"
            assert beat["queue"] == _tally(poll_scans[0])
        stopped = json.loads(heartbeat.read_text(encoding="utf-8"))
        assert stopped["state"] == "stopped"
        assert stopped["queue"] == JobQueue(FleetPaths(root).queue_dir).counts()

    def test_batching_executor_matches_serial(self, tmp_path):
        jobs = list(_tiny_campaign().jobs)
        serial = SerialExecutor().run(jobs)
        with ParallelExecutor(max_workers=2, batch_size=2) as pool:
            batched = pool.run(jobs)
        for ours, theirs in zip(batched.outcomes, serial.outcomes):
            assert ours.job.content_hash == theirs.job.content_hash
            assert content_hash(ours.payload) == content_hash(theirs.payload)

    def test_executor_failure_degrades_instead_of_raising(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = _tiny_campaign()
        submit_campaign(root, campaign)
        service = FleetService(self._drain_config(root, workers=1))

        def explode(jobs, cache=None, on_error=None, pre_hook=None):
            raise RuntimeError("worker lost")

        service.executor.run = explode
        # The poll absorbs the infrastructure failure: nothing propagates,
        # no job completes, and every leased entry is requeued (attempt
        # charged, backoff scheduled) rather than killed.
        assert service.run_once(now=100.0) == 0
        counts = service.queue.counts()
        assert counts[STATE_QUEUED] == len(campaign.jobs)
        entry = service.queue.entries()[0]
        assert "worker lost" in entry.error
        assert entry.not_before is not None and entry.not_before > 100.0
        service.executor.close()


# ---------------------------------------------------------------------------
# What a drain reads
# ---------------------------------------------------------------------------


class TestDrainReads:
    """Two quick catalog campaigns sharing 12 of their 74 jobs, drained a
    few leases per poll."""

    CAMPAIGNS = ("evaluation", "dram-device")

    def _submit(self, root):
        campaigns = [
            resolve_campaign(name, quick=True, max_time=0.02) for name in self.CAMPAIGNS
        ]
        for campaign in campaigns:
            submit_campaign(root, campaign)
        return campaigns

    def _drain(self, root, lease_limit):
        config = FleetConfig(
            root=root, workers=1, lease_limit=lease_limit, poll_interval=0.01,
            drain=True, drain_grace=5.0,
        )
        summary = FleetService(config).serve_forever()
        assert (summary["exit"], summary["drained"]) == ("drained", True)

    def test_a_drain_reads_at_most_one_entry_file_per_job(
        self, tmp_path, monkeypatch
    ):
        """Submit reads no entry, each poll reads only the queued entries it
        may lease, and neither ``complete`` (an unlink) nor the drain check
        (a listing) reads one."""
        reads = []
        read = JobQueue._read_classified

        def counted_read(queue, path, *args):
            reads.append(path)
            return read(queue, path, *args)

        monkeypatch.setattr(JobQueue, "_read_classified", counted_read)
        root = tmp_path / "fleet"
        campaigns = self._submit(root)
        assert reads == []
        self._drain(root, lease_limit=4)
        unique = {job.content_hash for campaign in campaigns for job in campaign.jobs}
        assert len(unique) == 74
        assert len(reads) <= len(unique)
        assert {path.parent.name for path in reads} == {STATE_QUEUED}
        assert list((root / "queue").rglob("*.json")) == []

    def test_finalize_reads_each_payload_once_per_manifest(
        self, tmp_path, monkeypatch
    ):
        """Each payload is read once when its job completes, and a
        manifest's payloads once more, only once all its jobs have landed;
        a stored report is parsed at most twice (the first poll that finds
        it, plus one rewrite if a faulted write tore it)."""
        payload_reads, report_parses = Counter(), Counter()
        store_class = ShardedResultStore
        job_payload, get_report = store_class.job_payload, store_class.get_report

        def counted_payload(store, job_hash):
            if store.job_path(job_hash).is_file():
                payload_reads[job_hash] += 1
            return job_payload(store, job_hash)

        def counted_report(store, spec_hash):
            if store.report_path(spec_hash).is_file():
                report_parses[spec_hash] += 1
            return get_report(store, spec_hash)

        monkeypatch.setattr(store_class, "job_payload", counted_payload)
        monkeypatch.setattr(store_class, "get_report", counted_report)
        root = tmp_path / "fleet"
        campaigns = self._submit(root)
        self._drain(root, lease_limit=1)
        listed_by = Counter(
            job.content_hash for campaign in campaigns for job in campaign.jobs
        )
        assert max(listed_by.values()) == 2  # the campaigns share jobs
        assert payload_reads == listed_by + Counter(set(listed_by))
        assert set(report_parses) == {sweep_spec_hash(c) for c in campaigns}
        assert max(report_parses.values()) <= 2
