"""Scenarios through the runtime: determinism, caching, campaign, CLI."""

from repro.runtime.cache import ResultCache
from repro.runtime.campaign import QUICK_SCENARIO_SUBSET, scenario_campaign
from repro.cli import main
from repro.runtime.executor import Executor
from repro.runtime.jobs import (
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    job_from_dict,
)
from repro.scenarios.registry import SCENARIOS

#: Short engine cap so every simulation in this module is a smoke run.
SMOKE_SIM = SimSpec(max_simulated_time=0.06)


def scenario_job(name: str, policy: str = "sysscale") -> SimulationJob:
    return SimulationJob(
        trace=SCENARIOS[name].trace_spec(),
        policy=PolicySpec.make(policy),
        sim=SMOKE_SIM,
    )


class TestScenarioJobs:
    def test_trace_spec_uses_scenario_builder(self):
        spec = SCENARIOS["bursty-light"].trace_spec()
        assert spec.builder == "scenario"
        assert spec.label == "bursty-light"
        assert spec.build() == SCENARIOS["bursty-light"].build()

    def test_job_round_trips_through_dict(self):
        job = scenario_job("markov-office")
        rebuilt = job_from_dict(job.to_dict())
        assert rebuilt == job
        assert rebuilt.content_hash == job.content_hash

    def test_same_spec_same_hash_different_seed_different_hash(self):
        job_a = scenario_job("ramp-up")
        job_b = scenario_job("ramp-up")
        assert job_a.content_hash == job_b.content_hash
        reseeded = SimulationJob(
            trace=TraceSpec.make(
                "scenario", name="ramp-up", generator="ramp", seed=999,
            ),
            policy=PolicySpec.make("sysscale"),
            sim=SMOKE_SIM,
        )
        assert reseeded.content_hash != job_a.content_hash


class TestScenarioDeterminism:
    def test_serial_parallel_and_cache_are_bit_identical(self, tmp_path):
        """Acceptance: one ScenarioSpec -> identical content hash and
        bit-identical SimulationResult across serial, parallel, and
        warm-cache execution."""
        jobs = [scenario_job("bursty-heavy"), scenario_job("idle-mostly")]

        serial = Executor().run(jobs).payloads()
        parallel = Executor(workers=2).run(jobs).payloads()
        assert serial == parallel

        cache = ResultCache(tmp_path / "cache")
        cold = Executor().run(jobs, cache=cache)
        assert cold.executed == 2
        warm = Executor().run(jobs, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 2
        assert warm.payloads() == serial

    def test_duplicate_scenario_jobs_dedupe(self):
        job = scenario_job("periodic-fast")
        report = Executor().run([job, job, job])
        assert report.unique_jobs == 1
        assert report.executed == 1
        assert report.payloads()[0] == report.payloads()[2]


class TestScenarioCampaign:
    def test_full_campaign_meets_acceptance_grid(self):
        campaign = scenario_campaign()
        scenarios = {job.trace.label for job in campaign.jobs}
        policies = {job.policy.builder for job in campaign.jobs}
        assert len(scenarios) >= 20
        assert len(policies) >= 2
        assert len(campaign.jobs) == len(scenarios) * len(policies)

    def test_quick_campaign_is_a_subset(self):
        campaign = scenario_campaign(quick=True)
        assert {job.trace.label for job in campaign.jobs} == set(QUICK_SCENARIO_SUBSET)


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in output

    def test_list_json(self, capsys):
        import json

        assert main(["scenarios", "list", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert set(decoded) == set(SCENARIOS)

    def test_describe(self, capsys):
        assert main(["scenarios", "describe", "markov-mobile-day"]) == 0
        output = capsys.readouterr().out
        assert "content hash" in output
        assert "markov" in output

    def test_describe_unknown(self, capsys):
        assert main(["scenarios", "describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
