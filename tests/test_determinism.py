"""Determinism regression tests.

The runtime's correctness rests on one property: a simulation's result depends
only on its job spec, never on what ran before it, which process ran it, or
whether it came from the cache.  These tests pin that property at every layer:
back-to-back engine runs on one platform, cold versus warm cache, serial
versus process-parallel execution, runs that read segment models an earlier
run of their trace built, and float totals that do not depend on the Python
interpreter.
"""

from itertools import permutations

import pytest

from repro.baselines.fixed import FixedBaselinePolicy
from repro.core.sysscale import SysScaleController
from repro.experiments import build_context, get_spec, registry
from repro.experiments.runner import ExperimentRuntime
from repro.numeric import ordered_sum
from repro.obs import MemorySink
from repro.obs import state as obs_state
from repro.runtime import (
    Executor,
    PolicySpec,
    ResultCache,
    SimSpec,
    SimulationJob,
    TraceSpec,
)
from repro.runtime.jobs import clear_memos, execute_job_with_stats
from repro.scenarios.registry import SCENARIOS
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import build_platform
from repro.workloads.spec2006 import spec_workload

SUBSET = ("470.lbm", "416.gamess")


class TestEngineDeterminism:
    def test_back_to_back_runs_identical(self, platform):
        """Two consecutive runs on the same platform yield identical results,
        even though the first run's transition flow mutated live platform
        state (DRAM frequency, rail voltages, interconnect clock, MRC)."""
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.2))
        trace = spec_workload("470.lbm", duration=0.2)
        first = engine.run(trace, SysScaleController(platform=platform))
        second = engine.run(trace, SysScaleController(platform=platform))
        assert first.to_dict() == second.to_dict()

    def test_result_independent_of_preceding_runs(self):
        """A run's numbers do not change because a different workload/policy
        ran on the platform first (run-order independence)."""
        sim = SimulationConfig(max_simulated_time=0.2)
        trace = spec_workload("470.lbm", duration=0.2)

        fresh_platform = build_platform()
        fresh = SimulationEngine(fresh_platform, sim).run(
            trace, SysScaleController(platform=fresh_platform)
        )

        used_platform = build_platform()
        used_engine = SimulationEngine(used_platform, sim)
        used_engine.run(
            spec_workload("433.milc", duration=0.2),
            SysScaleController(platform=used_platform),
        )
        used_engine.run(trace, FixedBaselinePolicy())
        after_use = used_engine.run(trace, SysScaleController(platform=used_platform))

        assert after_use.to_dict() == fresh.to_dict()


class TestFloatTotals:
    def test_ordered_sum_adds_left_to_right(self):
        """Totals use plain left-to-right addition, not the compensated
        summation of the builtin ``sum()`` from Python 3.12, so a total has
        the same bits on every interpreter."""
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0.0


class TestRuntimeDeterminism:
    def _context(self, cache=None, executor=None):
        runtime = ExperimentRuntime(
            executor=executor or Executor(), cache=cache
        )
        return build_context(
            workload_duration=0.1,
            sim_config=SimulationConfig(max_simulated_time=0.1),
            runtime=runtime,
        )

    def test_cold_vs_warm_cache_identical_numbers(self, tmp_path):
        """One figure, cold cache then warm cache: identical numbers, and the
        warm run performs zero new simulations."""
        cache_dir = tmp_path / "cache"
        cold_context = self._context(cache=ResultCache(cache_dir))
        cold = get_spec("fig7").run(cold_context, subset=SUBSET)
        assert cold_context.runtime.executed > 0
        assert cold_context.runtime.cache_hits == 0

        warm_context = self._context(cache=ResultCache(cache_dir))
        warm = get_spec("fig7").run(warm_context, subset=SUBSET)
        assert warm_context.runtime.executed == 0
        assert warm_context.runtime.cache_hits == warm_context.runtime.unique

        assert warm.blocks == cold.blocks

    def test_warm_rerun_simulates_nothing_in_every_experiment(
        self, tmp_path, monkeypatch
    ):
        """Every experiment reaches the engine only through the runtime, so a
        warm rerun of all of them against one cache makes no engine call, and
        each warm report says so."""
        engine_runs = []
        run = SimulationEngine.run

        def counted_run(engine, *args, **kwargs):
            engine_runs.append(engine)
            return run(engine, *args, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", counted_run)
        context = build_context(
            workload_duration=0.05,
            sim_config=SimulationConfig(max_simulated_time=0.05),
            runtime=ExperimentRuntime(cache=ResultCache(tmp_path / "cache")),
        )
        specs = registry()
        cold = {name: spec.run(context, quick=True) for name, spec in specs.items()}
        assert engine_runs
        assert cold["fig2"].run.submitted == 9
        assert cold["fig4"].run.submitted == 2

        engine_runs.clear()
        warm = {name: spec.run(context, quick=True) for name, spec in specs.items()}
        assert engine_runs == []
        assert {name: report.run.executed for name, report in warm.items()} == {
            name: 0 for name in specs
        }

    def test_parallel_equals_serial_for_campaign(self):
        """Pool results are bit-identical to in-process results for the same
        job batch."""
        jobs = [
            SimulationJob(
                trace=TraceSpec.make("spec", name=name, duration=0.05),
                policy=PolicySpec.make(policy),
                sim=SimSpec(max_simulated_time=0.05),
            )
            for name in SUBSET
            for policy in ("baseline", "sysscale")
        ]
        serial = Executor().run(jobs)
        parallel = Executor(workers=2).run(jobs)
        assert parallel.payloads() == serial.payloads()

    def test_runtime_path_matches_direct_engine(self):
        """The figure code's runtime submission produces the same numbers as
        driving the engine directly with equivalent objects."""
        context = self._context()
        figure = get_spec("fig7").run(context, subset=("470.lbm",))

        platform = build_platform()
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.1))
        trace = spec_workload("470.lbm", duration=0.1)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform))
        expected = sysscale.performance_improvement_over(baseline)
        row = figure.block("rows").records()[0]
        assert row["sysscale"] == pytest.approx(expected, abs=0.0)


POLICIES = ("baseline", "sysscale", "md_dvfs")

#: A Markov walk and a battery-life trace, with the peripherals they run with.
TABLE_TRACES = {
    "markov-walk": (SCENARIOS["markov-mobile-day"].trace_spec(), None),
    "battery-life": (
        TraceSpec.make("battery_life", name="video_playback", cycles=2),
        "single_hd",
    ),
}


def _table_jobs(name):
    trace, peripherals = TABLE_TRACES[name]
    return {
        policy: SimulationJob(
            trace=trace, policy=PolicySpec.make(policy), peripherals=peripherals
        )
        for policy in POLICIES
    }


def _traced_run(job):
    """A job's payload, engine stats and recorded segments."""
    sink = MemorySink()
    with obs_state.scoped(sinks=[sink], trace_segments=True):
        payload, stats = execute_job_with_stats(job)
    return payload, stats, sink.of_type("engine.segment")


class TestSharedSegmentModels:
    """Runs of one trace on one platform share segment models (the runtime's
    segment table), and no job may report differently because of it: the
    payload, the engine stats and each recorded segment's ``memo_hit`` flag
    are a function of the job alone."""

    @pytest.mark.parametrize("name", sorted(TABLE_TRACES))
    def test_job_reports_the_same_after_the_other_policies(self, name, monkeypatch):
        jobs = _table_jobs(name)
        fresh = {}
        for policy, job in jobs.items():
            clear_memos()  # a fresh platform and an empty table
            fresh[policy] = _traced_run(job)

        built = []
        evaluate = SimulationEngine._evaluate_segment

        def counted(engine, *args):
            built.append(args)
            return evaluate(engine, *args)

        monkeypatch.setattr(SimulationEngine, "_evaluate_segment", counted)
        try:
            for order in permutations(POLICIES):
                clear_memos()
                built.clear()
                for policy in order:
                    assert _traced_run(jobs[policy]) == fresh[policy], (order, policy)
                # Later runs read models an earlier run built.
                used = sum(fresh[policy][1].model_evaluations for policy in order)
                assert len(built) < used, order
        finally:
            clear_memos()

    def test_pool_matches_in_process_on_a_policy_matrix(self):
        jobs = [
            job
            for name in sorted(TABLE_TRACES)
            for job in _table_jobs(name).values()
        ]
        serial = Executor().run(jobs)
        with Executor(workers=2) as pool:
            parallel = pool.run(jobs)
        assert parallel.payloads() == serial.payloads()
        assert [outcome.stats for outcome in parallel.outcomes] == [
            outcome.stats for outcome in serial.outcomes
        ]
        assert parallel.engine_stats() == serial.engine_stats()
