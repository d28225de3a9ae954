"""Fast-loop vs. reference-loop bit-identity (the segment-stepping arbiter).

The segment-stepping engine must reproduce the seed per-tick loop *bit for
bit*: energy breakdown, counters-driven policy decisions, transition counts,
low-point time, every serialized field.  The strategy that makes this possible
is replay (the tight loop performs the identical sequence of per-tick float
additions on identical increments), and these tests are the arbiter the
engine's docstring points at: every scenario-catalog entry under every policy,
plus registry hardware variants, plus the classic workload families, plus two
whole traces run uncapped to their end, plus hypothesis-generated scenarios
from every generator, alone and on generated hardware derivations.  The
observations are checked against the ones the reference loop hands SysScale:
every one the fast loop builds is bit-equal to the reference's, including
windows whose counter sums span several segments, and every one it skips
repeats one it saw.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.fixed import FixedBaselinePolicy
from repro.baselines.md_dvfs import StaticMdDvfsPolicy
from repro.hw import get_hardware
from repro.perf.counters import COUNTER_NAMES
from repro.runtime.jobs import _build_sysscale
from repro.scenarios.generators import GENERATORS
from repro.scenarios.registry import SCENARIOS, ScenarioSpec
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import build_platform
from repro.sim.policy import StaticPolicy
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.spec2006 import spec_workload

POLICIES = ("baseline", "sysscale", "md_dvfs")

#: Cap on simulated time per parity run: long enough to cross many phase
#: boundaries, evaluation intervals, and DVFS transitions, short enough that
#: the reference loop's per-tick model evaluations stay affordable in CI.
PARITY_MAX_TIME = 0.35

#: Whole traces run uncapped under SysScale, with the tick count each covers:
#: the only parity cases that run past PARITY_MAX_TIME, where float drift in
#: the loops' time bookkeeping has had long enough to build up.
UNCAPPED_TRACES = {
    "video_playback": (lambda: battery_life_workload("video_playback", cycles=2), 2000),
    "markov-mobile-day": (lambda: SCENARIOS["markov-mobile-day"].build(), 1816),
}

#: Registry variants for the hardware axis (a Broadwell delta and the DDR4
#: device, which exercises the other operating-point table and MRC sets).
HW_VARIANTS = ("broadwell", "skylake-ddr4")

#: Catalog subset for the hardware-variant axis (one per generator family
#: keeps the reference-loop budget bounded; the full catalog runs on Skylake).
HW_SCENARIO_SUBSET = (
    "bursty-heavy",
    "markov-mobile-day",
    "interleaved-thrash",
)


def _policy(name, platform):
    if name == "baseline":
        return FixedBaselinePolicy()
    if name == "md_dvfs":
        return StaticMdDvfsPolicy()
    return _build_sysscale(platform)


def _engines(platform, max_time=PARITY_MAX_TIME, **overrides):
    fast = SimulationEngine(
        platform,
        SimulationConfig(max_simulated_time=max_time, **overrides),
    )
    reference = SimulationEngine(
        platform,
        SimulationConfig(max_simulated_time=max_time, reference_loop=True, **overrides),
    )
    return fast, reference


def _assert_parity(
    fast_engine, reference_engine, trace, platform, policy_name, segment_table=None
):
    fast = fast_engine.run(
        trace, _policy(policy_name, platform), segment_table=segment_table
    )
    fast_stats = fast_engine.last_run_stats
    reference = reference_engine.run(trace, _policy(policy_name, platform))
    reference_stats = reference_engine.last_run_stats
    assert fast.to_dict() == reference.to_dict(), (
        f"fast/reference mismatch for {trace.name} under {policy_name}"
    )
    # The segment loop must walk the same trajectory, not just land on the
    # same numbers: same ticks, same policy evaluations, same transitions.
    assert fast_stats.ticks == reference_stats.ticks
    assert fast_stats.evaluations == reference_stats.evaluations
    assert fast_stats.transitions == reference_stats.transitions
    return fast_stats


@pytest.fixture(scope="module")
def scenario_traces():
    """Every catalog trace, synthesized once."""
    return {name: SCENARIOS[name].build() for name in sorted(SCENARIOS)}


class TestScenarioCatalogParity:
    """Acceptance: bit-identity across the full catalog x every policy."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_full_catalog_bit_identical(self, platform, scenario_traces, policy_name):
        fast_engine, reference_engine = _engines(platform)
        for name, trace in scenario_traces.items():
            _assert_parity(fast_engine, reference_engine, trace, platform, policy_name)


class TestHardwareVariantParity:
    @pytest.mark.parametrize("variant", HW_VARIANTS)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_registry_variant_bit_identical(
        self, scenario_traces, variant, policy_name
    ):
        hw_platform = get_hardware(variant).build()
        fast_engine, reference_engine = _engines(hw_platform)
        for name in HW_SCENARIO_SUBSET:
            _assert_parity(
                fast_engine,
                reference_engine,
                scenario_traces[name],
                hw_platform,
                policy_name,
            )


class TestWorkloadFamilyParity:
    """The classic (non-catalog) families: SPEC phases and battery-life
    residency accounting, including the record_bandwidth_samples path."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("workload", ("470.lbm", "416.gamess", "429.mcf"))
    def test_spec_workloads(self, platform, policy_name, workload):
        trace = spec_workload(workload, duration=0.3)
        fast_engine, reference_engine = _engines(
            platform, record_bandwidth_samples=True
        )
        _assert_parity(fast_engine, reference_engine, trace, platform, policy_name)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_battery_life(self, platform, policy_name):
        trace = battery_life_workload("video_playback", cycles=1)
        fast_engine, reference_engine = _engines(platform)
        _assert_parity(fast_engine, reference_engine, trace, platform, policy_name)


#: Traces whose runs share one segment table across every policy.
TABLE_TRACES = {
    "markov-mobile-day": lambda: SCENARIOS["markov-mobile-day"].build(),
    "bursty-heavy": lambda: SCENARIOS["bursty-heavy"].build(),
    "gfx-interference-heavy": lambda: SCENARIOS["gfx-interference-heavy"].build(),
    "video_playback": lambda: battery_life_workload("video_playback", cycles=1),
}


class TestSharedSegmentTableParity:
    """Runs that read segment models an earlier run of their trace built (the
    runtime's segment table) still match the reference loop bit for bit."""

    @pytest.mark.parametrize("trace_name", sorted(TABLE_TRACES))
    def test_runs_that_read_the_table_are_bit_identical(self, platform, trace_name):
        trace = TABLE_TRACES[trace_name]()
        fast_engine, reference_engine = _engines(platform)
        table = {}
        used = 0
        for policy_name in POLICIES + POLICIES[::-1]:
            stats = _assert_parity(
                fast_engine, reference_engine, trace, platform, policy_name, table
            )
            used += stats.model_evaluations
        assert len(table) < used, "no run read a model an earlier run built"


class TestGeneratedScenarioParity:
    """Beyond the hand-written catalog: any generator at its default
    parameters, any seed, under every policy."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        generator=st.sampled_from(sorted(GENERATORS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_generated_scenario_bit_identical(
        self, platform, policy_name, generator, seed
    ):
        trace = ScenarioSpec.make("generated", generator, seed=seed).build()
        fast_engine, reference_engine = _engines(platform)
        _assert_parity(fast_engine, reference_engine, trace, platform, policy_name)


#: Coefficients the generated hardware axis scales: one per power-model
#: family (uncore leakage, memory controller, CPU dynamic, DRAM background).
GENERATED_HW_COEFFICIENTS = (
    "uncore_leakage_coeff",
    "mc_power_high",
    "cpu_ceff",
    "dram_background_power_high",
)


def _scaled_voltages(points, scale):
    """A V/F curve with every voltage multiplied by ``scale``: a positive
    factor keeps the voltages non-decreasing, as ``VFCurve`` requires."""
    return tuple((frequency, voltage * scale) for frequency, voltage in points)


class TestGeneratedHardwareParity:
    """Beyond the registry variants: a derived Skylake (TDP, DRAM family, one
    scaled power coefficient, and scaled CPU and graphics V/F curves) crossed
    with a generated scenario, under every policy."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        tdp=st.floats(min_value=3.5, max_value=15.0),
        dram=st.sampled_from(("lpddr3", "ddr4")),
        coefficient=st.sampled_from(GENERATED_HW_COEFFICIENTS),
        scale=st.floats(min_value=0.8, max_value=1.25),
        cpu_vf_scale=st.floats(min_value=0.9, max_value=1.1),
        gfx_vf_scale=st.floats(min_value=0.9, max_value=1.1),
        generator=st.sampled_from(sorted(GENERATORS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_generated_hardware_bit_identical(
        self, policy_name, tdp, dram, coefficient, scale, cpu_vf_scale,
        gfx_vf_scale, generator, seed,
    ):
        base = get_hardware("skylake")
        overrides = {
            "tdp": tdp,
            "dram": dram,
            f"{coefficient}_scale": scale,
            "cpu_vf_points": _scaled_voltages(base.cpu_vf_points, cpu_vf_scale),
            "gfx_vf_points": _scaled_voltages(base.gfx_vf_points, gfx_vf_scale),
        }
        hw_platform = base.derive(**overrides).build()
        trace = ScenarioSpec.make("generated", generator, seed=seed).build()
        fast_engine, reference_engine = _engines(hw_platform)
        _assert_parity(fast_engine, reference_engine, trace, hw_platform, policy_name)


class TestUncappedParity:
    @pytest.mark.parametrize("trace_name", sorted(UNCAPPED_TRACES))
    def test_whole_trace_bit_identical(self, platform, trace_name):
        build, ticks = UNCAPPED_TRACES[trace_name]
        trace = build()
        fast_engine, reference_engine = _engines(
            platform, max_time=trace.total_duration + 1.0
        )
        stats = _assert_parity(fast_engine, reference_engine, trace, platform, "sysscale")
        assert stats.ticks == ticks


class TestSegmentStepping:
    """Regression guards on the segment loop itself."""

    def test_model_evaluations_are_amortized(self, platform):
        """The whole point: far fewer model evaluations than ticks."""
        trace = battery_life_workload("video_playback", cycles=1)
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=1.0))
        engine.run(trace, FixedBaselinePolicy())
        stats = engine.last_run_stats
        assert stats.ticks >= 900
        assert stats.model_evaluations <= stats.ticks // 20
        assert stats.ticks_per_evaluation > 20

    def test_recurring_phases_hit_the_memo(self, platform):
        """Markov walks revisit phases; recurring segments must skip the
        model stack entirely."""
        trace = SCENARIOS["markov-mobile-day"].build()
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=1.0))
        engine.run(trace, _build_sysscale(platform))
        stats = engine.last_run_stats
        assert stats.memo_hits > 0
        assert stats.model_evaluations < stats.segments

    def test_reference_loop_counts_every_tick(self, platform):
        trace = spec_workload("416.gamess", duration=0.1)
        engine = SimulationEngine(
            platform,
            SimulationConfig(max_simulated_time=0.1, reference_loop=True),
        )
        engine.run(trace, FixedBaselinePolicy())
        stats = engine.last_run_stats
        assert stats.model_evaluations == stats.ticks
        assert stats.memo_hits == 0

    @pytest.mark.parametrize("policy_name", ("baseline", "md_dvfs"))
    @pytest.mark.parametrize(
        "build, max_time, segments, evaluations",
        (
            (lambda: spec_workload("416.gamess", duration=0.3), PARITY_MAX_TIME, 1, 8),
            (lambda: battery_life_workload("video_playback", cycles=1), 1.0, 2, 33),
        ),
        ids=("416.gamess", "video_playback"),
    )
    def test_static_policy_evaluations_do_not_split_segments(
        self, platform, policy_name, build, max_time, segments, evaluations
    ):
        """A static policy never reads an observation, so its evaluations are
        only counted: a segment ends at a phase boundary or at max_time."""
        fast_engine, reference_engine = _engines(platform, max_time=max_time)
        stats = _assert_parity(
            fast_engine, reference_engine, build(), platform, policy_name
        )
        assert stats.segments == segments
        assert stats.evaluations == evaluations

    def test_wrapped_static_decide_keeps_the_static_loop(self, platform, monkeypatch):
        """A tracer that rebinds ``StaticPolicy.decide`` must not make static
        runs observe their evaluations: the engine looks ``decide`` up per
        run."""
        original = StaticPolicy.decide
        monkeypatch.setattr(
            StaticPolicy, "decide", lambda self, observation: original(self, observation)
        )
        engine = SimulationEngine(
            platform, SimulationConfig(max_simulated_time=PARITY_MAX_TIME)
        )
        engine.run(spec_workload("416.gamess", duration=0.3), FixedBaselinePolicy())
        assert engine.last_run_stats.segments == 1

    def test_policy_sees_sample_counts(self, platform):
        """Segment-aware observation plumbing: the policy learns how many 1 ms
        samples each averaged observation covers (30 per 30 ms interval), and
        a policy that does not declare ``decides_from_counters`` sees every
        evaluation."""
        observed = []

        class Probe(FixedBaselinePolicy):
            def decide(self, observation):
                observed.append(observation.samples)
                return super().decide(observation)

        trace = spec_workload("416.gamess", duration=0.2)
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.2))
        engine.run(trace, Probe())
        assert observed
        assert all(count == 30 for count in observed)
        assert len(observed) == engine.last_run_stats.evaluations

    def test_steady_windows_skip_decide(self, platform):
        """SysScale settles on 416.gamess; the evaluations of its steady
        windows are counted without a decide() call, and nothing else moves."""
        fast_engine, reference_engine = _engines(platform)
        trace = spec_workload("416.gamess", duration=0.3)
        calls = []
        policy = _policy("sysscale", platform)
        decide = policy.decide

        def counted_decide(observation):
            calls.append(observation.time)
            return decide(observation)

        policy.decide = counted_decide
        fast = fast_engine.run(trace, policy)
        reference = reference_engine.run(trace, _policy("sysscale", platform))
        assert fast.to_dict() == reference.to_dict()
        evaluations = fast_engine.last_run_stats.evaluations
        assert evaluations == reference_engine.last_run_stats.evaluations
        assert 0 < len(calls) < evaluations

    def test_fast_loop_is_materially_faster(self, platform):
        """A very lenient wall-clock sanity floor (the benchmark measures
        engine throughput; this only catches a fully broken fast path)."""
        import time

        trace = battery_life_workload("video_playback", cycles=1)
        fast_engine, reference_engine = _engines(platform)
        fast_engine.run(trace, FixedBaselinePolicy())  # warm shared caches
        started = time.perf_counter()
        fast_engine.run(trace, FixedBaselinePolicy())
        fast_seconds = time.perf_counter() - started
        started = time.perf_counter()
        reference_engine.run(trace, FixedBaselinePolicy())
        reference_seconds = time.perf_counter() - started
        assert fast_seconds < reference_seconds


def _bits(observation):
    """An observation as exact bits (``==`` would equate 0.0 and -0.0)."""
    counters = observation.counters
    return (
        tuple(counters[name].hex() for name in COUNTER_NAMES),
        counters.interval.hex(),
        observation.samples,
        observation.time.hex(),
        observation.workload_class,
        observation.evaluation_interval.hex(),
        observation.static_demand,
    )


def _recorded_decisions(engine, trace, platform):
    """Run SysScale and return ``(observation, kept)`` per decide() call,
    where ``kept`` says the call returned the action in force itself."""
    policy = _policy("sysscale", platform)
    reset, decide = policy.reset, policy.decide
    in_force = []
    calls = []

    def recording_reset(reset_platform, reset_trace):
        in_force.append(reset(reset_platform, reset_trace))
        return in_force[-1]

    def recording_decide(observation):
        action = decide(observation)
        calls.append((observation, action is in_force[-1]))
        in_force.append(action)
        return action

    policy.reset, policy.decide = recording_reset, recording_decide
    engine.run(trace, policy)
    return calls


class TestSteadyWindowSkip:
    """The promise behind ``decides_from_counters``, checked against the
    reference loop, which calls decide() at every evaluation."""

    @pytest.mark.parametrize(
        "build, max_time, interval",
        (
            (lambda: spec_workload("416.gamess", duration=0.3), PARITY_MAX_TIME, 0.03),
            (lambda: battery_life_workload("video_playback", cycles=1), 1.0, 0.03),
            (lambda: SCENARIOS["markov-mobile-day"].build(), 1.0, 0.03),
            # An interval a hair above 3 ticks: float drift in the clock makes
            # some windows 4 ticks long, and those must not be skipped.
            (lambda: spec_workload("416.gamess", duration=0.3), 0.3, 0.003 + 1e-12),
        ),
        ids=("416.gamess", "video_playback", "markov-mobile-day", "uneven-windows"),
    )
    def test_skipped_observations_repeat_a_kept_decision(
        self, platform, build, max_time, interval
    ):
        trace = build()
        fast_engine, reference_engine = _engines(
            platform, max_time=max_time, evaluation_interval=interval
        )
        fast = _recorded_decisions(fast_engine, trace, platform)
        reference = _recorded_decisions(reference_engine, trace, platform)
        by_time = {observation.time: observation for observation, _ in reference}
        assert len(by_time) == len(reference)
        assert len(fast) < len(reference)

        # Every observation the fast loop builds is the reference's, bit for bit.
        for observation, _ in fast:
            assert _bits(observation) == _bits(by_time[observation.time])

        # Every one it skips repeats the last one it saw, whose decide()
        # returned the action in force (and the reference call kept it too).
        seen = iter(fast)
        upcoming = next(seen, None)
        last = None
        for observation, kept in reference:
            if upcoming is not None and upcoming[0].time == observation.time:
                last, upcoming = upcoming, next(seen, None)
                continue
            assert last is not None and last[1], observation.time
            assert kept
            assert _bits(replace(observation, time=last[0].time)) == _bits(last[0])
        assert upcoming is None

    def test_windows_spanning_segments_observe_the_reference_bits(self, platform):
        """Phases of about a third of a window, so every window's counter
        sums are rebuilt over three or more segments.  A last-bit change in
        an average need not flip a decision, so this compares every
        observation, not just the results.  No window here lies within one
        segment, so none is skipped."""
        trace = ScenarioSpec.make(
            "short-phases", "periodic", seed=3, duration=1.0, period=0.021,
            duty_cycle=0.5, high_gbps=3.0, low_gbps=0.5,
        ).build()
        assert max(phase.duration for phase in trace.phases) < 0.011
        fast_engine, reference_engine = _engines(platform, max_time=1.1)
        fast = _recorded_decisions(fast_engine, trace, platform)
        reference = _recorded_decisions(reference_engine, trace, platform)
        stats = fast_engine.last_run_stats
        assert stats.segments >= 3 * stats.evaluations
        assert stats.transitions > 0
        assert [_bits(observation) for observation, _ in fast] == [
            _bits(observation) for observation, _ in reference
        ]

    def test_a_decision_that_returns_a_new_action_is_not_steady(self, platform):
        """Only a decide() that returns the action in force itself marks a
        steady window; after one that returns an equal copy, the next
        evaluation is observed even on the last steady segment.  (The uneven
        interval makes the engine observe some windows of a steady segment,
        so a copy can be returned on one.)"""

        class EveryOtherCopy(FixedBaselinePolicy):
            decides_from_counters = True

            def reset(self, reset_platform, trace):
                self.calls = []
                return super().reset(reset_platform, trace)

            def decide(self, observation):
                kept = len(self.calls) % 2 == 0
                if not kept:
                    self._action = replace(self._action)
                self.calls.append((observation.time, kept))
                return self._action

        trace = spec_workload("416.gamess", duration=0.3)
        fast_engine, reference_engine = _engines(
            platform, max_time=0.3, evaluation_interval=0.003 + 1e-12
        )
        fast_policy, reference_policy = EveryOtherCopy(), EveryOtherCopy()
        assert (
            fast_engine.run(trace, fast_policy).to_dict()
            == reference_engine.run(trace, reference_policy).to_dict()
        )
        evaluation_times = [time for time, _ in reference_policy.calls]
        assert len(fast_policy.calls) < len(evaluation_times)
        for (time, kept), (next_time, _) in zip(fast_policy.calls, fast_policy.calls[1:]):
            if not kept:
                assert next_time == evaluation_times[evaluation_times.index(time) + 1]
