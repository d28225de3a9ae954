"""Differential purity tests for the model stack's memos.

Four pure queries memoize on the objects that own them:
``DramDevice.timings``, ``Platform.worst_case_io_memory_power``,
``PowerBudgetManager.plan`` and SysScale's calibration
(``repro.core.sysscale.calibration_for``, kept on its platform).  For every
registered hardware variant, every memoized answer (read back as a memo hit)
must equal a fresh computation on a freshly built platform.  No two platforms
may share an entry, the live-state MRC power path stays unmemoized, and
invalid arguments raise even when the memo is already filled.

The engine's segment models are memoized too: within a run, and across the
runs of one trace on one platform at one tick through the runtime's segment
table (``repro.runtime.jobs.segment_table_for``).  Every model a later run
reads from the table must equal a fresh ``_evaluate_segment`` on a freshly
built platform, and another trace, tick or platform never reads the table.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.core.flow import TransitionFlow
from repro.core.operating_points import (
    build_ddr4_operating_points,
    build_default_operating_points,
    operating_points_for,
)
from repro.core.sysscale import calibration_for, default_thresholds
from repro.hw.registry import HARDWARE
from repro.memory.timings import timings_for_frequency
from repro.power.models import ActivityVector
from repro.runtime.jobs import (
    _SEGMENT_TABLE,
    PolicySpec,
    SimulationJob,
    TraceSpec,
    clear_memos,
    execute_job_with_stats,
    segment_table_for,
)
from repro.scenarios.registry import SCENARIOS
from repro.sim.engine import SimulationEngine, _phase_model_key, _SegmentModel
from repro.sim.policy import PolicyAction
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS

VARIANTS = sorted(HARDWARE)

#: Every bin of both DRAM families: each device's own bins, plus the other
#: family's rates as the hypothetical frequencies a sensitivity sweep asks for.
FREQUENCIES = sorted(set(config.LPDDR3_FREQUENCY_BINS) | set(config.DDR4_FREQUENCY_BINS))

POINTS = [
    *build_default_operating_points(include_lowest_bin=True),
    *build_ddr4_operating_points(),
]

BUDGETS = (0.0, 0.8, 2.0, 2.323616, 3.2, 6.0)

#: The first two differ only in fields no planner reads, so they share one
#: plan-memo entry; the shared plan must be right for both.  Each of the next
#: three differs from the first in one field a planner does read.
ACTIVITIES = (
    ActivityVector(cpu_activity=0.95, memory_bandwidth=2e9),
    ActivityVector(cpu_activity=0.95, io_activity=0.9, memory_bandwidth=9e9),
    ActivityVector(cpu_activity=0.5, memory_bandwidth=2e9),
    ActivityVector(cpu_activity=0.95, gfx_activity=0.6, memory_bandwidth=2e9),
    ActivityVector(cpu_activity=0.95, active_cores=1, memory_bandwidth=2e9),
    ActivityVector(cpu_activity=0.45, gfx_activity=0.95, memory_bandwidth=5e9),
    ActivityVector(cpu_activity=0.3, gfx_activity=0.2, active_cores=1),
    ActivityVector.idle(),
)

#: (graphics_centric, fixed_performance) for the three planning strategies.
MODES = ((False, False), (True, False), (False, True))


def _point_args(point) -> dict:
    return {
        "dram_frequency": point.dram_frequency,
        "interconnect_frequency": point.interconnect_frequency,
        "v_sa_scale": point.v_sa_scale,
        "v_io_scale": point.v_io_scale,
    }


def _one_field_moves(args: dict):
    """``args``, then one copy per argument with only that argument moved."""
    yield args
    for name in args:
        yield {**args, name: args[name] * 0.9}


def _fresh_worst_case(platform, **args) -> float:
    """The worst-case formula evaluated without going through the memo."""
    ceiling = platform.controller.achievable_bandwidth(args["dram_frequency"], None)
    return platform.io_memory_power_at(**args, bandwidth=ceiling, io_activity=1.0)


def _fresh_plan(pbm, budget, activity, graphics_centric, fixed_performance):
    """The planner :meth:`PowerBudgetManager.plan` dispatches to, called directly."""
    if fixed_performance:
        return pbm.plan_fixed_performance()
    if graphics_centric:
        return pbm.plan_graphics_centric(budget, activity)
    return pbm.plan_cpu_centric(budget, activity)


@pytest.mark.parametrize("name", VARIANTS)
class TestMemoizedEqualsFresh:
    def test_dram_timings(self, name):
        memoized = HARDWARE[name].build()
        fresh = HARDWARE[name].build()
        device = memoized.dram
        for frequency in FREQUENCIES:
            first = device.timings(frequency)
            assert device.timings(frequency) is first
            assert first == fresh.dram.timings(frequency)
            assert first == timings_for_frequency(
                frequency,
                device.technology.value,
                channels=device.channels,
                bus_width_bytes=device.bus_width_bytes,
            )
        assert device.timings() == fresh.dram.timings(fresh.dram.max_frequency)

    def test_worst_case_io_memory_power(self, name):
        memoized = HARDWARE[name].build()
        fresh = HARDWARE[name].build()
        for point in POINTS:
            for args in _one_field_moves(_point_args(point)):
                first = memoized.worst_case_io_memory_power(**args)
                assert memoized.worst_case_io_memory_power(**args) == first
                assert first == fresh.worst_case_io_memory_power(**args)
                assert first == _fresh_worst_case(fresh, **args)
            assert point.provisioned_io_memory_power(memoized) == _fresh_worst_case(
                fresh, **_point_args(point)
            )
        assert memoized.worst_case_io_memory_power() == fresh.pbm.worst_case_io_memory_power

    def test_compute_plans(self, name):
        memoized = HARDWARE[name].build()
        fresh = HARDWARE[name].build()
        for budget in BUDGETS:
            for activity in ACTIVITIES:
                for graphics_centric, fixed in MODES:
                    plan = memoized.pbm.plan(budget, activity, graphics_centric, fixed)
                    assert memoized.pbm.plan(budget, activity, graphics_centric, fixed) is plan
                    assert plan == _fresh_plan(
                        fresh.pbm, budget, activity, graphics_centric, fixed
                    )

    @pytest.mark.parametrize("table", ("default", "ddr4"))
    def test_sysscale_calibration(self, name, table):
        memoized = HARDWARE[name].build()
        fresh = HARDWARE[name].build()
        first = calibration_for(memoized, table)
        # The calibration reads no live platform state: after a Fig. 5 flow
        # moved the platform to its low point, as a SysScale run does, the
        # served calibration is still the one a fresh platform gives.
        matched = operating_points_for(memoized)
        TransitionFlow(
            rails=memoized.soc.rails,
            interconnect=memoized.soc.interconnect_fabric,
            dram=memoized.dram,
            mrc_sram=memoized.mrc_sram,
            mrc_registers=memoized.mrc_registers,
        ).execute(matched.high, matched.low)
        assert calibration_for(memoized, table) is first
        points = (
            operating_points_for(fresh) if table == "default" else build_ddr4_operating_points()
        )
        assert first == (points, default_thresholds(fresh, points))
        assert first[1] == default_thresholds(memoized, points)


class TestIsolation:
    def test_platforms_never_share_an_entry(self):
        first = HARDWARE["skylake"].build()
        second = HARDWARE["skylake"].build()
        assert first.dram._timings_memo is not second.dram._timings_memo
        assert first._worst_case_memo is not second._worst_case_memo
        assert first.pbm._plan_memo is not second.pbm._plan_memo

        hypothetical = 1.2e9
        first.dram.timings(hypothetical)
        first.worst_case_io_memory_power(dram_frequency=hypothetical)
        first.pbm.plan(1.7, ACTIVITIES[0])
        assert hypothetical not in second.dram._timings_memo
        assert len(second._worst_case_memo) == 1  # the boot reservation only
        assert not second.pbm._plan_memo
        # Memo contents never take part in equality.
        assert first.dram == second.dram

    def test_each_variant_answers_for_itself(self):
        skylake = HARDWARE["skylake"].build()
        ddr4 = HARDWARE["skylake-ddr4"].build()
        broadwell = HARDWARE["broadwell"].build()
        for frequency in FREQUENCIES:
            assert skylake.dram.timings(frequency) == timings_for_frequency(frequency, "lpddr3")
            assert ddr4.dram.timings(frequency) == timings_for_frequency(frequency, "ddr4")
        high = _point_args(POINTS[0])
        assert skylake.worst_case_io_memory_power(**high) != ddr4.worst_case_io_memory_power(
            **high
        )
        # Broadwell's hotter uncore changes the projected power of the same plan.
        activity = ACTIVITIES[0]
        assert (
            skylake.pbm.plan(2.0, activity).projected_power
            != broadwell.pbm.plan(2.0, activity).projected_power
        )


class TestLiveStateStaysUnmemoized:
    def test_unoptimized_mrc_moves_live_power_not_worst_case(self):
        platform = HARDWARE["skylake"].build()
        low = build_default_operating_points().low
        args = _point_args(low)
        worst = platform.worst_case_io_memory_power(**args)

        platform.mrc_registers.load(platform.mrc_sram.load(low.dram_frequency))
        trained = platform.io_memory_power_at(**args, bandwidth=5e9, mrc_optimized=False)
        # Registers trained for the top bin are stale at the low point (Fig. 4).
        platform.mrc_registers.load(platform.mrc_sram.load(platform.dram.max_frequency))
        stale = platform.io_memory_power_at(**args, bandwidth=5e9, mrc_optimized=False)

        assert stale > trained
        assert platform.worst_case_io_memory_power(**args) == worst
        assert worst == HARDWARE["skylake"].build().worst_case_io_memory_power(**args)


class TestErrorsAreNeverMemoized:
    def test_negative_budget_raises_with_a_filled_memo(self):
        pbm = HARDWARE["skylake"].build().pbm
        for activity in ACTIVITIES:
            pbm.plan(2.0, activity)
            pbm.plan(2.0, activity, graphics_centric=True)
        for _ in range(2):
            for activity in ACTIVITIES:
                with pytest.raises(ValueError):
                    pbm.plan(-1.0, activity)
                with pytest.raises(ValueError):
                    pbm.plan(-1.0, activity, graphics_centric=True)
        assert all(key[0] >= 0 for key in pbm._plan_memo)

    def test_non_positive_frequency_raises_with_a_filled_memo(self):
        platform = HARDWARE["skylake"].build()
        for frequency in FREQUENCIES:
            platform.dram.timings(frequency)
            platform.worst_case_io_memory_power(dram_frequency=frequency)
        for _ in range(2):
            for frequency in (0.0, -config.LPDDR3_FREQUENCY_BINS[0]):
                with pytest.raises(ValueError):
                    platform.dram.timings(frequency)
                with pytest.raises(ValueError):
                    platform.worst_case_io_memory_power(dram_frequency=frequency)
            with pytest.raises(ValueError):
                platform.worst_case_io_memory_power(v_sa_scale=0.0)
        assert all(frequency > 0 for frequency in platform.dram._timings_memo)
        assert all(key[0] > 0 and key[2] > 0 for key in platform._worst_case_memo)

    def test_unknown_point_table_raises_with_a_filled_memo(self):
        platform = HARDWARE["skylake"].build()
        calibration_for(platform)
        calibration_for(platform, "ddr4")
        for _ in range(2):
            with pytest.raises(KeyError):
                calibration_for(platform, "lpddr5")
        assert sorted(platform._calibration_memo) == ["ddr4", "default"]


#: The runs a segment table serves: every policy, with and without a display
#: (peripherals reach the policy, never the model, so they share the table).
TABLE_RUNS = tuple(
    (policy, peripherals)
    for peripherals in (None, "single_hd")
    for policy in ("baseline", "sysscale", "md_dvfs")
)


class _RecordingTable(dict):
    """A segment table that records the key of every model it serves."""

    def __init__(self) -> None:
        super().__init__()
        self.served = []

    def get(self, key, default=None):
        model = super().get(key, default)
        if model is not None:
            self.served.append(key)
        return model


def _model_fields(model: _SegmentModel) -> dict:
    return {name: getattr(model, name) for name in _SegmentModel.__slots__}


def _action_from_key(action_key) -> PolicyAction:
    dram, interconnect, v_sa, v_io, mrc_optimized, budget = action_key
    return PolicyAction(
        name="fresh",
        dram_frequency=dram,
        interconnect_frequency=interconnect,
        v_sa_scale=v_sa,
        v_io_scale=v_io,
        mrc_optimized=mrc_optimized,
        io_memory_budget=budget,
    )


class TestSegmentTable:
    @pytest.mark.parametrize("name", ("skylake", "skylake-ddr4"))
    @pytest.mark.parametrize(
        "build_trace",
        (
            lambda: SCENARIOS["markov-mobile-day"].build(),
            lambda: battery_life_workload("video_playback", cycles=2),
        ),
        ids=("markov-walk", "battery-life"),
    )
    def test_every_table_hit_equals_a_fresh_evaluation(self, name, build_trace):
        platform = HARDWARE[name].build()
        trace = build_trace()
        engine = SimulationEngine(platform)
        table = _RecordingTable()
        for policy, peripherals in TABLE_RUNS:
            engine.run(
                trace,
                PolicySpec.make(policy).build(platform),
                STANDARD_CONFIGURATIONS[peripherals] if peripherals else None,
                segment_table=table,
            )
        assert table.served, "no run read a model an earlier run built"

        fresh = HARDWARE[name].build()
        fresh_engine = SimulationEngine(fresh)
        phases = {_phase_model_key(phase): phase for phase in trace.phases}
        mrc_frequencies = {
            id(platform.mrc_sram.load(frequency)): frequency
            for frequency in platform.mrc_sram.stored_frequencies
        }
        for key in set(table.served):
            phase_key, action_key, mrc_id = key
            fresh.mrc_registers.load(fresh.mrc_sram.load(mrc_frequencies[mrc_id]))
            expected = fresh_engine._evaluate_segment(
                trace, phases[phase_key], _action_from_key(action_key)
            )
            assert _model_fields(table[key]) == _model_fields(expected)

    def test_another_platform_trace_or_tick_gets_its_own_table(self):
        platform = HARDWARE["skylake"].build()
        trace = SCENARIOS["markov-office"].build()
        tick = config.COUNTER_SAMPLING_INTERVAL
        others = (
            (HARDWARE["skylake"].build(), trace, tick),  # equal, not the same
            (platform, SCENARIOS["markov-office"].build(), tick),
            (platform, trace, 2 * tick),
        )
        clear_memos()
        try:
            for other in others:
                table = segment_table_for(platform, trace, tick)
                table["built"] = None
                assert segment_table_for(platform, trace, tick) is table
                assert segment_table_for(*other) == {}
                # One table per process: the first trace's table is gone.
                assert len(_SEGMENT_TABLE) == 1
                assert segment_table_for(platform, trace, tick) == {}
            segment_table_for(platform, trace, tick)["built"] = None
        finally:
            clear_memos()
        assert not _SEGMENT_TABLE

    def test_a_job_of_another_trace_reads_none_of_the_table(self):
        def job(name):
            return SimulationJob(
                trace=TraceSpec.make("spec", name=name, duration=0.1),
                policy=PolicySpec.make("baseline"),
            )

        clear_memos()
        try:
            execute_job_with_stats(job("470.lbm"))
            _, stats = execute_job_with_stats(job("416.gamess"))
            _, owner, _, models = _SEGMENT_TABLE[0]
            assert owner is job("416.gamess").trace.build()
            # The table holds the models this run built, and nothing else.
            assert len(models) == stats.model_evaluations
        finally:
            clear_memos()
