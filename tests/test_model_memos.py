"""Differential purity tests for the model stack's per-platform memos.

Three pure queries memoize on the objects that own them:
``DramDevice.timings``, ``Platform.worst_case_io_memory_power`` and
``PowerBudgetManager.plan``.  For every registered hardware variant, every
memoized answer (read back as a memo hit) must equal a fresh computation on a
freshly built platform.  No two platforms may share an entry, the live-state
MRC power path stays unmemoized, and invalid arguments raise even when the
memo is already filled.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.core.operating_points import (
    build_ddr4_operating_points,
    build_default_operating_points,
)
from repro.hw.registry import HARDWARE
from repro.memory.timings import timings_for_frequency
from repro.power.models import ActivityVector

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
