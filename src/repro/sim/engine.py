"""Trace-driven simulation engine.

The engine advances a workload trace in fixed ticks (1 ms, the PMU's counter
sampling interval), computing for every tick:

* the SoC state implied by the current policy action (IO/memory operating point)
  and by the compute-domain plan the PBM derives from the resulting budget;
* the phase slowdown and achieved memory bandwidth under that state;
* the per-domain power, split by package C-state residency for battery-life
  workloads (Sec. 7.3);
* the synthesised performance-counter sample.

Every evaluation interval (30 ms, Sec. 4.3) the averaged counters and the static
peripheral configuration are handed to the policy; if the policy changes the
operating point the engine charges the transition latency (Sec. 5) and reloads the
MRC registers when the policy asks for optimized values (Fig. 5, step 5).

Segment stepping
----------------

Every per-tick quantity above is a pure function of ``(phase, action, MRC
register state)`` -- it only changes at phase boundaries, policy evaluations,
and MRC reloads.  The default loop therefore advances the trace in *segments*:
it evaluates the model stack once per segment (memoized by ``(phase
characteristics, operating point, MRC register set)``, so recurring segments --
Markov scenarios revisit phases constantly -- skip even that), then replays the
seed engine's per-tick additions in a tight arithmetic-only inner loop.

Each run's memo starts empty, so its hits and misses depend on the run alone.
On a miss the run reads the ``segment_table`` its caller passed: the models
earlier runs of the same trace on the same platform at the same tick built.
The runtime keeps one such table per process, for the last trace it ran, so
a trace simulated under several policies builds each shared model once.  A
model from the table is not rebuilt but still counts as one of the run's
``model_evaluations``: that count is the number of distinct segment models
the run used.

That one loop keeps no counter sums.  A segment ends at a phase boundary, at
``max_simulated_time`` or at the first evaluation the loop cannot count in
place; an evaluation is counted in place, without building an observation,
in two cases:

* a :class:`~repro.sim.policy.StaticPolicy` (one that inherits its
  ``decide``), on every segment: it returns its reset action at every
  evaluation and never reads the counters, so an evaluation cannot change
  anything but the evaluation count;
* a policy that declares
  :attr:`~repro.sim.policy.Policy.decides_from_counters` (SysScale), in each
  *steady window*: a whole window of the same segment model and tick count as
  the last window whose ``decide`` returned the action in force itself.  Such
  a window's observation is bit-equal to that window's (only ``time``
  differs), so the policy's answer is already known.

Every other evaluation ends the segment and is observed.  For any policy but
a static one, the counter sums are rebuilt once the loop stops: the segment's
per-tick counter values are added once per tick of the open window, onto the
sums the window carries from its earlier segments -- the additions the
reference loop's ``CounterSample.average`` makes, in its order.

The bit-exactness strategy is *replay, not algebra*: the seed loop adds the
same per-tick increment to each accumulator on every tick of a segment, and
floating-point addition is deterministic, so performing the identical sequence
of additions on the identical increments yields identical bits -- no
``n * increment`` shortcuts are taken anywhere (an ``n``-fold product is not
bit-equal to an ``n``-fold sum).  Counter averaging keeps one sum per counter
instead of a per-interval ``List[CounterSample]``; the rebuild performs the
same ordered additions ``CounterSample.average`` would, so the averages match
bit-for-bit.  ``SimulationConfig(reference_loop=True)`` selects the seed
per-tick loop, which is kept verbatim as the arbiter for the parity suite
(``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.numeric import ordered_sum
from repro.perf.counters import COUNTER_NAMES, CounterSample
from repro.power.budget import ComputePlan
from repro.power.cstates import CState, IDLE_PACKAGE_POWER
from repro.power.models import ActivityVector
from repro.sim.platform import Platform, activity_for_phase
from repro.sim.policy import (
    Policy,
    PolicyAction,
    PolicyObservation,
    StaticDemandInfo,
    StaticPolicy,
)
from repro.sim.result import DomainEnergyBreakdown, EngineRunStats, SimulationResult
from repro.sim.trace import EngineTraceRecorder
from repro.soc.domains import SoCState
from repro.workloads.io_devices import PeripheralConfiguration
from repro.workloads.trace import Phase, WorkloadClass, WorkloadTrace


@dataclass(frozen=True)
class SimulationConfig:
    """Engine parameters.

    ``reference_loop`` selects the seed per-tick loop (model stack evaluated
    every tick) instead of the segment-stepping loop.  Both produce
    bit-identical results; the reference loop exists as the parity arbiter.

    ``trace_segments`` attaches an :class:`~repro.sim.trace.EngineTraceRecorder`
    to each run (exposed as ``engine.last_run_trace``) capturing the
    per-segment timeline.  Tracing is pure observation -- results are
    bit-identical either way -- and is deliberately *not* part of
    ``SimSpec``/job hashing: telemetry never contributes to job identity.
    The engine consults only this flag; when ambient ``obs`` tracing is on,
    the runtime (:func:`repro.runtime.jobs.execute_job_with_stats`) flips it
    before building the engine, so the sim layer never imports telemetry.
    """

    tick: float = config.COUNTER_SAMPLING_INTERVAL
    evaluation_interval: float = config.EVALUATION_INTERVAL
    max_simulated_time: float = 120.0
    record_bandwidth_samples: bool = False
    reference_loop: bool = False
    trace_segments: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN, which fails every comparison, fails each check.
        if not self.tick > 0:
            raise ValueError("tick must be positive")
        if not self.evaluation_interval >= self.tick:
            raise ValueError("evaluation interval must be at least one tick")
        if not self.max_simulated_time > 0:
            raise ValueError("maximum simulated time must be positive")


@dataclass
class _RunState:
    """Mutable bookkeeping for one run (internal)."""

    time: float = 0.0
    phase_index: int = 0
    work_done_in_phase: float = 0.0
    energy: DomainEnergyBreakdown = field(default_factory=DomainEnergyBreakdown)
    transitions: int = 0
    transition_time: float = 0.0
    low_point_time: float = 0.0
    evaluation_count: int = 0
    cpu_frequency_time: float = 0.0
    gfx_frequency_time: float = 0.0
    dram_frequency_time: float = 0.0
    interval_samples: List[CounterSample] = field(default_factory=list)
    bandwidth_samples: List[float] = field(default_factory=list)


class _SegmentModel:
    """The model stack's output for one ``(phase, action, MRC)`` segment.

    Everything the inner loop adds per tick, plus the state/power the engine
    needs should a transition be charged while this segment is current.
    """

    __slots__ = (
        "state",
        "activity",
        "work_tick",
        "energy_ticks",
        "counter_values",
        "sample_interval",
        "bandwidth",
        "frequency_ticks",
        "low_point",
    )

    def __init__(
        self,
        state: SoCState,
        activity: ActivityVector,
        work_tick: float,
        energy_ticks: Tuple[float, float, float, float],
        counter_values: Tuple[float, float, float, float],
        sample_interval: float,
        bandwidth: float,
        frequency_ticks: Tuple[float, float, float],
        low_point: bool,
    ) -> None:
        self.state = state
        self.activity = activity
        self.work_tick = work_tick
        self.energy_ticks = energy_ticks
        self.counter_values = counter_values
        self.sample_interval = sample_interval
        self.bandwidth = bandwidth
        self.frequency_ticks = frequency_ticks
        self.low_point = low_point


def _phase_model_key(phase: Phase) -> tuple:
    """The phase characteristics the model stack actually consumes.

    Deliberately excludes ``name`` and ``duration``: two Markov emissions of
    the same underlying state with different dwell times share one model
    evaluation (duration only matters to the boundary check, which the inner
    loop handles).
    """
    return (
        phase.compute_fraction,
        phase.gfx_fraction,
        phase.memory_latency_fraction,
        phase.memory_bandwidth_fraction,
        phase.io_fraction,
        phase.other_fraction,
        phase.cpu_bandwidth_demand,
        phase.gfx_bandwidth_demand,
        phase.io_bandwidth_demand,
        phase.cpu_activity,
        phase.gfx_activity,
        phase.io_activity,
        phase.active_cores,
        tuple(
            sorted(
                (state.value, fraction)
                for state, fraction in phase.residency.residencies.items()
            )
        ),
    )


def _action_key(action: PolicyAction) -> tuple:
    """The action fields that reach the model stack (identity, not tolerance).

    ``same_operating_point`` compares with tolerances to decide whether a
    *transition* is charged; the memo key uses exact values because even a
    same-point action with a different ``io_memory_budget`` changes the PBM
    plan and therefore the per-tick numbers.
    """
    return (
        action.dram_frequency,
        action.interconnect_frequency,
        action.v_sa_scale,
        action.v_io_scale,
        action.mrc_optimized,
        action.io_memory_budget,
    )


class SimulationEngine:
    """Runs workload traces under DVFS policies on a modelled platform."""

    def __init__(self, platform: Platform, sim_config: Optional[SimulationConfig] = None):
        self.platform = platform
        self.config = sim_config or SimulationConfig()
        #: Loop statistics of the most recent :meth:`run` (diagnostics and the
        #: runtime's engine counters; not part of the simulation result).
        self.last_run_stats: Optional[EngineRunStats] = None
        #: Segment timeline of the most recent :meth:`run` when tracing was
        #: requested (``trace_segments``); ``None`` otherwise.  Only the
        #: segment loop records -- a reference-loop run leaves the recorder
        #: empty.
        self.last_run_trace: Optional[EngineTraceRecorder] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        trace: WorkloadTrace,
        policy: Policy,
        peripherals: Optional[PeripheralConfiguration] = None,
        *,
        segment_table: Optional[Dict[tuple, _SegmentModel]] = None,
    ) -> SimulationResult:
        """Simulate ``trace`` under ``policy`` and return the result.

        ``segment_table`` holds the segment models earlier runs of this trace
        on this platform at this tick built (the caller owns that match, as
        :func:`repro.runtime.jobs.segment_table_for` does): the run reads it
        when its own memo misses and adds the models it builds.  The reference
        loop ignores it.
        """
        if peripherals is None:
            peripherals = PeripheralConfiguration()
        static_demand = StaticDemandInfo(peripherals=peripherals)

        # Each run starts from the boot state: MRC registers trained for the
        # default (highest) DRAM frequency, DRAM at its top bin, rails at
        # nominal voltage, interconnect running at its high clock.  Without
        # this, state mutated by a previous run's transition flow would leak
        # into this one and results would depend on run order.  A run leaves
        # the boot state behind it too, for code that reads the platform
        # between runs (the experiments' Fig. 5 flow, MRC-dependent power).
        self.platform.reset_to_boot()

        action = policy.reset(self.platform, trace)
        self._apply_mrc(action)
        run = _RunState()

        recorder: Optional[EngineTraceRecorder] = None
        if self.config.trace_segments:
            recorder = EngineTraceRecorder(workload=trace.name, policy=policy.name)
        self.last_run_trace = recorder

        if self.config.reference_loop:
            self._run_reference(trace, policy, static_demand, run, action)
        else:
            self._run_segments(
                trace,
                policy,
                static_demand,
                run,
                action,
                {} if segment_table is None else segment_table,
                recorder,
            )
        result = self._build_result(trace, policy, run)
        self.platform.reset_to_boot()
        return result

    # ------------------------------------------------------------------
    # Segment-stepping loop (default)
    # ------------------------------------------------------------------
    def _run_segments(
        self,
        trace: WorkloadTrace,
        policy: Policy,
        static_demand: StaticDemandInfo,
        run: _RunState,
        action: PolicyAction,
        table: Dict[tuple, _SegmentModel],
        recorder: Optional[EngineTraceRecorder] = None,
    ) -> None:
        sim = self.config
        tick = sim.tick
        max_time = sim.max_simulated_time
        evaluation_threshold = sim.evaluation_interval - 1e-12
        record_bandwidth = sim.record_bandwidth_samples
        phases = trace.phases
        phase_count = len(phases)
        workload_class = trace.workload_class.value
        mrc_registers = self.platform.mrc_registers

        # Looked up on every run, not once at import: the benchmark's layer
        # tracer rebinds ``decide`` on each class that defines it, and a
        # traced run must take the same loop as an untraced one.
        static = type(policy).decide is StaticPolicy.decide
        from_counters = type(policy).decides_from_counters

        memo: Dict[tuple, _SegmentModel] = {}
        phase_keys: Dict[int, tuple] = {}

        # Locals mirror the _RunState accumulators; every addition below
        # replays the exact sequence of float additions the reference loop
        # performs, so the final values are bit-identical.
        time_now = 0.0
        last_evaluation_time = 0.0
        phase_index = 0
        work = 0.0
        energy_compute = energy_io = energy_memory = energy_platform = 0.0
        cpu_time = gfx_time = dram_time = low_point_time = 0.0
        sum_0 = sum_1 = sum_2 = sum_3 = 0.0
        samples = 0
        sample_interval = 0.0
        evaluations = 0
        ticks_total = 0
        segments = 0
        model_evaluations = 0
        memo_hits = 0
        # The steady window: the segment model and tick count of the last
        # window that had all its ticks from one segment and whose decide()
        # returned the action in force itself.
        steady_segment: Optional[_SegmentModel] = None
        steady_ticks = 0

        while phase_index < phase_count and time_now < max_time:
            phase = phases[phase_index]
            phase_id = id(phase)
            phase_key = phase_keys.get(phase_id)
            if phase_key is None:
                phase_key = _phase_model_key(phase)
                phase_keys[phase_id] = phase_key
            key = (phase_key, _action_key(action), id(mrc_registers.loaded))
            segment = memo.get(key)
            memo_hit = segment is not None
            if memo_hit:
                memo_hits += 1
            else:
                segment = table.get(key)
                if segment is None:
                    segment = self._evaluate_segment(trace, phase, action)
                    table[key] = segment
                memo[key] = segment
                model_evaluations += 1
            segments += 1
            segment_start = time_now
            # A window that opens here and is decided before the next segment
            # has all its ticks from this one.
            window_opened = samples == 0

            inc_compute, inc_io, inc_memory, inc_platform = segment.energy_ticks
            cpu_inc, gfx_inc, dram_inc = segment.frequency_ticks
            work_tick = segment.work_tick
            low_point = segment.low_point
            duration_threshold = phase.duration - 1e-12
            ticks = 0
            # An evaluation is counted in place, not observed, when decide()
            # would return the action in force: always for a static policy,
            # and in a steady window for a window as long as the steady one
            # (``mark`` is the tick the open window started at).  A window is
            # at least one tick long, so 0 never matches.
            skip_ticks = steady_ticks if window_opened and segment is steady_segment else 0
            mark = 0
            evaluation_due = False

            # The tight loop: pure float additions and comparisons, no calls.
            while True:
                energy_compute += inc_compute
                energy_io += inc_io
                energy_memory += inc_memory
                energy_platform += inc_platform
                cpu_time += cpu_inc
                gfx_time += gfx_inc
                dram_time += dram_inc
                if low_point:
                    low_point_time += tick
                time_now += tick
                work += work_tick
                ticks += 1
                if time_now - last_evaluation_time >= evaluation_threshold:
                    if not static and ticks - mark != skip_ticks:
                        evaluation_due = True
                        break
                    last_evaluation_time = time_now
                    evaluations += 1
                    mark = ticks
                if work >= duration_threshold or time_now >= max_time:
                    break
            if not static:
                # The open window's counter sums: one addition per tick since
                # the window started, onto the sums of the segments before.
                # (A skip happens only in a window that opened here, so
                # ``samples`` is 0 whenever ``mark`` is not.)
                value_0, value_1, value_2, value_3 = segment.counter_values
                for _ in range(ticks - mark):
                    sum_0 += value_0
                    sum_1 += value_1
                    sum_2 += value_2
                    sum_3 += value_3
                samples += ticks - mark
                if window_opened:
                    sample_interval = segment.sample_interval
            phase_done = work >= duration_threshold

            ticks_total += ticks
            if recorder is not None:
                recorder.record_segment(
                    time=segment_start,
                    ticks=ticks,
                    tick=tick,
                    phase=phase.name,
                    memo_hit=memo_hit,
                    segment=segment,
                )
            if record_bandwidth:
                run.bandwidth_samples.extend([segment.bandwidth] * ticks)
            if phase_done:
                phase_index += 1
                work = 0.0
            if evaluation_due:
                last_evaluation_time = time_now
                evaluations += 1
                observation = PolicyObservation(
                    counters=CounterSample.from_sums(
                        COUNTER_NAMES,
                        (sum_0, sum_1, sum_2, sum_3),
                        samples,
                        sample_interval,
                    ),
                    static_demand=static_demand,
                    time=time_now,
                    workload_class=workload_class,
                    evaluation_interval=sim.evaluation_interval,
                    samples=samples,
                )
                sum_0 = sum_1 = sum_2 = sum_3 = 0.0
                samples = 0
                new_action = policy.decide(observation)
                if from_counters and new_action is action and window_opened:
                    steady_segment = segment
                    steady_ticks = observation.samples
                else:
                    steady_segment = None
                if not new_action.same_operating_point(action):
                    latency = new_action.transition_latency
                    run.transitions += 1
                    run.transition_time += latency
                    if recorder is not None:
                        recorder.record_transition(
                            time=time_now,
                            latency=latency,
                            from_dram_frequency=action.dram_frequency,
                            to_dram_frequency=new_action.dram_frequency,
                        )
                    time_now += latency
                    # Computed fresh, not memoized: the policy's decide() may
                    # already have reloaded the live MRC registers (SysScale
                    # runs the Fig. 5 flow inside decide), and the reference
                    # loop charges the transition at the post-decide register
                    # state.
                    power = self.platform.soc_power.breakdown(
                        segment.state, segment.activity
                    )
                    energy_compute += power.compute_domain * latency
                    energy_io += power.io_domain * latency
                    energy_memory += power.memory_domain * latency
                    energy_platform += power.platform_fixed * latency
                    self._apply_mrc(new_action)
                action = new_action

        run.time = time_now
        run.phase_index = phase_index
        run.work_done_in_phase = work
        run.energy.add(
            compute=energy_compute,
            io=energy_io,
            memory=energy_memory,
            platform_fixed=energy_platform,
        )
        run.cpu_frequency_time = cpu_time
        run.gfx_frequency_time = gfx_time
        run.dram_frequency_time = dram_time
        run.low_point_time = low_point_time
        run.evaluation_count = evaluations
        self.last_run_stats = EngineRunStats(
            ticks=ticks_total,
            segments=segments,
            model_evaluations=model_evaluations,
            memo_hits=memo_hits,
            evaluations=evaluations,
            transitions=run.transitions,
        )

    def _evaluate_segment(
        self, trace: WorkloadTrace, phase: Phase, action: PolicyAction
    ) -> _SegmentModel:
        """Run the model stack once for a ``(phase, action, MRC)`` segment.

        Mirrors exactly what the reference loop computes on every tick; the
        returned per-tick increments are what the tight loop replays.
        """
        tick = self.config.tick
        state, _plan = self._build_state(trace, phase, action)
        mrc = self.platform.mrc_registers

        slowdown = self.platform.performance_model.slowdown(phase, state, mrc)
        activity = activity_for_phase(phase, slowdown.achieved_bandwidth)
        sample = self.platform.counter_unit.sample(phase, state, mrc)

        if trace.workload_class is WorkloadClass.BATTERY_LIFE:
            energy_ticks = self._battery_life_tick_energy(phase, state, activity, tick)
            work_tick = tick
        else:
            breakdown = self.platform.soc_power.breakdown(state, activity)
            energy_ticks = (
                breakdown.compute_domain * tick,
                breakdown.io_domain * tick,
                breakdown.memory_domain * tick,
                breakdown.platform_fixed * tick,
            )
            work_tick = tick / slowdown.total
        for name, value in zip(("compute", "io", "memory", "platform_fixed"), energy_ticks):
            if value < 0:
                raise ValueError(f"{name} energy contribution must be non-negative")

        return _SegmentModel(
            state=state,
            activity=activity,
            work_tick=work_tick,
            energy_ticks=energy_ticks,
            counter_values=tuple(sample[name] for name in COUNTER_NAMES),
            sample_interval=sample.interval,
            bandwidth=slowdown.achieved_bandwidth,
            frequency_ticks=(
                state.cpu_frequency * tick,
                state.gfx_frequency * tick,
                state.dram_frequency * tick,
            ),
            low_point=state.dram_frequency
            < self.platform.dram.max_frequency - 1e3,
        )

    # ------------------------------------------------------------------
    # Reference loop (the seed per-tick algorithm, kept verbatim)
    # ------------------------------------------------------------------
    def _run_reference(
        self,
        trace: WorkloadTrace,
        policy: Policy,
        static_demand: StaticDemandInfo,
        run: _RunState,
        action: PolicyAction,
    ) -> None:
        last_evaluation_time = 0.0
        high_dram_frequency = self.platform.dram.max_frequency
        phases = trace.phases
        tick = self.config.tick
        ticks_total = 0

        while run.phase_index < len(phases) and run.time < self.config.max_simulated_time:
            phase = phases[run.phase_index]
            state, plan = self._build_state(trace, phase, action)
            mrc = self.platform.mrc_registers

            slowdown = self.platform.performance_model.slowdown(phase, state, mrc)
            activity = activity_for_phase(phase, slowdown.achieved_bandwidth)

            # --- energy ---------------------------------------------------
            self._accumulate_energy(run, trace, phase, state, activity, tick)

            # --- counters --------------------------------------------------
            run.interval_samples.append(
                self.platform.counter_unit.sample(phase, state, mrc)
            )
            if self.config.record_bandwidth_samples:
                run.bandwidth_samples.append(slowdown.achieved_bandwidth)

            # --- statistics -------------------------------------------------
            run.cpu_frequency_time += state.cpu_frequency * tick
            run.gfx_frequency_time += state.gfx_frequency * tick
            run.dram_frequency_time += state.dram_frequency * tick
            if state.dram_frequency < high_dram_frequency - 1e3:
                run.low_point_time += tick

            # --- progress ---------------------------------------------------
            run.time += tick
            ticks_total += 1
            if trace.workload_class is WorkloadClass.BATTERY_LIFE:
                # Fixed performance demand: the trace advances in wall-clock time.
                run.work_done_in_phase += tick
            else:
                run.work_done_in_phase += tick / slowdown.total
            if run.work_done_in_phase >= phase.duration - 1e-12:
                run.phase_index += 1
                run.work_done_in_phase = 0.0

            # --- policy evaluation ------------------------------------------
            if run.time - last_evaluation_time >= self.config.evaluation_interval - 1e-12:
                last_evaluation_time = run.time
                run.evaluation_count += 1
                observation = PolicyObservation(
                    counters=CounterSample.average(run.interval_samples),
                    static_demand=static_demand,
                    time=run.time,
                    workload_class=trace.workload_class.value,
                    evaluation_interval=self.config.evaluation_interval,
                    samples=len(run.interval_samples),
                )
                run.interval_samples = []
                new_action = policy.decide(observation)
                if not new_action.same_operating_point(action):
                    self._charge_transition(run, new_action, state, activity)
                    self._apply_mrc(new_action)
                action = new_action

        self.last_run_stats = EngineRunStats(
            ticks=ticks_total,
            segments=ticks_total,
            model_evaluations=ticks_total,
            memo_hits=0,
            evaluations=run.evaluation_count,
            transitions=run.transitions,
        )

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _build_state(
        self, trace: WorkloadTrace, phase: Phase, action: PolicyAction
    ):
        """SoC state for the current tick: IO/memory from the action, compute from the PBM."""
        budgets = self.platform.pbm.budgets(action.io_memory_budget)
        activity_hint = ActivityVector(
            cpu_activity=phase.cpu_activity,
            gfx_activity=phase.gfx_activity,
            io_activity=phase.io_activity,
            memory_bandwidth=phase.memory_bandwidth_demand,
            active_cores=phase.active_cores,
        )
        plan: ComputePlan = self.platform.pbm.plan(
            budgets.compute,
            activity_hint,
            graphics_centric=trace.is_graphics_centric,
            fixed_performance=trace.has_fixed_performance_demand,
        )
        state = SoCState(
            cpu_frequency=plan.cpu_state.frequency,
            gfx_frequency=plan.gfx_state.frequency,
            dram_frequency=action.dram_frequency,
            interconnect_frequency=action.interconnect_frequency,
            v_sa_scale=action.v_sa_scale,
            v_io_scale=action.v_io_scale,
            v_core=plan.cpu_state.voltage,
            v_gfx=plan.gfx_state.voltage,
            mrc_optimized=action.mrc_optimized
            or self.platform.mrc_registers.is_optimized_for(action.dram_frequency),
            dram_in_self_refresh=False,
            active_cores=phase.active_cores,
        )
        return state, plan

    def _apply_mrc(self, action: PolicyAction) -> None:
        """Load the optimized register set for the action's DRAM frequency if requested."""
        if action.mrc_optimized and self.platform.mrc_sram.has_frequency(action.dram_frequency):
            self.platform.mrc_registers.load(
                self.platform.mrc_sram.load(action.dram_frequency)
            )

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def _accumulate_energy(
        self,
        run: _RunState,
        trace: WorkloadTrace,
        phase: Phase,
        state: SoCState,
        activity: ActivityVector,
        tick: float,
    ) -> None:
        if trace.workload_class is WorkloadClass.BATTERY_LIFE:
            compute, io, memory, platform_fixed = self._battery_life_tick_energy(
                phase, state, activity, tick
            )
            run.energy.add(
                compute=compute, io=io, memory=memory, platform_fixed=platform_fixed
            )
            return
        breakdown = self.platform.soc_power.breakdown(state, activity)
        run.energy.add(
            compute=breakdown.compute_domain * tick,
            io=breakdown.io_domain * tick,
            memory=breakdown.memory_domain * tick,
            platform_fixed=breakdown.platform_fixed * tick,
        )

    def _battery_life_tick_energy(
        self,
        phase: Phase,
        state: SoCState,
        activity: ActivityVector,
        tick: float,
    ) -> Tuple[float, float, float, float]:
        """Residency-weighted per-tick energy for battery-life workloads (Sec. 7.3).

        The phase's C-state residency profile is re-scaled when the active work
        runs slower than at the reference configuration (fixed performance demand
        means slower hardware must stay active longer).  Returns the (compute,
        io, memory, platform) joule increments for one tick.
        """
        slowdown = self.platform.performance_model.slowdown(
            phase, state, self.platform.mrc_registers
        )
        residency = phase.residency
        if slowdown.total > 1.0 and residency.active_fraction < 1.0:
            new_active = min(1.0, residency.active_fraction * slowdown.total)
            residency = residency.scaled_active(new_active)

        # C0: fully active.
        c0 = residency.fraction(CState.C0)
        active_breakdown = self.platform.soc_power.breakdown(state, activity)

        # C2: compute idle, DRAM active, only IO agents (display/ISP) generate traffic.
        c2 = residency.fraction(CState.C2)
        c2_memory_io = self.platform.memory_power.breakdown(
            dram_frequency=state.dram_frequency,
            interconnect_frequency=state.interconnect_frequency,
            v_sa_scale=state.v_sa_scale,
            v_io_scale=state.v_io_scale,
            bandwidth=phase.io_bandwidth_demand,
            io_activity=phase.io_activity,
            in_self_refresh=False,
            mrc=self.platform.mrc_registers,
        )

        # Deep idle states (C6/C7/C8): the system agent and DDRIO are power gated,
        # DRAM sits in self-refresh on VDDQ.  Only the self-refresh current and a
        # small always-on residual remain, independent of the selected operating
        # point -- SysScale only matters while DRAM is active (Sec. 7.3).
        deep_states = [
            (cstate, residency.fraction(cstate))
            for cstate in (CState.C6, CState.C7, CState.C8)
            if residency.fraction(cstate) > 0
        ]
        deep_fraction = ordered_sum(fraction for _, fraction in deep_states)
        deep_memory_power = self.platform.memory_power.self_refresh_power + 0.01
        deep_io_power = 0.01

        compute_energy = c0 * active_breakdown.compute_domain * tick
        compute_energy += c2 * IDLE_PACKAGE_POWER[CState.C2] * tick
        for cstate, fraction in deep_states:
            compute_energy += fraction * IDLE_PACKAGE_POWER[cstate] * tick

        io_energy = (
            c0 * active_breakdown.io_domain
            + c2 * c2_memory_io.io_domain
            + deep_fraction * deep_io_power
        ) * tick
        memory_energy = (
            c0 * active_breakdown.memory_domain
            + c2 * c2_memory_io.memory_domain
            + deep_fraction * deep_memory_power
        ) * tick
        platform_energy = active_breakdown.platform_fixed * tick
        return compute_energy, io_energy, memory_energy, platform_energy

    # ------------------------------------------------------------------
    # Transitions and results
    # ------------------------------------------------------------------
    def _charge_transition(
        self,
        run: _RunState,
        new_action: PolicyAction,
        state: SoCState,
        activity: ActivityVector,
    ) -> None:
        """Charge the latency and energy of one operating-point transition."""
        latency = new_action.transition_latency
        run.transitions += 1
        run.transition_time += latency
        run.time += latency
        power = self.platform.soc_power.breakdown(state, activity)
        run.energy.add(
            compute=power.compute_domain * latency,
            io=power.io_domain * latency,
            memory=power.memory_domain * latency,
            platform_fixed=power.platform_fixed * latency,
        )

    def _build_result(
        self, trace: WorkloadTrace, policy: Policy, run: _RunState
    ) -> SimulationResult:
        time = max(run.time, self.config.tick)
        return SimulationResult(
            workload=trace.name,
            policy=policy.name,
            execution_time=time,
            energy=run.energy,
            transitions=run.transitions,
            transition_time=run.transition_time,
            low_point_time=run.low_point_time,
            evaluation_count=run.evaluation_count,
            average_cpu_frequency=run.cpu_frequency_time / time,
            average_gfx_frequency=run.gfx_frequency_time / time,
            average_dram_frequency=run.dram_frequency_time / time,
            achieved_bandwidth_samples=run.bandwidth_samples,
        )
