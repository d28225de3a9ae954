"""Per-counter threshold calibration (Sec. 4.2).

SysScale decides whether the running workload can tolerate the low operating point
by comparing each performance counter with a threshold.  The paper derives the
thresholds offline from representative workloads (the mean plus one standard
deviation of each counter among the runs that degrade by less than the bound,
then pruned by an empirical tuning loop [81]).  That mu + sigma rule is not
implemented here.  Instead, :meth:`ThresholdCalibrator.calibrate_boundary`
probes each counter's degradation boundary directly against the simulated
platform and sets the threshold a guard band below it.  Fig. 6 checks the
outcome the paper reports for its thresholds: high prediction accuracy with
zero false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro import config
from repro.core.operating_points import OperatingPoint, OperatingPointTable
from repro.numeric import ordered_sum
from repro.perf.counters import CounterName, CounterSample
from repro.sim.platform import Platform
from repro.soc.domains import SoCState
from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class CounterThresholds:
    """Calibrated thresholds, one per counter (Sec. 4.2)."""

    thresholds: Mapping[CounterName, float]
    degradation_bound: float = config.PREDICTION_DEGRADATION_BOUND
    static_bandwidth_threshold: float = 0.5 * config.LPDDR3_PEAK_BANDWIDTH

    def __post_init__(self) -> None:
        for name in CounterName:
            if name not in self.thresholds:
                raise ValueError(f"missing threshold for {name}")
            if self.thresholds[name] < 0:
                raise ValueError(f"threshold for {name} must be non-negative")
        if not 0 < self.degradation_bound < 1:
            raise ValueError("degradation bound must be in (0, 1)")
        if self.static_bandwidth_threshold < 0:
            raise ValueError("static bandwidth threshold must be non-negative")

    def __getitem__(self, name: CounterName) -> float:
        return self.thresholds[name]

    def exceeded(self, sample: CounterSample) -> Dict[CounterName, bool]:
        """Which counters exceed their thresholds in ``sample``."""
        return {name: sample[name] > self.thresholds[name] for name in CounterName}

    def any_exceeded(self, sample: CounterSample) -> bool:
        """True when any counter exceeds its threshold."""
        return any(self.exceeded(sample).values())

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view."""
        data = {str(name): value for name, value in self.thresholds.items()}
        data["degradation_bound"] = self.degradation_bound
        data["static_bandwidth_threshold_gbps"] = (
            self.static_bandwidth_threshold / config.GBPS
        )
        return data


@dataclass
class ThresholdCalibrator:
    """Offline threshold-calibration procedure of Sec. 4.2.

    Parameters
    ----------
    platform:
        The platform whose counter unit and performance model are used.
    operating_points:
        The table whose high/low pair the calibration compares.
    degradation_bound:
        Performance-degradation bound the low point may cost (1 % default).
    """

    platform: Platform
    operating_points: OperatingPointTable
    degradation_bound: float = config.PREDICTION_DEGRADATION_BOUND

    def __post_init__(self) -> None:
        if not 0 < self.degradation_bound < 1:
            raise ValueError("degradation bound must be in (0, 1)")

    # ------------------------------------------------------------------
    # Measurement of one workload
    # ------------------------------------------------------------------
    def _state_for_point(self, point: OperatingPoint, trace: WorkloadTrace) -> SoCState:
        """SoC state at ``point`` with the compute domain held at its reference clocks.

        The calibration isolates the memory/IO effect (Sec. 4.2 fixes the CPU
        frequency across the two setups, Table 1), so compute clocks stay at the
        trace's reference values.
        """
        return SoCState(
            cpu_frequency=trace.reference_cpu_frequency,
            gfx_frequency=trace.reference_gfx_frequency,
            dram_frequency=point.dram_frequency,
            interconnect_frequency=point.interconnect_frequency,
            v_sa_scale=point.v_sa_scale,
            v_io_scale=point.v_io_scale,
            mrc_optimized=point.mrc_optimized,
        )

    def measure_degradation(
        self,
        trace: WorkloadTrace,
        high: Optional[OperatingPoint] = None,
        low: Optional[OperatingPoint] = None,
    ) -> float:
        """Fractional slowdown of ``trace`` at the low point vs. the high point."""
        high = high or self.operating_points.high
        low = low or self.operating_points.low
        model = self.platform.performance_model
        high_time = 0.0
        low_time = 0.0
        for phase in trace.phases:
            high_time += model.execution_time(phase, self._state_for_point(high, trace))
            low_time += model.execution_time(phase, self._state_for_point(low, trace))
        if high_time <= 0:
            raise ValueError("high-point execution time must be positive")
        return low_time / high_time - 1.0

    def measure_counters(self, trace: WorkloadTrace) -> CounterSample:
        """Duration-weighted average counters of ``trace`` at the high operating point."""
        high = self.operating_points.high
        samples = []
        weights = []
        for phase in trace.phases:
            state = self._state_for_point(high, trace)
            samples.append(self.platform.counter_unit.sample(phase, state))
            weights.append(phase.duration)
        total = ordered_sum(weights)
        averaged = {
            name: ordered_sum(s[name] * w for s, w in zip(samples, weights)) / total
            for name in CounterName
        }
        return CounterSample(values=averaged)

    # ------------------------------------------------------------------
    # Boundary-probe calibration
    # ------------------------------------------------------------------
    def calibrate_boundary(self, guard: float = 0.9) -> CounterThresholds:
        """Derive thresholds by probing the degradation boundary directly.

        For each counter, a family of synthetic probe workloads is swept along the
        single characteristic that drives that counter (latency-bound fraction,
        CPU bandwidth demand, graphics bandwidth demand, IO-bound fraction) until
        the measured slowdown at the low operating point reaches the degradation
        bound; the counter value of that boundary probe, multiplied by a guard
        band, becomes the threshold.  This is the model-level equivalent of the
        empirical tuning loop the paper describes for its counter selection and
        thresholds (Sec. 4.2), and it yields the paper's reported behaviour:
        essentially no false positives, with false negatives confined to a narrow
        band below the boundary.
        """
        if not 0.0 < guard <= 1.0:
            raise ValueError("guard must be in (0, 1]")
        thresholds: Dict[CounterName, float] = {
            CounterName.LLC_STALLS: self._probe_boundary(
                lambda x: self._probe_phase(latency_fraction=x, demand_gbps=1.0),
                CounterName.LLC_STALLS,
                lower=0.0,
                upper=0.8,
            ),
            CounterName.LLC_OCCUPANCY_TRACER: self._probe_boundary(
                lambda x: self._probe_phase(latency_fraction=0.05, demand_gbps=x),
                CounterName.LLC_OCCUPANCY_TRACER,
                lower=0.5,
                upper=20.0,
            ),
            CounterName.GFX_LLC_MISSES: self._probe_boundary(
                lambda x: self._probe_phase(
                    latency_fraction=0.04, demand_gbps=1.0, gfx_demand_gbps=x, gfx_fraction=0.7
                ),
                CounterName.GFX_LLC_MISSES,
                lower=0.5,
                upper=20.0,
            ),
            CounterName.IO_RPQ: self._probe_boundary(
                lambda x: self._probe_phase(latency_fraction=0.02, demand_gbps=1.0, io_fraction=x),
                CounterName.IO_RPQ,
                lower=0.0,
                upper=0.6,
            ),
        }
        thresholds = {name: guard * value for name, value in thresholds.items()}
        return CounterThresholds(
            thresholds=thresholds,
            degradation_bound=self.degradation_bound,
            static_bandwidth_threshold=self._static_bandwidth_threshold(),
        )

    def _probe_phase(
        self,
        latency_fraction: float,
        demand_gbps: float,
        gfx_demand_gbps: float = 0.0,
        gfx_fraction: float = 0.0,
        io_fraction: float = 0.0,
    ) -> WorkloadTrace:
        """Build a single-phase probe workload with the given characteristics."""
        from repro import config as cfg
        from repro.workloads.trace import Phase, WorkloadClass, uniform_phase_trace

        other = 0.03
        compute = max(0.0, 1.0 - latency_fraction - gfx_fraction - io_fraction - other)
        phase = Phase(
            name="probe",
            duration=0.2,
            compute_fraction=compute,
            gfx_fraction=gfx_fraction,
            memory_latency_fraction=latency_fraction,
            memory_bandwidth_fraction=0.0,
            io_fraction=io_fraction,
            other_fraction=1.0 - compute - gfx_fraction - latency_fraction - io_fraction,
            cpu_bandwidth_demand=cfg.gbps(demand_gbps),
            gfx_bandwidth_demand=cfg.gbps(gfx_demand_gbps),
            cpu_activity=0.95,
            gfx_activity=0.9 if gfx_fraction > 0 else 0.0,
            io_activity=0.3,
        )
        return uniform_phase_trace(
            name="probe", workload_class=WorkloadClass.MICROBENCHMARK, phase=phase
        )

    def _probe_boundary(
        self,
        probe_factory,
        counter: CounterName,
        lower: float,
        upper: float,
        iterations: int = 24,
    ) -> float:
        """Binary-search the probe parameter where degradation equals the bound.

        Returns the probed counter's value at the boundary.  If even the upper end
        of the sweep stays below the bound, the counter value at the upper end is
        returned (the characteristic cannot push the workload past the bound on
        its own).
        """
        if upper <= lower:
            raise ValueError("upper must exceed lower")
        if self.measure_degradation(probe_factory(upper)) <= self.degradation_bound:
            boundary = upper
        else:
            lo, hi = lower, upper
            for _ in range(iterations):
                mid = 0.5 * (lo + hi)
                if self.measure_degradation(probe_factory(mid)) <= self.degradation_bound:
                    lo = mid
                else:
                    hi = mid
            boundary = lo
        return self.measure_counters(probe_factory(boundary))[counter]

    def _static_bandwidth_threshold(self) -> float:
        """Static-demand threshold: the bandwidth the low point can still serve.

        The aggregated static demand must stay comfortably below the low point's
        achievable bandwidth, otherwise QoS-critical IO traffic (display, camera)
        would be at risk; a 70 % occupancy guard band is applied.
        """
        low = self.operating_points.low
        return 0.7 * low.achievable_bandwidth(self.platform)
