"""Performance counters used by SysScale's demand prediction (Sec. 4.2).

The paper adds four counters to the SoC and reads them every millisecond:

* ``GFX_LLC_MISSES`` -- LLC misses caused by the graphics engines; indicative of
  the graphics engines' memory-bandwidth requirements.
* ``LLC_Occupancy_Tracer`` -- CPU requests waiting for data from the memory
  controller; indicates whether the cores are bandwidth limited.
* ``LLC_STALLS`` -- stalls due to a busy LLC; indicates main-memory latency limits.
* ``IO_RPQ`` -- IO read-pending-queue occupancy; indicates IO latency limits.

On real hardware these are event counts; here they are synthesised from the phase
characteristics that *cause* those events (graphics bandwidth demand, core traffic
and memory latency, latency-bound fraction, IO demand), so a counter's value has
the same meaning it has in the paper even though the units are model units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro import config
from repro.memory.mrc import MrcRegisterFile
from repro.numeric import ordered_sum
from repro.perf.latency import MemoryLatencyModel
from repro.soc.domains import SoCState
from repro.workloads.trace import Phase


class CounterName(str, enum.Enum):
    """The four performance counters of Sec. 4.2."""

    GFX_LLC_MISSES = "GFX_LLC_MISSES"
    LLC_OCCUPANCY_TRACER = "LLC_Occupancy_Tracer"
    LLC_STALLS = "LLC_STALLS"
    IO_RPQ = "IO_RPQ"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Cache-line size used to convert bandwidth into miss counts.
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class CounterSample:
    """One 1 ms sample of the four counters (Sec. 4.3 samples every 1 ms)."""

    values: Mapping[CounterName, float]
    interval: float = config.COUNTER_SAMPLING_INTERVAL

    def __post_init__(self) -> None:
        for name in CounterName:
            if name not in self.values:
                raise ValueError(f"counter sample is missing {name}")
            if self.values[name] < 0:
                raise ValueError(f"counter {name} must be non-negative")
        if self.interval <= 0:
            raise ValueError("sample interval must be positive")

    def __getitem__(self, name: CounterName) -> float:
        return self.values[name]

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view keyed by counter name."""
        return {str(name): value for name, value in self.values.items()}

    @staticmethod
    def average(samples: Iterable["CounterSample"]) -> "CounterSample":
        """Average a set of samples counter-by-counter (Sec. 4.3).

        The PMU "samples the performance counters and CSRs multiple times in an
        evaluation interval and uses the average value of each counter".
        """
        samples = list(samples)
        if not samples:
            raise ValueError("cannot average zero samples")
        averaged = {
            name: ordered_sum(sample[name] for sample in samples) / len(samples)
            for name in CounterName
        }
        return CounterSample(values=averaged, interval=samples[0].interval)

    @staticmethod
    def from_sums(
        names: Sequence[CounterName],
        sums: Tuple[float, ...],
        count: int,
        interval: float,
    ) -> "CounterSample":
        """Average from per-counter running sums over ``count`` samples.

        The segment-stepping engine accumulates one running sum per counter
        instead of a per-interval ``List[CounterSample]``; because the sums
        perform the same ordered additions :meth:`average` would (``sum`` of a
        sample list is a left fold starting at zero), ``from_sums`` is
        bit-identical to averaging the materialized samples.
        """
        if count <= 0:
            raise ValueError("cannot average zero samples")
        return CounterSample(
            values={name: total / count for name, total in zip(names, sums)},
            interval=interval,
        )


@dataclass
class PerformanceCounterUnit:
    """Synthesises per-millisecond counter samples from phase characteristics."""

    latency_model: MemoryLatencyModel
    sampling_interval: float = config.COUNTER_SAMPLING_INTERVAL

    def __post_init__(self) -> None:
        if self.sampling_interval <= 0:
            raise ValueError("sampling interval must be positive")

    def sample(
        self,
        phase: Phase,
        state: SoCState,
        mrc: Optional[MrcRegisterFile] = None,
    ) -> CounterSample:
        """Produce one counter sample for ``phase`` running under ``state``.

        * ``GFX_LLC_MISSES``: graphics bandwidth demand converted to line misses
          per sampling interval.
        * ``LLC_Occupancy_Tracer``: outstanding CPU requests, from Little's law
          (traffic rate x loaded memory latency).
        * ``LLC_STALLS``: stall time per interval (microseconds), proportional to
          the phase's memory-latency-bound fraction and the current loaded latency.
        * ``IO_RPQ``: outstanding IO requests, from the IO agents' demand and the
          loaded latency, weighted by how IO-bound the phase is.
        """
        demand = phase.memory_bandwidth_demand
        # Counters are normalised to the reference (high) operating point so the
        # demand predictor sees workload characteristics, not the configuration it
        # happens to be running at; the PMU firmware performs the equivalent
        # frequency normalisation when it reads the raw event counts.
        latency = self.latency_model.reference_latency(demand)
        del state, mrc

        gfx_misses = (
            phase.gfx_bandwidth_demand * self.sampling_interval / CACHE_LINE_BYTES
        )
        cpu_outstanding = (phase.cpu_bandwidth_demand / CACHE_LINE_BYTES) * latency
        # Stall time per sampling interval, expressed in microseconds so the value
        # is independent of the CPU clock the compute-domain PBM happens to grant.
        stall_time_us = (
            phase.memory_latency_fraction
            * min(1.0, latency / 100e-9)
            * (self.sampling_interval / config.US)
        )
        # IO_RPQ reflects *latency-sensitive* IO reads waiting on memory.  Bulk
        # isochronous streaming (display scanout, camera frames) is deeply
        # buffered and latency tolerant, so it contributes only weakly; the
        # dominant term is how IO-latency-bound the phase actually is.
        io_outstanding = (
            phase.io_fraction * 16.0
            + (phase.io_bandwidth_demand / CACHE_LINE_BYTES) * latency * 0.05
        )

        return CounterSample(
            values={
                CounterName.GFX_LLC_MISSES: gfx_misses,
                CounterName.LLC_OCCUPANCY_TRACER: cpu_outstanding,
                CounterName.LLC_STALLS: stall_time_us,
                CounterName.IO_RPQ: io_outstanding,
            },
            interval=self.sampling_interval,
        )
