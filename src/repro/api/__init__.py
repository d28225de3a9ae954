"""The programmatic facade over the experiment registry and runtime.

:class:`Session` bundles everything the CLI wires together -- executor, result
cache, platform/context construction -- behind one object, so scripts and
notebooks drive experiments in two lines::

    from repro.api import Session

    session = Session(jobs=8)                      # 8 worker processes, cached
    report = session.run("fig7", quick=True)       # an ExperimentReport
    print(report.block("average/sysscale").value)  # typed block access
    print(session.summary())                       # "... 0 simulated ..." warm

Reports are structured (:class:`~repro.experiments.report.ExperimentReport`);
export them with :func:`~repro.experiments.report.render_json` /
:func:`~repro.experiments.report.render_csv` / ``report.to_dict()``.

Single simulations go through the same runtime (and therefore the same cache
and process pool) via :meth:`Session.simulate`::

    result = session.simulate("spec", "sysscale", name="470.lbm", duration=1.0)

Every ``run``/``simulate`` call shares the session's context, whose platform
and threshold calibration (the expensive part) are built once per process.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.api import ExperimentSpec, get_spec, registry
from repro.hw import HardwareSpec, resolve_hardware
from repro.experiments.report import (
    ExperimentReport,
    Metric,
    RunInfo,
    Series,
    Table,
    render_csv,
    render_json,
    render_text,
)
from repro.experiments.runner import ExperimentRuntime, build_context
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.executor import Executor
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.sim.engine import SimulationConfig
from repro.sim.result import SimulationResult

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "HardwareSpec",
    "Metric",
    "RunInfo",
    "Series",
    "Session",
    "Table",
    "registry",
    "render_csv",
    "render_json",
    "render_text",
]


class Session:
    """One configured runtime + context, shared across experiment runs.

    Parameters
    ----------
    jobs:
        Worker processes (1 = serial in-process execution, the default).
    cache_dir:
        Result-cache directory; defaults to ``.repro-cache`` (or
        ``$REPRO_CACHE_DIR``).  Pass ``cache=False`` to disable caching.
    cache:
        Whether to consult/populate the content-addressed result cache.
    platform:
        The hardware description the session simulates: a registered name
        (``"skylake"``, ``"broadwell"``, ``python -m repro hw list``), a
        :class:`~repro.hw.HardwareSpec`, or ``None`` for the default Skylake.
    overrides:
        Hardware derivation deltas applied over ``platform`` (the
        :meth:`HardwareSpec.derive` keywords, e.g. ``{"tdp": 5.5}`` or
        ``{"uncore_leakage_coeff_scale": 1.08}``).
    tdp:
        Package TDP in watts for the session platform (shorthand for the
        corresponding ``overrides`` entry).
    duration:
        Default workload-trace duration in seconds.
    max_time:
        Optional cap on simulated time per run (smoke-run scaling).
    progress:
        Optional per-job progress callback (see ``repro.runtime.executor``).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache: bool = True,
        platform: Optional[object] = None,
        overrides: Optional[Dict[str, object]] = None,
        tdp: Optional[float] = None,
        duration: float = 1.0,
        max_time: Optional[float] = None,
        progress=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.runtime = ExperimentRuntime(
            executor=Executor(workers=jobs),
            cache=ResultCache(cache_dir or default_cache_dir()) if cache else None,
            progress=progress,
        )
        hardware = resolve_hardware(platform)
        if overrides:
            hardware = hardware.derive(**overrides)
        self._hardware = hardware
        self.context = build_context(
            tdp=tdp,
            workload_duration=duration,
            sim_config=(
                SimulationConfig(max_simulated_time=max_time) if max_time else None
            ),
            runtime=self.runtime,
            hardware=hardware,
        )

    @property
    def hardware(self) -> HardwareSpec:
        """The session's hardware description (before any ``tdp`` shorthand)."""
        return self._hardware

    # ------------------------------------------------------------------
    def run(self, target: str, *, quick: bool = False, **params) -> ExperimentReport:
        """Run one registered experiment and return its structured report.

        ``params`` are the extra overrides the target's spec declares (e.g.
        ``subset=...`` for ``fig7``); unknown parameters raise ``TypeError``
        listing what the spec accepts.
        """
        return get_spec(target).run(self.context, quick=quick, **params)

    def simulate(
        self,
        trace: str,
        policy: str = "sysscale",
        *,
        peripherals: Optional[str] = None,
        policy_params: Optional[Dict[str, object]] = None,
        **trace_params,
    ) -> SimulationResult:
        """Run one (trace, policy) simulation through the session runtime.

        ``trace`` and ``policy`` are registered builder names (see ``python -m
        repro list``); ``trace_params`` are the builder's keyword parameters::

            session.simulate("spec", "baseline", name="470.lbm", duration=0.5)
            session.simulate("battery_life", name="video_playback",
                             peripherals="single_4k")
        """
        job = self.context.simulation_job(
            TraceSpec.make(trace, **trace_params),
            PolicySpec.make(policy, **(policy_params or {})),
            peripherals=peripherals,
        )
        return self.runtime.simulate([job])[0]

    def specs(self) -> Dict[str, ExperimentSpec]:
        """Every registered experiment spec, by target name."""
        return dict(registry())

    @property
    def metrics(self):
        """The runtime's :class:`~repro.obs.metrics.MetricsRegistry`.

        Always live (independent of ambient ``repro.obs`` state): job
        accounting, batch latencies, and engine loop totals accumulate here
        across every ``run``/``simulate`` call.  ``session.metrics.snapshot()``
        returns the JSON-able view.
        """
        return self.runtime.metrics

    def summary(self) -> str:
        """The runtime accounting line (submitted / unique / simulated / hits)."""
        return self.runtime.summary()

    def close(self) -> None:
        """Shut down the session's worker pool (if any).

        Parallel sessions keep one warm process pool alive across every
        ``run``/``simulate`` call; ``close`` releases it deterministically.
        The session remains usable -- the next parallel batch simply starts a
        fresh pool.
        """
        self.runtime.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        cache = self.runtime.cache.root if self.runtime.cache else "disabled"
        return f"Session(runtime={self.runtime.summary()!r}, cache={cache!r})"
