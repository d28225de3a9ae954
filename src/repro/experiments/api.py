"""The experiment registry: one typed spec per table/figure.

Each experiment module defines exactly one runner and registers it with the
:func:`experiment` decorator::

    @experiment(
        "fig7",
        title="Fig. 7: SPEC CPU2006 performance improvement",
        quick="12-benchmark representative SPEC subset",
    )
    def _fig7(context, quick, *, subset=None):
        ...  # docstring line 1 is the help text; ``subset`` is a param
        return ExperimentReport(...)

The registered :class:`ExperimentSpec` is the only way into an experiment and
the single source of truth the CLI is generated from: target names, per-target
help text (the runner docstring's first line), which context flags an
experiment honors (the ignored-flags warnings are *derived* -- see
:attr:`ExperimentSpec.ignored_flags` -- instead of hand-synced), what
``--quick`` does, and which extra parameters the programmatic API
(:class:`repro.api.Session`) and ``--param`` accept for it: the runner's
keyword-only parameters.  :meth:`ExperimentSpec.run` attaches the run
accounting, so runners only build jobs and read results.

Specs live in their experiment modules, so the registry is complete exactly
when ``repro.experiments`` is imported; :func:`registry` forces that import.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentContext
from repro.obs.spans import span as obs_span

#: Context flags the ``run`` CLI exposes that not every experiment honors.
CONTEXT_FLAGS: Tuple[str, ...] = ("--duration", "--tdp")

#: A registered runner: ``fn(context, quick, *, <params>) -> ExperimentReport``.
ExperimentRunner = Callable[..., ExperimentReport]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, CLI surface, and entry point."""

    name: str
    title: str
    runner: ExperimentRunner
    description: str = ""
    #: The context flags (subset of :data:`CONTEXT_FLAGS`) this experiment honors.
    flags: Tuple[str, ...] = CONTEXT_FLAGS
    #: What ``--quick`` changes, or ``None`` if quick mode has no effect.
    quick: Optional[str] = None
    #: The runner's keyword-only parameters (Session API and ``--param`` names).
    params: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = tuple(flag for flag in self.flags if flag not in CONTEXT_FLAGS)
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} declares unknown context flags {unknown}; "
                f"known: {CONTEXT_FLAGS}"
            )

    @property
    def ignored_flags(self) -> Tuple[str, ...]:
        """Context flags this experiment does *not* honor (derived, not synced)."""
        return tuple(flag for flag in CONTEXT_FLAGS if flag not in self.flags)

    def run(
        self,
        context: ExperimentContext,
        quick: bool = False,
        **overrides: object,
    ) -> ExperimentReport:
        """Execute the experiment, validate its report, and attach the run
        accounting (the jobs it submitted through ``context.runtime``)."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            accepted = ", ".join(self.params) if self.params else "none"
            raise TypeError(
                f"experiment {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {accepted}"
            )
        before = context.runtime.accounting()
        with obs_span("experiment.run", experiment=self.name, quick=quick):
            report = self.runner(context, quick, **overrides)
        if not isinstance(report, ExperimentReport):
            raise TypeError(
                f"experiment {self.name!r} returned {type(report).__name__}, "
                "expected ExperimentReport"
            )
        if report.experiment != self.name:
            raise ValueError(
                f"experiment {self.name!r} returned a report named "
                f"{report.experiment!r}"
            )
        return replace(report, run=context.runtime.accounting().since(before))

    @property
    def help_text(self) -> str:
        """One per-target help line assembled entirely from the spec."""
        notes = []
        if self.quick:
            notes.append(f"--quick: {self.quick}")
        if self.ignored_flags:
            notes.append(f"ignores {'/'.join(self.ignored_flags)}")
        if self.params:
            notes.append(f"api params: {', '.join(self.params)}")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        return f"{self.title}{suffix}"


#: Every registered experiment, by name (populated by module import).
REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    name: str,
    *,
    title: str,
    description: str = "",
    flags: Tuple[str, ...] = CONTEXT_FLAGS,
    quick: Optional[str] = None,
) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Register ``fn(context, quick, *, <params>)`` as an experiment spec.

    The spec's ``params`` are ``fn``'s keyword-only parameters, in order.
    """

    def decorate(fn: ExperimentRunner) -> ExperimentRunner:
        if name in REGISTRY:
            raise ValueError(f"experiment {name!r} is already registered")
        doc = (fn.__doc__ or "").strip()
        params = tuple(
            parameter.name
            for parameter in inspect.signature(fn).parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        )
        REGISTRY[name] = ExperimentSpec(
            name=name,
            title=title,
            runner=fn,
            description=description or (doc.splitlines()[0] if doc else ""),
            flags=tuple(flags),
            quick=quick,
            params=params,
        )
        return fn

    return decorate


def registry() -> Dict[str, ExperimentSpec]:
    """The complete registry (forces every experiment module to be imported)."""
    import repro.experiments  # noqa: F401  (registers all specs on import)

    return REGISTRY


def get_spec(name: str) -> ExperimentSpec:
    """Look up one spec by name, with a helpful error listing known targets."""
    specs = registry()
    spec = specs.get(name)
    if spec is None:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(specs))}"
        )
    return spec
