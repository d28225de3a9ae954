"""``repro.analysis.lint``: the repo's contracts as machine-checked rules.

Five AST-based rules guard the reproduction's documented guarantees:

==================  ========  ====================================================
rule                severity  enforces
==================  ========  ====================================================
``determinism``     error     no wall clocks / global RNGs / env reads where
                              results are computed and hashed
``hash-surface``    error     frozen content-hashed specs serialize every field
                              and stamp a schema version
``layering``        error     top-level imports follow the layer DAG (the model
                              stack never sees obs or the runtime)
``telemetry-inert`` error     ``repro.obs`` never mutates what it observes
``console``         warning   output flows through ``Console``, never bare
                              ``print()``
==================  ========  ====================================================

Escape hatch: ``# reprolint: disable=RULE`` inline.  CLI: ``python -m repro
lint`` (see ``--list-rules`` / ``--explain RULE``); CI runs it as a hard gate.
"""

from repro.analysis.lint.engine import DEFAULT_ROOTS, LintReport, lint_paths
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules import RULES, LintRule

__all__ = [
    "DEFAULT_ROOTS",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "lint_paths",
]
