"""The ``repro lint`` command body.

Exit codes follow the rest of the CLI: 0 clean, 1 findings, 2 usage or
I/O errors.  ``--json`` emits the full :class:`LintReport` payload on
stdout (decorations move to stderr), which is what the CI gate archives.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint.engine import lint_paths
from repro.analysis.lint.explain import explain_rule
from repro.analysis.lint.findings import Baseline
from repro.analysis.lint.rules import RULES
from repro.obs.logging import Console

__all__ = ["DEFAULT_BASELINE", "run_lint"]

#: The committed baseline the gate consults when present.
DEFAULT_BASELINE = ".reprolint-baseline.json"


def run_lint(
    paths: Sequence[str] = (),
    *,
    as_json: bool = False,
    baseline_path: Optional[str] = None,
    update_baseline: bool = False,
    explain: Optional[str] = None,
    list_rules: bool = False,
    rules: Optional[Sequence[str]] = None,
    repo_root: Optional[Path] = None,
    console: Optional[Console] = None,
) -> int:
    """Run the linter; returns the process exit code."""
    ui = console if console is not None else Console()
    root = (repo_root or Path.cwd()).resolve()

    if list_rules:
        for rule in RULES.values():
            ui.out(f"{rule.name:16s} {rule.severity:8s} {rule.summary}")
        return 0

    if explain is not None:
        if explain not in RULES:
            ui.error(f"unknown rule {explain!r}; known: {', '.join(RULES)}")
            return 2
        ui.out(explain_rule(explain, repo_root=root))
        return 0

    resolved_baseline: Optional[Path] = None
    if baseline_path is not None:
        resolved_baseline = Path(baseline_path)
        if not resolved_baseline.is_absolute():
            resolved_baseline = root / resolved_baseline
    elif (root / DEFAULT_BASELINE).is_file() or update_baseline:
        resolved_baseline = root / DEFAULT_BASELINE

    baseline: Optional[Baseline] = None
    if resolved_baseline is not None and resolved_baseline.is_file() and not update_baseline:
        try:
            baseline = Baseline.load(resolved_baseline)
        except (OSError, ValueError, KeyError) as exc:
            ui.error(f"cannot read baseline {resolved_baseline}: {exc}")
            return 2

    try:
        report = lint_paths(
            list(paths) or None, repo_root=root, rules=rules, baseline=baseline
        )
    except KeyError as exc:
        ui.error(str(exc.args[0]) if exc.args else str(exc))
        return 2

    if update_baseline:
        assert resolved_baseline is not None
        Baseline.from_findings(report.findings).save(resolved_baseline)
        ui.info(
            f"wrote {len(report.findings)} finding(s) to "
            f"{resolved_baseline.name}; the gate now tolerates (not endorses) them"
        )
        return 0

    if as_json:
        ui.out(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for error in report.errors:
            ui.error(error)
        for finding in report.findings:
            ui.out(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
        )
        extras = []
        if report.suppressed:
            extras.append(f"{report.suppressed} suppressed inline")
        if report.baselined:
            extras.append(f"{report.baselined} baselined")
        if extras:
            summary += f" ({', '.join(extras)})"
        ui.info(summary)

    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Minimal standalone entry (the real parser lives in repro.runtime.cli)."""
    args = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in args
    paths = [a for a in args if not a.startswith("-")]
    return run_lint(paths, as_json=as_json)


if __name__ == "__main__":
    raise SystemExit(main())
