"""The ``repro lint`` command: its parser and its body.

Exit codes follow the rest of the CLI: 0 clean, 1 findings, 2 usage
errors.  ``--json`` emits the full :class:`LintReport` payload on
stdout (decorations move to stderr), which is what the CI gate archives.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.analysis.lint.engine import lint_paths
from repro.analysis.lint.explain import explain_rule
from repro.analysis.lint.rules import RULES
from repro.cli.common import add_command, add_json_flag, print_json
from repro.obs.logging import Console

__all__ = ["register", "run_lint"]


def run_lint(
    paths: Sequence[str] = (),
    *,
    as_json: bool = False,
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

    try:
        report = lint_paths(list(paths) or None, repo_root=root, rules=rules)
    except KeyError as exc:
        ui.error(str(exc.args[0]) if exc.args else str(exc))
        return 2

    if as_json:
        print_json(ui, report.to_dict(), sort_keys=True)
    else:
        for error in report.errors:
            ui.error(error)
        for finding in report.findings:
            ui.out(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
        )
        if report.suppressed:
            summary += f" ({report.suppressed} suppressed inline)"
        ui.info(summary)

    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace, ui: Console) -> int:
    return run_lint(
        args.paths,
        as_json=args.json,
        explain=args.explain,
        list_rules=args.list_rules,
        rules=args.rules or None,
        console=ui,
    )


def register(subparsers: Any) -> None:
    """Add ``lint`` to the ``python -m repro`` subcommands."""
    parser = add_command(
        subparsers, "lint", _cmd_lint,
        help="statically check the repo's determinism/hash/layering contracts",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro tests examples)",
    )
    add_json_flag(parser, "emit the full report as JSON on stdout")
    parser.add_argument(
        "--rule", dest="rules", action="append", metavar="RULE",
        help="restrict to one rule (repeatable)",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's rationale with a bad/good example, then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules with severities"
    )
