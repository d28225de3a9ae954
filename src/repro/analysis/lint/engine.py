"""Running the rule set over a file tree and reporting.

:func:`lint_paths` is the single entry point the CLI, the CI gate, and the
tests all share.  Directory walking skips caches, hidden directories, and
``tests/fixtures`` (the lint fixtures *are* deliberate violations);
explicitly named files are always linted, which is how the fixtures get
exercised on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.analysis.lint.findings import Finding, suppressed_rules
from repro.analysis.lint.rules import RULES, LintRule
from repro.analysis.lint.source import parse_source

__all__ = ["DEFAULT_ROOTS", "LintReport", "iter_python_files", "lint_paths"]

#: What a bare ``python -m repro lint`` scans.
DEFAULT_ROOTS = ("src/repro", "tests", "examples")

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: Subtrees excluded from directory walks: lint fixtures are intentional
#: violations (linting them directly by explicit path still works).
_SKIP_SUBTREES = ("tests/fixtures",)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)  # unreadable/syntax errors
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(
    paths: Sequence[Path], repo_root: Path
) -> Iterator[Path]:
    """Python files under ``paths``: directories walked (with exclusions),
    explicit files yielded unconditionally."""
    for path in paths:
        if path.is_file():
            yield path
            continue
        if not path.is_dir():
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.parts
            if any(part in _SKIP_DIRS or part.startswith(".") for part in parts):
                continue
            rel = _relative(candidate, repo_root)
            if any(
                rel == subtree or rel.startswith(subtree + "/")
                for subtree in _SKIP_SUBTREES
            ):
                continue
            yield candidate


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    *,
    repo_root: Optional[Path] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint ``paths`` (default: :data:`DEFAULT_ROOTS` that exist).

    ``rules`` restricts to a subset of rule names.
    """
    root = (repo_root or Path.cwd()).resolve()
    if paths:
        targets = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    else:
        targets = [root / p for p in DEFAULT_ROOTS if (root / p).exists()]

    if rules is None:
        active: List[LintRule] = list(RULES.values())
    else:
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise KeyError(f"unknown lint rule(s): {', '.join(unknown)}")
        active = [RULES[name] for name in rules]

    report = LintReport()
    for file_path in iter_python_files(targets, root):
        rel = _relative(file_path, root)
        module, error = parse_source(file_path, rel)
        if module is None:
            report.errors.append(error or f"{rel}: unparseable")
            continue
        report.files_scanned += 1
        for rule in active:
            if not rule.applies(module):
                continue
            for lineno, message in rule.check(module):
                if rule.name in suppressed_rules(module.line(lineno)):
                    report.suppressed += 1
                    continue
                report.findings.append(
                    Finding(
                        rule=rule.name,
                        severity=rule.severity,
                        path=rel,
                        line=lineno,
                        message=message,
                    )
                )

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report
