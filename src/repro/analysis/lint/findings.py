"""Findings and inline suppressions.

A :class:`Finding` is one rule violation at one source line.  The one escape
hatch is an inline suppression: ``# reprolint: disable=RULE`` on the
offending line waives that rule there, visibly, in the diff.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = [
    "Finding",
    "suppressed_rules",
]

#: ``# reprolint: disable=rule-a,rule-b`` -- waives the listed rules on the
#: physical line the comment sits on.
_DISABLE_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation: where, what, and how bad."""

    rule: str
    severity: str  # "error" | "warning"
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.severity}: {self.message}"


def suppressed_rules(line: str) -> Tuple[str, ...]:
    """Rules waived by a ``# reprolint: disable=...`` pragma on ``line``."""
    match = _DISABLE_RE.search(line)
    if not match:
        return ()
    return tuple(
        part.strip() for part in match.group(1).split(",") if part.strip()
    )
