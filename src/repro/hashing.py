"""Canonical JSON encoding and content hashing shared across spec layers.

Every declarative spec in the reproduction -- jobs, scenarios, hardware
descriptions -- keys caches and registries on the SHA-256 hash of its canonical
JSON encoding.  The helpers live in this dependency-free module so that both
:mod:`repro.runtime.jobs` (which hashes jobs) and :mod:`repro.hw` (which jobs
themselves depend on) can share one definition without an import cycle.

A member whose canonical JSON text is already at hand may be passed as
:class:`Encoded` at the top level of a document.  :func:`canonical_json`
splices that text in at the member's sorted position: it encodes the members
before and after it and joins the pieces.  The result is the text the plain
encoder would give for the decoded member, so a job hash that splices its
platform's cached text moves no byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List


class Encoded:
    """A document member given as its canonical JSON text, spliced in verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


#: Built once: ``json.dumps`` with arguments builds an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _splice(data: Dict[str, Any]) -> str:
    """``data`` encoded member by member in sorted key order: each run of
    plain members is encoded as one dict, each :class:`Encoded` member is
    its key and its text."""
    parts: List[str] = []
    plain: Dict[str, Any] = {}
    for key in sorted(data):
        value = data[key]
        if isinstance(value, Encoded):
            if plain:
                parts.append(_canonical(plain)[1:-1])
                plain = {}
            parts.append(_canonical(key) + ":" + value.text)
        else:
            plain[key] = value
    if plain:
        parts.append(_canonical(plain)[1:-1])
    return "{" + ",".join(parts) + "}"


def canonical_json(data: Any) -> str:
    """The canonical JSON encoding used for hashing (sorted keys, no spaces)."""
    if isinstance(data, dict) and any(
        isinstance(value, Encoded) for value in data.values()
    ):
        return _splice(data)
    return _canonical(data)


def content_hash(data: Any) -> str:
    """SHA-256 content hash (hex) of ``data``'s canonical JSON encoding."""
    digest = hashlib.sha256(canonical_json(data).encode("utf-8"))
    return digest.hexdigest()
