"""Canonical JSON encoding and content hashing shared across spec layers.

Every declarative spec in the reproduction -- jobs, scenarios, hardware
descriptions -- keys caches and registries on the SHA-256 hash of its canonical
JSON encoding.  The helpers live in this dependency-free module so that both
:mod:`repro.runtime.jobs` (which hashes jobs) and :mod:`repro.hw` (which jobs
themselves depend on) can share one definition without an import cycle.

A member whose JSON text is already at hand may be passed as :class:`Encoded`
at the top level of a document.  Both encoders here splice that text in at
the member's position: they encode the members before and after it, in the
encoder's own key order (sorted for :func:`canonical_json`, insertion order
for :func:`dumps`), and join the pieces.  The result is the text the plain
encoder would give for the decoded member, so a job hash or cache entry that
splices its platform's cached text moves no byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterable, List


class Encoded:
    """A document member given as its JSON text, spliced in verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _splice(
    data: Dict[str, Any],
    keys: Iterable[str],
    encode: Callable[[Any], str],
    item_separator: str,
    key_separator: str,
) -> str:
    """``data`` encoded member by member in ``keys`` order: each run of plain
    members goes through ``encode`` as one dict, each :class:`Encoded` member
    is its key and its text."""
    parts: List[str] = []
    plain: Dict[str, Any] = {}
    for key in keys:
        value = data[key]
        if isinstance(value, Encoded):
            if plain:
                parts.append(encode(plain)[1:-1])
                plain = {}
            parts.append(encode(key) + key_separator + value.text)
        else:
            plain[key] = value
    if plain:
        parts.append(encode(plain)[1:-1])
    return "{" + item_separator.join(parts) + "}"


def _has_encoded(data: Any) -> bool:
    return isinstance(data, dict) and any(
        isinstance(value, Encoded) for value in data.values()
    )


#: Built once: ``json.dumps`` with arguments builds an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(data: Any) -> str:
    """The canonical JSON encoding used for hashing (sorted keys, no spaces)."""
    if _has_encoded(data):
        return _splice(data, sorted(data), _canonical, ",", ":")
    return _canonical(data)


def dumps(data: Any) -> str:
    """``json.dumps(data)``, with top-level :class:`Encoded` members spliced."""
    if _has_encoded(data):
        return _splice(data, data, json.dumps, ", ", ": ")
    return json.dumps(data)


def content_hash(data: Any) -> str:
    """SHA-256 content hash (hex) of ``data``'s canonical JSON encoding."""
    digest = hashlib.sha256(canonical_json(data).encode("utf-8"))
    return digest.hexdigest()
