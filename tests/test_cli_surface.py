"""The ``repro`` command-line surface is pinned, and both entry points share it.

``tests/fixtures/cli_surface.json`` records the argparse tree: for every
subcommand path, each argument's option strings, dest, default, type, nargs,
choices, required flag and metavar.  Help prose is left out, so rewording a
help line never fails here, while a lost flag, a renamed dest or a moved
default does.  Three defaults read the environment (``REPRO_CACHE_DIR``,
``REPRO_FLEET_DIR``, ``REPRO_FLEET_FAULTS``); both the recording and the test
clear them first.

A deliberate surface change rewrites the fixture with::

    PYTHONPATH=src python tests/test_cli_surface.py --write
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "fixtures" / "cli_surface.json"
ENVIRONMENT_DEFAULTS = ("REPRO_CACHE_DIR", "REPRO_FLEET_DIR", "REPRO_FLEET_FAULTS")


def _plain(value: Any) -> Any:
    """A JSON-safe rendering of an argparse default or choice."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, os.PathLike):
        return f"<path> {os.fspath(value)}"
    return f"<{type(value).__name__}> {value!r}"


def _argument(action: argparse.Action) -> Dict[str, Any]:
    return {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _plain(action.default),
        "type": getattr(action.type, "__name__", None),
        "nargs": action.nargs,
        "choices": (
            None if action.choices is None else [_plain(c) for c in action.choices]
        ),
        "required": action.required,
        "metavar": action.metavar,
    }


def parser_surface(parser: argparse.ArgumentParser) -> Dict[str, List[Dict[str, Any]]]:
    """Every subcommand path of ``parser`` mapped to its argument records."""
    surface: Dict[str, List[Dict[str, Any]]] = {}

    def walk(path: str, node: argparse.ArgumentParser) -> None:
        surface[path] = [_argument(action) for action in node._actions]
        for action in node._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(f"{path} {name}".strip(), child)

    walk("", parser)
    return surface


def test_parser_matches_the_recorded_surface(monkeypatch):
    for name in ENVIRONMENT_DEFAULTS:
        monkeypatch.delenv(name, raising=False)
    from repro.cli import build_parser

    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    current = parser_surface(build_parser())
    assert sorted(current) == sorted(recorded), "subcommand paths changed"
    for path, arguments in recorded.items():
        assert current[path] == arguments, f"arguments of {path or 'repro'!r} changed"


def test_console_script_and_python_m_share_one_main():
    """setup.py's ``repro`` script and ``python -m repro`` run the same ``main``."""
    tree = ast.parse((REPO / "setup.py").read_text(encoding="utf-8"))
    scripts = [
        entry
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "console_scripts"
        for entry in ast.literal_eval(value)
    ]
    assert len(scripts) == 1, scripts
    name, _, target = (part.strip() for part in scripts[0].partition("="))
    assert name == "repro"
    module_name, _, attribute = target.partition(":")
    script_main = getattr(importlib.import_module(module_name), attribute)

    import repro.__main__ as python_m

    assert script_main is python_m.main


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_surface.py --write")
    for name in ENVIRONMENT_DEFAULTS:
        os.environ.pop(name, None)
    from repro.cli import build_parser

    FIXTURE.write_text(
        json.dumps(parser_surface(build_parser()), indent=1) + "\n", encoding="utf-8"
    )
