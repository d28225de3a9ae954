"""The ``python -m repro`` command line (also the ``repro`` console script).

:func:`build_parser` collects each subsystem's ``register(subparsers)``:
:mod:`repro.cli.run` (``list``, ``run``, ``cache``), :mod:`repro.cli.catalog`
(``hw``, ``scenarios``), :mod:`repro.cli.trace` (``trace``),
:mod:`repro.analysis.lint.cli` (``lint``) and :mod:`repro.cli.fleet`
(``serve``, ``submit``, ``fleet``).  Each module owns its parsers and
handlers; :mod:`repro.cli.common` holds what they share.

All user-facing text goes through :class:`repro.obs.logging.Console`, one per
invocation.  Exit codes: 0 success, 1 a failed check (``lint`` findings,
``fleet verify`` mismatch, unhealthy ``fleet doctor``, a ``serve`` loop that
ended ``blocked`` or ``poll-errors``), 2 a usage error
(:class:`CliError`), 141 (:data:`EXIT_BROKEN_PIPE`) when the reader closed
stdout early, as in ``repro list | head -1``; that exit prints nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.cli import catalog, fleet, run, trace
from repro.cli.common import CliError, exporting
from repro.obs import Console

__all__ = ["CliError", "EXIT_BROKEN_PIPE", "build_parser", "main"]

#: Exit code when the reader closed stdout early: 128 + SIGPIPE, what a shell
#: reports for a process that signal ended.
EXIT_BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    # Deferred import: the lint command module imports repro.cli.common, so a
    # top-level import here would close an import cycle through this package.
    from repro.analysis.lint import cli as lint

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SysScale reproduction runner: regenerate the paper's tables, "
            "figures, and sweep campaigns through the parallel, cached runtime."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Registration order is the order ``repro --help`` lists the commands.
    run.register(subparsers)
    catalog.register(subparsers)
    trace.register(subparsers)
    lint.register(subparsers)
    run.register_cache(subparsers)
    fleet.register(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also the ``repro`` console script)."""
    args = build_parser().parse_args(argv)
    # Decorations keep off stdout when it carries a machine-readable document.
    ui = Console(info_stream=sys.stderr if exporting(args) else None)
    try:
        return args.handler(args, ui)
    except CliError as error:
        ui.error(str(error))
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so the
        # interpreter's final flush of what is still buffered is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
