"""The CLI-facing logging layer: a stream-disciplined :class:`Console`.

The repo's output contract (PR 3) distinguishes three kinds of text:

* **primary output** -- the report/JSON/CSV the user asked for.  Always
  stdout, never filtered, never decorated.  (:meth:`Console.out`)
* **decorations** -- headers, progress, runtime summaries.  stdout in normal
  runs, stderr when a machine format owns stdout (``--json``/``--csv``).
  Filtered by ``--log-level``.  (:meth:`Console.info` / :meth:`Console.debug`)
* **diagnostics** -- warnings and errors.  Always stderr.
  (:meth:`Console.warning` / :meth:`Console.error`)

Streams are resolved lazily (``sys.stdout``/``sys.stderr`` at call time, not
construction time) so pytest's ``capsys`` redirection keeps working.  Every
log call is also mirrored as a ``{"type": "log"}`` event to the active obs
sinks, which puts CLI messages on the same timeline as spans and engine
segments in a recorded trace.

This module is the one place in ``src/repro`` allowed to write to stdout --
the ``console`` lint rule rejects bare ``print()`` anywhere else.
"""

from __future__ import annotations

import sys
from typing import Any, Optional, TextIO

from repro.obs import state

__all__ = ["Console"]


class Console:
    """Writes user-facing text with the stream discipline described above.

    ``info_stream`` picks where decorations go (default: stdout); pass
    ``sys.stderr`` when a machine format owns stdout.  ``out_stream``
    overrides the primary-output stream (tests, file capture).
    """

    def __init__(
        self,
        out_stream: Optional[TextIO] = None,
        info_stream: Optional[TextIO] = None,
    ) -> None:
        self._out_stream = out_stream
        self._info_stream = info_stream

    # ------------------------------------------------------------------
    # Stream resolution (lazy, so capsys/redirection work)
    # ------------------------------------------------------------------
    def _out(self) -> TextIO:
        return self._out_stream if self._out_stream is not None else sys.stdout

    def _info(self) -> TextIO:
        if self._info_stream is not None:
            return self._info_stream
        return self._out_stream if self._out_stream is not None else sys.stdout

    @staticmethod
    def _write(stream: TextIO, text: str) -> None:
        stream.write(text)
        stream.flush()

    def _log(self, level: str, message: str, stream: TextIO) -> None:
        if state.level_enabled(level):
            self._write(stream, message + "\n")
        if state.enabled():
            state.emit({"type": "log", "level": level, "message": message})

    # ------------------------------------------------------------------
    # Primary output
    # ------------------------------------------------------------------
    def out(self, message: Any = "") -> None:
        """Primary output: one line to stdout, never filtered."""
        self._write(self._out(), f"{message}\n")

    def write(self, text: str) -> None:
        """Primary output without an implied newline (progress lines)."""
        self._write(self._out(), text)

    # ------------------------------------------------------------------
    # Decorations and diagnostics
    # ------------------------------------------------------------------
    def debug(self, message: Any) -> None:
        self._log("debug", str(message), self._info())

    def info(self, message: Any = "") -> None:
        self._log("info", str(message), self._info())

    def warning(self, message: Any) -> None:
        self._log("warning", str(message), sys.stderr)

    def error(self, message: Any) -> None:
        self._log("error", str(message), sys.stderr)
