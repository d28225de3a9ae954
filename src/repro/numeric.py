"""Float totals that come out bit-identical on every Python interpreter.

Result values are compared bit-for-bit: warm cache against cold, parallel
against serial, and each experiment's full-size output against its SHA-256 pin
in ``perfbench/pins.json``.  The builtin ``sum()`` cannot be part of that:
from Python 3.12 it adds floats with Neumaier compensation, so one list can
total to different last bits on 3.11 and 3.12.  Every float total that can
reach a result uses :func:`ordered_sum` instead.  Integer counts keep the
builtin, since they are exact.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right in plain float arithmetic.

    The bits are those of Python 3.11's builtin ``sum()`` on any interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total
