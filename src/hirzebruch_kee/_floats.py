"""Float sequences and reductions in pure Python.

`linspace` and `geomspace` follow numpy's formulas step for step, so
`linspace` matches `numpy.linspace` bit for bit (numpy rescales a step that
underflows to 0, which no caller here can produce) and `geomspace` keeps
its exact end points; its interior points may differ from numpy's in the
last ulp, because libm's `log10` and `pow` may round differently.
"""

from __future__ import annotations

import math


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop, both included if num > 1."""
    start, stop = float(start), float(stop)
    if num < 2:
        return [start] * num
    step = (stop - start) / (num - 1)
    out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


def geomspace(start: float, stop: float, num: int) -> list[float]:
    """num floats from start to stop (both > 0), evenly spaced in log."""
    out = [10.0 ** e for e in linspace(math.log10(start), math.log10(stop), num)]
    if num > 0:
        out[0] = float(start)
    if num > 1:
        out[-1] = float(stop)
    return out


def max_keep_nan(values) -> float:
    """Largest of the values, or NaN if any is NaN (max() would drop it).

    An empty input raises ValueError: a maximum of nothing would otherwise
    have to be -inf, which passes every threshold."""
    values = list(values)
    if not values:
        raise ValueError("max_keep_nan of an empty sequence")
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)
