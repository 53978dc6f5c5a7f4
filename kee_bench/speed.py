"""Host-speed calibration for the in-process op times.

On a shared host the same op can take 1.5x longer for minutes at a time
when neighbours load the machine; both CPUs slow down together, so longer
runs do not average it away.  Right before each in-process op the benchmark
times a fixed pure-Python kernel that does the same kinds of work as the
package (float and complex math, small objects, calls, containers), and
reports the op at reference speed,

    time_at_reference = time_measured * REFERENCE_MS / kernel_ms,

i.e. in milliseconds of a host on which the kernel takes REFERENCE_MS, its
time on an idle 2-CPU x86-64 host.  The kernel does not touch the package,
so a change to the package moves reported and measured times alike; the
measured times are kept in the run report.

Set-up and cold-process ops keep their measured times: they are mostly
interpreter start-up and imports, which slowed down 1.16x in a slow spell
in which the kernel slowed down 1.65x, so scaling them would over-correct.
"""

from __future__ import annotations

import cmath
import math
import time

REFERENCE_MS = 2.0
REPEATS = 2


class _Point:
    __slots__ = ("z", "w")

    def __init__(self, z: complex, w: complex):
        self.z = z
        self.w = w


def _density(p: _Point, s: float) -> float:
    az = 1.0 + abs(p.z) ** 2
    return (s * az + abs(p.w) ** 2) / (az * az)


def _kernel() -> float:
    acc = 0.0
    window = []
    for i in range(1, 2000):
        p = _Point(cmath.rect(0.5 + i * 1e-4, 0.15 * i), complex(math.cos(i), math.sin(i)))
        acc += _density(p, math.log1p(i))
        window.append((i, acc))
        if len(window) > 64:
            window.clear()
    return acc


def kernel_ms() -> float:
    """Fastest of REPEATS timings of the kernel, in ms (the minimum drops
    an interrupt that lands in one repeat)."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def factor() -> float:
    """Multiplier that takes a time measured now to reference speed."""
    return REFERENCE_MS / kernel_ms()
