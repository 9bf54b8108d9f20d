"""A machine-speed yardstick for the time metrics.

The shared host this benchmark runs on changes speed by up to 2x within a
minute, with no steal time and with CPU time tracking wall time, so no
choice of run length or median removes it from a wall-clock figure. The
yardstick is three fixed loops that use no hologen code: pure Python, many
small numpy calls (the shape of an ODE step), and larger numpy array
passes (the shape of a shell grid). `reading()` times them and returns
their geometric-mean time relative to `REFERENCE_S`: 1.0 at the reference
speed, 2.0 on a machine running twice as slow. A hologen call's wall time
divided by the mean of the readings taken just before and just after it
is its time at the reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# rounded medians of each loop on the machine described in README.md; they
# only set the scale, so they stay fixed for comparisons between commits
REFERENCE_S = {"python": 0.007, "numpy_small": 0.010, "numpy_large": 0.012}

_SMALL = np.linspace(0.0, 1.0, 4) + 0j
_LARGE = np.random.default_rng(0).standard_normal((400, 64)) + 0j


def _python() -> int:
    table, s = {}, 0
    for i in range(60000):
        s += (i * i) % 7
        table[i & 255] = s
    return s


def _numpy_small() -> float:
    y, top = _SMALL, 0.0
    for _ in range(2500):
        y = 0.5 * y + 0.25 * _SMALL
        top = float(np.abs(y).max())
    return top


def _numpy_large() -> float:
    s = 0.0
    for _ in range(12):
        s += float(np.abs(np.exp(1j * _LARGE.real) * _LARGE).sum())
    return s


LOOPS = {"python": _python, "numpy_small": _numpy_small, "numpy_large": _numpy_large}


def loop_seconds() -> dict:
    """Wall time of one pass of each loop."""
    out = {}
    for name, loop in LOOPS.items():
        t0 = time.perf_counter()
        loop()
        out[name] = time.perf_counter() - t0
    return out


def reading() -> float:
    """How slow the machine runs now, relative to the reference speed."""
    times = loop_seconds()
    return math.exp(sum(math.log(times[n] / REFERENCE_S[n]) for n in LOOPS) / len(LOOPS))


def scaled(seconds: list, readings: list) -> list:
    """Times at the reference speed. `readings[k]` was taken just before
    the call that took `seconds[k]`, and `readings[k + 1]` just after it."""
    return [dt / math.sqrt(readings[k] * readings[k + 1]) for k, dt in enumerate(seconds)]
