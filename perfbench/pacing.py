"""Host-speed calibration, so pass times can be scaled to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of per cent for seconds to minutes at a time (the sibling hyperthreads, the
caches and the memory bus are shared).  Process CPU time drifts with wall
time, so it is no way out.  Instead the workload process interleaves short,
fixed calibration slices with its calls: a pure-Python loop (the fastest of
three tries counts) and a numpy kernel shaped like half a Monte Carlo chunk
of 65536 samples of four copies (uniform draws, ndtri, complex exponentials,
a mean over copies; the median of three tries counts).  A slice time divided
by its reference time is the host slowness; each workload uses the slice
most like its own work.

The host switches between a fast and a slow state within a second, so one
sample says little.  The mean pass time of a run divided by the mean
slowness of the run is the time a pass would have taken at the reference
speed.  The slices never call the library, so a change to the program moves
a scaled time by the same share as the raw time.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.special import ndtri

# Slice times on an Intel Xeon (2 cores of a shared host) when it ran fast.
# They only fix the unit of the scaled times; another host changes the
# scaled times by a constant factor.
REF_S = {"python": 3.6e-3, "numpy": 40e-3}
INTERVAL_S = 0.3  # workload time between two calibrations, at least
TRIES = 3


def _python_slice() -> float:
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(30000):
        x = i * 0.5
        acc += math.cos(x) if i & 1 else x
        table[i & 127] = acc
    return perf_counter() - t0


def _numpy_slice() -> float:
    t0 = perf_counter()
    u = np.random.default_rng(7).random((32768, 4, 5))
    d = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16)) * 0.1
    e = np.exp(1j * d)
    s, c = np.sin(d[..., 0]), np.cos(d[..., 0])
    m = (e[..., 1] * s + e[..., 2] * c).mean(axis=1)
    float((m * m.conj()).real.sum())
    return perf_counter() - t0


# name -> (slice, how its tries are reduced).  The short Python slice takes
# the fastest try, so that one preemption does not count as a slow host.
SLICES = {"python": (_python_slice, min), "numpy": (_numpy_slice, statistics.median)}


def slowness(name: str) -> float:
    """Host slowness now, by slice ``name``: 1 at the reference speed, 1.3
    when 30% slower."""
    fn, reduce = SLICES[name]
    return reduce([fn() for _ in range(TRIES)]) / REF_S[name]


class Pacer:
    """Calibrates between two calls once ``INTERVAL_S`` of workload time has
    passed since the last calibration.

    ``samples`` collects the slowness of every calibration of the run, and
    ``calibration_s`` the time they took, which a raw time measured around
    them must leave out.
    """

    def __init__(self, slice_name: str):
        self.slice_name = slice_name
        self.samples: list[float] = []
        self.calibration_s = 0.0
        self._last = -math.inf

    def __call__(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            t0 = perf_counter()
            self.samples.append(slowness(self.slice_name))
            self._last = perf_counter()
            self.calibration_s += self._last - t0
