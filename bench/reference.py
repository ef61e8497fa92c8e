"""A fixed numpy/scipy computation that tracks the machine's speed during a run.

The benchmark's host is a shared VM whose speed drifts: the same computation
timed over 30 s windows varies by about 20% (quartile spread over median)
from one window to the next, and the variation is common to small-array and
long-array work (their window means correlate at 0.94-0.96). Timing this
chunk between the steps of a run and dividing by it removes most of that
drift: the ratio of the two varied by 5% over the same windows. Over ten
seeds of 30 s runs, scaling cut the spread of the step time from 0.10-0.17
to 0.02-0.04 (README.md).

The chunk mixes the kinds of work the package does per step: short-array
numpy calls, whose cost is per-call overhead, DCTs and element-wise algebra
on long arrays, and a 3D real FFT. It does not call gspm2, so a change to the
package moves the run's times and not the chunk's.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# mean chunk time on the reference machine (the 2-vCPU x86-64 VM of
# README.md); times are reported as if the run had gone at that speed
NOMINAL_S = 0.012


class Reference:
    """Times `chunk()` calls; `scale()` converts this run's times to the
    reference machine's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.short = rng.standard_normal((3, 40))
        self.long = rng.standard_normal((3, 10_000))
        self.box = rng.standard_normal((3, 64, 64, 6))
        self.parts = {"short": self._short, "long": self._long, "box": self._box}
        self.times = {name: [] for name in self.parts}

    def _short(self):
        a, b = self.short, self.short[::-1]
        for _ in range(60):
            c = np.cross(a, b, axis=0)
            d = scipy.fft.idct(scipy.fft.dct(c, type=2, norm="ortho", axis=1),
                               type=2, norm="ortho", axis=1)
            a = d / np.sqrt((d * d).sum(axis=0))

    def _long(self):
        u = self.long
        for _ in range(3):
            v = scipy.fft.dct(u, type=2, norm="ortho", axis=1)
            u = scipy.fft.idct(v / (1.0 + np.arange(v.shape[1])), type=2,
                               norm="ortho", axis=1) + u
            u = u / np.sqrt((u * u).sum(axis=0))

    def _box(self):
        scipy.fft.irfftn(scipy.fft.rfftn(self.box, axes=(1, 2, 3)),
                         s=self.box.shape[1:], axes=(1, 2, 3))

    def chunk(self):
        for name, part in self.parts.items():
            start = time.perf_counter()
            part()
            self.times[name].append(time.perf_counter() - start)

    @property
    def chunks(self):
        return len(self.times["short"])

    def mean_s(self):
        """Mean chunk time of this run."""
        return sum(sum(t) for t in self.times.values()) / self.chunks

    def scale(self):
        """NOMINAL_S over the mean chunk time of this run."""
        return NOMINAL_S / self.mean_s()
