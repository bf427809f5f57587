"""A fixed reference pass, timed next to the items to gauge host speed.

On a shared host the work one CPU second does drifts by tens of percent
within a minute (README.md, "Why scaled CPU time").  So a run also times
this pass, which is the same on every commit and never calls beepvote,
between its items, and each item's CPU time is scaled to a host on which
one pass takes NOMINAL_S CPU seconds:

    scaled time = item CPU time * NOMINAL_S / median nearby sample

where the nearby samples are those taken from WINDOW_S before the item
starts to WINDOW_S after it ends.  A change to the library moves the item
times but not the pass, so it moves the scaled figures by the same share as
the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.005  # about one pass on the 2-vCPU VM the benchmark was tuned on
INTERVAL_S = 0.25  # wall seconds between samples while items run
WINDOW_S = 1.0  # samples this close to an item, in wall seconds, scale it
REPEATS = 3  # a sample is the fastest of this many passes in a row
SETUP_SAMPLES = 3  # samples after set-up, each process, after one warm-up pass

cpu = time.process_time
clock = time.perf_counter

_rng = np.random.default_rng(20191022)
_ADJ = _rng.random((512, 512), dtype=np.float32) < 0.05
_BEEPS = _rng.random(512) < 0.3
_X = _rng.random(64)
# random bits without a float temporary, which would raise peak_rss_mb
_BIG = np.unpackbits(_rng.integers(0, 256, (2000, 250), dtype=np.uint8), axis=1).view(bool)
_FEW = np.zeros(2000, dtype=bool)
_FEW[:4] = True


def reference_pass() -> int:
    """The fixed work whose CPU time is the unit of host speed: a short
    dict loop, small bool matrix-vector products called from Python, and
    products of a 2000-node bool matrix with four beepers, the shape of a
    channel slot on dvb1_complete."""
    table: dict = {}
    acc = 0
    for i in range(5000):
        k = i & 255
        table[k] = table.get(k, 0) + i
        acc += len(table) ^ i
    for _ in range(40):
        acc += int((_ADJ @ _BEEPS).sum())
        acc += int(np.argmax(_X * 2.0 + 1.0))
    for _ in range(2):
        acc += int((_BIG @ _FEW).sum())
    return acc


def sample() -> float:
    """CPU seconds of the fastest of REPEATS passes.  The first pass after
    an item runs on caches the item has just filled; the fastest one
    measures the core, not what the item left behind."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = cpu()
        reference_pass()
        best = min(best, cpu() - t0)
    return best


class Gauge:
    """Reference samples taken between items, at most one per INTERVAL_S,
    and the wall-time span of each item."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self._next = 0.0

    def _take(self) -> None:
        now = clock()
        self.times.append(now)
        self.samples.append(sample())
        self._next = now + INTERVAL_S

    def tick(self) -> None:
        """Call before each item."""
        if clock() >= self._next:
            self._take()

    def scales(self) -> list[float]:
        """Per item, the factor that turns its CPU seconds into
        nominal-host seconds.  A tick precedes every item, so each window
        holds at least one sample."""
        self._take()
        out = []
        for start, end in self.spans:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            out.append(NOMINAL_S / statistics.median(self.samples[lo:hi]))
        return out


def setup_scale() -> float:
    """The scale right after a process's set-up: one warm-up pass, then the
    median of SETUP_SAMPLES samples."""
    reference_pass()
    return NOMINAL_S / statistics.median(sample() for _ in range(SETUP_SAMPLES))
