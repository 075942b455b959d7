"""Host speed, sampled during the timed jobs, to rescale their times.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job list on the same seed has taken 4.6 s and 6.5 s within minutes,
with CPU time moving as much as wall time.  A `SpeedProbe` samples that
speed while the jobs run.  Every `INTERVAL_S` of job time a timer signal
runs each of two fixed chunks of work twice and records how long the second
run took; the first brings the chunk's data back into the caches, so the
sample does not depend on what the job left there.  The jobs' clock
(`clock()`) stops while the chunks run, so the probe's own time is in no
job's wall time and in no layer's span.

There are two chunks, because the host's slow periods slow interpreted code
and streaming numpy kernels by different amounts: the ratio of the two
speeds below has ranged from 1.04 to 1.63 within minutes.  "python"
interprets a loop of big-integer and dict operations, like the exact and
classification paths.  "numpy" streams shifted-slice updates over a 1 MB
float64 array without allocating, like the scaled transfer kernel.

The host's speed for a chunk is the mean of REFERENCE_S / chunk time over
the samples; samples are spread evenly over job time, so this is a
time-weighted mean.  `rescale` turns a measured time into the time it would
have taken with the host at the reference speed, given the share of the
work that slows like the python chunk (the rest slows like the numpy one).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
KINDS = ("python", "numpy")

_PRIME = 2 ** 127 - 1
_PY_ITERS = 6000
_NP_SIDE = 360
_NP_ITERS = 3


def _make_python_chunk():
    def chunk() -> int:
        table = {}
        x = 1
        for i in range(_PY_ITERS):
            x = x * 1_000_003 % _PRIME
            table[i & 1023] = x
        return len(table)
    return chunk


def _make_numpy_chunk():
    """Allocation-free, so the chunk's time does not depend on the allocator's state."""
    base = np.random.default_rng(0).random((_NP_SIDE, _NP_SIDE)) + 0.5
    cur, new, tmp = (np.empty_like(base) for _ in range(3))

    def chunk() -> float:
        np.copyto(cur, base)
        for _ in range(_NP_ITERS):
            new.fill(0.0)
            np.multiply(cur[:-1, :], 0.5, out=tmp[:-1, :])
            new[1:, :] += tmp[:-1, :]
            np.multiply(cur[1:, :-1], 0.5, out=tmp[1:, :-1])
            new[:-1, 1:] += tmp[1:, :-1]
            np.multiply(new, 1.0 / float(new.max()), out=cur)
        return float(cur[0, 0])
    return chunk


# Round figures near the chunk times seen on the machine described in
# bench/README.md.  They only fix the unit of the rescaled time: any constant
# would give the same ratios between two commits measured at one host speed.
REFERENCE_S = {"python": 2.0e-3, "numpy": 2.0e-3}


def rescale(seconds: float, speeds: dict, python_share: float) -> float:
    """`seconds` at the reference speed, when `python_share` of the work slows
    like the python chunk and the rest like the numpy chunk."""
    return seconds / (python_share / speeds["python"]
                      + (1 - python_share) / speeds["numpy"])


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.spent = 0.0  # time inside the handler, excluded from clock()
        self._chunks = {"python": _make_python_chunk(), "numpy": _make_numpy_chunk()}
        self._remaining = interval
        self._previous_handler = None

    def clock(self) -> float:
        """perf_counter() with the time of every probe chunk taken out."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        for kind, chunk in self._chunks.items():
            chunk()  # untimed: brings the chunk's data back into the caches
            start = time.perf_counter()
            chunk()
            self.samples[kind].append(time.perf_counter() - start)
        self.spent += time.perf_counter() - entered

    def install(self) -> None:
        for chunk in self._chunks.values():
            chunk()  # first call outside the timer: allocations, caches
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)

    def uninstall(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def resume(self) -> None:
        """Start sampling; the first sample comes when the paused interval ends."""
        signal.setitimer(signal.ITIMER_REAL, self._remaining, self.interval)

    def pause(self) -> None:
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._remaining = remaining if remaining > 0 else self.interval

    def speeds(self) -> dict[str, float]:
        """Mean host speed per chunk relative to the reference (1.0 without samples)."""
        return {kind: statistics.fmean(REFERENCE_S[kind] / c for c in taken)
                if taken else 1.0 for kind, taken in self.samples.items()}
