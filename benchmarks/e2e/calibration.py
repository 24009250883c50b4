"""Host-speed calibration: a fixed kernel timed between the ops.

The benchmark's host is a shared 2-core VM whose speed moves in plateaus: for
30-100 s at a time *everything* runs 1.3x, sometimes 3x, slower, in CPU time as
much as in wall-clock time, so no statistic of one run's raw op times is
steady across runs.  A fixed kernel of the program's kind of work (keyed
BLAKE2b of small integers, a bytecode loop, uint64 numpy mixing -- none of it
``repro`` code, so no change to the program moves it) slows down by about the
same factor at the same moment: over a 20-minute trace holding both kinds of
plateau, op time divided by kernel time stayed within 0.97-1.08 of its median
in every 10-second window while the ops' raw fast decile ranged over 0.93-2.9.

So every timing the benchmark gates is multiplied by ``REFERENCE_MS / (mean
of the kernel samples around it)``: it reads as milliseconds on a quiet
reference host.  The raw numbers are printed beside it as ``host.*``
diagnostics.
"""

from __future__ import annotations

import bisect
import hashlib
import time

import numpy

#: The kernel's mean sample on the quiet reference host, in ms.  A fixed
#: constant: it only sets the unit, any error in it cancels between runs.
REFERENCE_MS = 0.5
#: Minimum spacing of kernel samples inside an op loop, in seconds.
SAMPLE_EVERY_S = 0.010

_ARRAY = numpy.arange(4096, dtype=numpy.uint64)
_MULTIPLIER = numpy.uint64(0x9E3779B97F4A7C15)
_SHIFT = numpy.uint64(29)


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def kernel() -> int:
    """About half a millisecond of hashing, bytecode and numpy work."""
    folded = 0
    for value in range(300):
        digest = hashlib.blake2b(value.to_bytes(8, "big"), digest_size=8).digest()
        folded ^= int.from_bytes(digest, "big")
    state = 0
    for value in range(2000):
        state = (state * 31 + value) & 0xFFFFFFFF
    mixed = _ARRAY
    for _ in range(10):
        mixed = (mixed * _MULTIPLIER) ^ (mixed >> _SHIFT)
    return folded ^ state ^ int(mixed[0])


class Calibrator:
    """Timestamped kernel samples of one phase of a run."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples_ms: list[float] = []

    def sample(self) -> None:
        """Time the kernel twice, keep the faster: the first execution runs on
        caches the op just used, which says more about the op than the host."""
        start = time.perf_counter()
        kernel()
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples_ms.append(min(middle - start, end - middle) * 1e3)

    def tick(self) -> None:
        """Sample if the last sample is at least ``SAMPLE_EVERY_S`` old."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def kernel_ms_p10(self) -> float:
        return percentile(self.samples_ms, 0.1)

    @property
    def scale(self) -> float:
        """Multiply a raw time of this phase by this to read it on the
        reference host."""
        return REFERENCE_MS * len(self.samples_ms) / sum(self.samples_ms)

    def scale_near(self, moment: float) -> float:
        """The same from the two samples just before and after ``moment``."""
        after = bisect.bisect_left(self.stamps, moment)
        nearest = self.samples_ms[max(0, after - 1) : after + 1]
        return REFERENCE_MS * len(nearest) / sum(nearest)
