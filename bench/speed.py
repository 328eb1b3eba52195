"""The host's speed, sampled while the program runs.

A shared cloud host changes speed by half or more for seconds to minutes at
a time, in CPU time as much as in wall time. The program's wall times
follow that speed, so runs of the same code a few minutes apart can
differ by more than a regression worth catching. The sampler times a fixed
reference kernel, of pure interpreter work like the program's own, every
``PERIOD_S`` seconds from a ``SIGALRM`` handler, and once before and after
each timed call. A call's wall time, less the kernel's, scaled by
``REFERENCE_S / median sample`` is the time it would have taken on a host
that runs the kernel in exactly ``REFERENCE_S`` seconds: a change to the
program moves it, a change in the host's speed much less.

Run as a script, it times a fresh interpreter's import of ``pufr.cli`` the
same way and prints the wall and reference seconds and the module's path.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import sys
import time
from operator import itemgetter

PERIOD_S = 0.05
# A round figure near the kernel's median time inside the benchmark's runs on
# a 2-vCPU Xeon cloud host in its slower spells, so that reference times there
# read about as wall times do.
REFERENCE_S = 0.001

_KEYS = tuple(f"d{i:05d}" for i in range(2000))


def _median(values: list[float]) -> float:
    # statistics is not imported: the import timing must not preload its modules
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def reference_kernel() -> str:
    """Fixed interpreter work: a loop of float arithmetic and string-keyed
    dict stores, then a sort by value."""
    table = {}
    total = 0.0
    for i, key in enumerate(_KEYS):
        total += (i % 7) * 0.5
        table[key] = total / (i + 1)
    return sorted(table.items(), key=itemgetter(1))[0][0]


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each kernel run
        self._depth = 0

    def sample(self) -> None:
        # the program's heap must not be collected inside the kernel's timing
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S seconds until the block ends; nests."""
        if self._depth:
            self._depth += 1
            try:
                yield self
            finally:
                self._depth -= 1
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._depth = 1
        try:
            yield self
        finally:
            self._depth = 0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Call ``fn()``; returns its value, its wall seconds less the
        kernel's and those seconds scaled to the reference speed."""
        self.sample()
        first = len(self.samples) - 1
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        self.sample()
        window = self.samples[first:]
        inside = sum(s for t, s in window if start <= t < end)
        wall = end - start - inside
        return value, wall, wall * REFERENCE_S / _median([s for _, s in window])


def _time_import() -> None:
    sampler = SpeedSampler()
    with sampler.running():
        module, wall, reference = sampler.timed(lambda: __import__("pufr.cli").cli)
    print(wall)
    print(reference)
    print(module.__file__)


if __name__ == "__main__":
    sys.exit(_time_import())
