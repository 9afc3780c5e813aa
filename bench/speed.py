"""Machine-speed probe: end-to-end times at a fixed reference speed.

The CPU speed of a shared virtual machine can drift by a third or more within
seconds and between runs a minute apart, which swamps any regression bound
on raw wall-clock times. So every timed call is bracketed by a fixed probe,
and a SIGALRM timer runs the probe every ``INTERVAL_S`` while the call is
in progress. The probe is made of the operations the pipeline spends its
time in: tuple-keyed dict updates (union-find), ``Fraction`` arithmetic
(Sturm chains) and indented JSON encoding (records). It is independent of
the program, so a faster program still shows as a shorter time. A call is
reported at the speed where one probe takes ``REFERENCE_S``:

    scaled = (wall - probe time inside the call) * REFERENCE_S / mean probe
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

REFERENCE_S = 1e-3
INTERVAL_S = 0.02
_ROWS = [[i, i / 3, [str(i), i % 5]] for i in range(40)]


def work() -> int:
    parent: dict = {}
    for i in range(150):
        a, b = ("E", i % 37, "L"), ("S", i * 7 % 41, "R")
        while parent.get(a, a) != a:
            a = parent[a]
        while parent.get(b, b) != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    f = Fraction(0)
    for i in range(1, 15):
        f = (f * 3 + Fraction(i, 7)) / 2
    return len(parent) + len(json.dumps(_ROWS, indent=2)) + f.denominator % 2


def probe() -> float:
    """Wall seconds of one probe."""
    t = time.perf_counter()
    work()
    return time.perf_counter() - t


class Sampler:
    """Times calls and scales them by the probe times taken around them."""

    def __init__(self):
        self._count = 0
        self._total = 0.0

    def _on_alarm(self, signum, frame) -> None:
        # The probe's own allocations must not start a collection of the
        # program's garbage inside the handler, where its time is discarded.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._total += probe()
            self._count += 1
        finally:
            if enabled:
                gc.enable()

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, wall and scaled seconds."""
        before = probe()
        count, total = self._count, self._total
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside_n, inside_s = self._count - count, self._total - total
        after = probe()
        speed = (before + after + inside_s) / (2 + inside_n)
        return out, wall, (wall - inside_s) * REFERENCE_S / speed

