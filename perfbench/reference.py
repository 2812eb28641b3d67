"""A fixed reference load that measures how fast the host runs right now.

The shared host this benchmark was written on changes speed by 20-35% over
minutes: a fixed 30-ms Python loop takes 19-51 ms, in CPU time as well as in
wall time, with no load inside the VM to explain it.  A pass time taken alone
then moves by more than any regression bound between two runs of the same
code.  The worker therefore times this reference right after set-up and right
after its pass, and run.py reports set-up and pass times rescaled to the
speed at which the reference takes ``NOMINAL_S`` seconds.  The reference
uses numpy and the interpreter only, never critsys, so no change to critsys
can move it.
"""
from __future__ import annotations

import time

import numpy as np

# Median of reference_s() on the 2-vCPU Xeon VM the benchmark was
# written on; reported times are in seconds at that speed.
NOMINAL_S = 0.13
ROUNDS = 6

_SMALL = np.linspace(0.0, 1.0, 64)
_BIG = np.linspace(0.0, 1.0, 1 << 20)


def reference_s() -> float:
    """Seconds one reference load takes: interpreter loops, small-array numpy
    calls and memory-streaming numpy, in equal parts, interleaved."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        s = 0
        for i in range(40_000):
            s += i * i % 7
        y = _SMALL
        for _ in range(2000):
            y = np.sqrt(y * y + 1e-3) - 1e-3
        for _ in range(5):
            s += float((_BIG * 1.0001 + 0.5).sum())
    return time.perf_counter() - start
