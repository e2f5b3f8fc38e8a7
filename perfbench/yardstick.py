"""A fixed CPU kernel that tells how fast this machine runs right now.

On a shared host, other tenants' load changes the CPU time that a fixed piece
of work takes by tens of percent from one minute to the next, in CPU time as
well as in wall time.  The benchmark times this kernel between calls and
scales each call's CPU time by ``NOMINAL_MS`` over the kernel's time around
it, which cancels most of that drift.  The kernel mixes what reachbound
spends its time on: small numpy operations driven from a Python loop, plain
Python arithmetic, and element-wise passes over a few megabytes.  It depends
on numpy only, so a change to reachbound cannot move it.
"""

from time import process_time

import numpy as np

NOMINAL_MS = 1.5  # reported times are CPU ms at the speed where the kernel takes this long
REPEATS = 3

_SMALL = np.random.default_rng(0).random((6, 6))
_LARGE = np.random.default_rng(1).random(300_000)
_OUT = np.empty_like(_LARGE)


def _kernel() -> None:
    x = np.ones(6)
    for _ in range(50):
        x = np.tanh(_SMALL @ x + 0.1)
        np.hstack([_SMALL, np.diag(np.abs(_SMALL).sum(axis=1))])
    total = 0
    for i in range(700):
        total += i * i
    np.multiply(np.tanh(_LARGE, out=_OUT), _LARGE, out=_OUT)


def kernel_ms() -> float:
    """Fastest of ``REPEATS`` back-to-back kernel runs, in CPU ms: a run that
    an interrupt lands in says nothing about the machine's speed."""
    best = float("inf")
    for _ in range(REPEATS):
        started = process_time()
        _kernel()
        best = min(best, process_time() - started)
    return best * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns CPU ms measured between two kernel runs into reported ms."""
    return 2.0 * NOMINAL_MS / (before_ms + after_ms)
