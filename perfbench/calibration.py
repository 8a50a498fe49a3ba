"""Reference-speed timing: a fixed pure-Python kernel timed between items.

A 2-vCPU KVM guest on a shared host (Xeon at 2.1 GHz) runs the same
Python code up to 2x slower in phases of 2-30 s, set by other tenants of the
host.  A pass therefore times this kernel every CALIBRATE_EVERY_S of item
work and rescales each item's latency to the speed at which one kernel run
takes REFERENCE_S.  On that machine this cut the variation of 2-second
windows of `roundtrip` and `witness` items about five-fold (coefficient of
variation 0.24 -> 0.05).

The kernel is the benchmark's own code, so a change to burnside cannot
speed it up or slow it down.  It slices, joins and hashes short words like
the word algebra does, but as bytes, which the garbage collector does not
track, so it never triggers a collection in the process it runs in.
"""

import random
import time

REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.05
KERNEL_ROUNDS = 1800  # about 1 ms on the 2.1 GHz Xeon it was tuned on
KERNEL_REPEATS = 2

_rng = random.Random(0)
_WORDS = [bytes(_rng.randrange(4) for _ in range(40)) for _ in range(64)]


def _kernel() -> int:
    acc = 0
    words = _WORDS
    for i in range(KERNEL_ROUNDS):
        w = words[i & 63]
        u = w[3:20] + w[:3]
        acc += len(u) + (u[5] == w[8]) + (hash(u) & 7)
    return acc


def calibrate() -> float:
    """Seconds one kernel run takes now (best of KERNEL_REPEATS)."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(latencies: list[float], samples: list[float], before: list[int]) -> list[float]:
    """Latencies rescaled to reference speed.

    Item i ran between calibration samples before[i] and before[i] + 1; its
    speed is taken as the mean of the two.
    """
    return [
        t * REFERENCE_S * 2 / (samples[j] + samples[j + 1])
        for t, j in zip(latencies, before)
    ]
