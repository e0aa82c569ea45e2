"""How fast the machine runs right now, from a fixed reference kernel.

The benchmark box is a shared 2-vCPU VM whose speed drifts: the same
pass ran 13% apart in two runs a minute apart.  A run calls
`reference_kernel` before every timed operation and scales each pass by
REFERENCE_S / median(the pass's samples), so a slow spell of the host
slows the kernel and the workload alike and cancels.  Scaled times read
as seconds on the box at the speed where the kernel takes REFERENCE_S.
"""
import statistics
import time

import numpy as np

#: typical time of one reference_kernel call on the reference box
REFERENCE_S = 0.08

_DATA = np.random.default_rng(0).random(1_000_000)


def reference_kernel():
    """Fixed interpreter and numpy work, like the workloads' mix; seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    for _ in range(10):
        np.sort(_DATA[::3])
        np.exp(_DATA) * _DATA
    return time.perf_counter() - t0


def scaled(seconds, samples):
    """`seconds` at the reference speed, given the samples taken alongside."""
    return seconds * REFERENCE_S / statistics.median(samples)
