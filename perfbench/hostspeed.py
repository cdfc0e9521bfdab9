"""Host-speed calibration: a fixed kernel timed next to every measurement.

On a shared virtual machine the CPU speed available to one process can shift
between levels far apart (on a 2-vCPU Xeon VM, up to 2x, over seconds to
minutes), so raw times of the same code spread more across runs than any
regression bound could allow. The benchmark therefore times this kernel
before and after each engine run and reports run times scaled to a reference
host, on which the kernel takes REF_S:

    scaled = (measured - fixed) * REF_S / kernel + fixed

where `kernel` is the mean of the two kernel times around the run and `fixed`
is time the program spends in a fixed sleep (the LLM stub's injected delay),
which does not change with host speed. The kernel is the same kind of work as
the engine's inner loop (small numpy arrays driven from Python), depends on no
lacmas code, and so reads the same for every version of the program. On that
VM it cut the spread of consensus_ref's unit time across 50-second runs from
about 1.8x (max/min) to under 1.1x. Raw times are printed and recorded next
to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.1
_STEPS = 3000


def calibrate() -> float:
    """Seconds the kernel takes now: particle-swarm-like updates of 10x10 arrays."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (10, 10))
    v = np.zeros((10, 10))
    lo, hi = -np.ones(10), np.ones(10)
    start = time.perf_counter()
    for _ in range(_STEPS):
        d = rng.uniform(-0.5, 1.5, (10, 10))
        r = rng.uniform(0.0, 1.0, (10, 1))
        v *= d
        v += r * (x.mean(axis=0) - x)
        x = np.minimum(np.maximum(x + v, lo), hi)
        int(np.argmin(np.sum(x * x, axis=1)))
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float, fixed_s: float = 0.0) -> float:
    """`seconds` measured next to a kernel time of `kernel_s`, as it would read
    on the reference host; `fixed_s` of it is sleep and is not scaled."""
    return (seconds - fixed_s) * REF_S / kernel_s + fixed_s
