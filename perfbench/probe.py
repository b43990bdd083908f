"""Machine-speed probe: fixed work that no version of robinslab changes.

The work is a fixed mix of what the package is made of: small real DSTs and
DCTs along z, one tridiagonal banded solve per lateral mode and Python-level
loops over modes.  A shared machine runs it slower or faster from one
second to the next, as it does the program.  The benchmark times the
probe in its own process just before and just after each command, while
no command runs, and scales the command's times by REFERENCE_S over the
mean of the two; that keeps the machine's drift out of the figures.
"""

from __future__ import annotations

import statistics
import time

# Typical probe_seconds() on the machine the benchmark was first calibrated
# on (2-core x86-64 KVM guest, Python 3.11, numpy 2.4, scipy 1.17), which
# `python3 perfbench/probe.py` prints.  Only ratios of it enter a
# comparison between two commits.
REFERENCE_S = 0.1


def _burst() -> float:
    import numpy as np
    import scipy.fft
    import scipy.linalg

    rng = np.random.default_rng(0)
    field = rng.standard_normal((8, 8, 256))
    bands = np.zeros((3, 255))
    bands[0, 1:], bands[1], bands[2, :-1] = -1.0, 2.5, -1.0
    total = 0.0
    for _ in range(3):
        modes = scipy.fft.dst(field[..., 1:-1], type=1, axis=-1)
        slopes = scipy.fft.dct(field, type=1, axis=-1)
        for k1 in range(8):
            for k2 in range(8):
                total += float(scipy.linalg.solve_banded((1, 1), bands, field[k1, k2, :255])[0])
        total += float(modes[0, 0, 0] + slopes[0, 0, 0]) + sum(i * i for i in range(2000)) * 1e-12
    return total


def probe_seconds(bursts: int = 10) -> float:
    """Wall time of `bursts` repetitions of the fixed work."""
    start = time.perf_counter()
    for _ in range(bursts):
        _burst()
    return time.perf_counter() - start


if __name__ == "__main__":
    probe_seconds(1)
    print(statistics.median(probe_seconds() for _ in range(9)))
