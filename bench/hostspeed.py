"""How fast the host runs right now, from a fixed loop that does not touch tneda.

On a shared virtual machine the same Python and numpy work can take 25%
longer for minutes at a time (a pure-Python loop shows it as much as the
workloads do). Every time the benchmark reports is therefore rescaled to a
reference host speed: it is multiplied by ``REFERENCE_S / calibration``,
where ``calibration`` is the mean duration of :func:`calibration_s` run
right before and right after each timed ``run_single`` call. A change to
tneda cannot change the calibration, so a slower program still reads
slower, while a slower host does not."""

from __future__ import annotations

import time

import numpy as np
from numpy import einsum  # bound here, so a traced round's einsum counter never sees it

REFERENCE_S = 0.1  # reported seconds are seconds on a host where the loop takes this long
_REPEATS = 25


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The mix resembles the workloads: a batched chain contraction with
    einsum, small SVDs, dictionary lookups keyed by bit strings, and a
    plain Python loop.
    """
    rng = np.random.default_rng(0)
    sites = rng.random((30, 4, 2, 4))
    bits = rng.integers(0, 2, size=(200, 30)).astype(np.int8)
    start = time.perf_counter()
    for _ in range(_REPEATS):
        vec = np.ones((200, 4))
        seen = {}
        for i in range(30):
            vec = einsum("bl,lbr->br", vec, sites[i][:, bits[:, i], :], optimize=True)
            vec /= np.abs(vec).max(axis=1)[:, None]
            _, s, _ = np.linalg.svd(sites[i].reshape(8, 4), full_matrices=False)
            for row in bits[i::30]:
                seen[row.tobytes()] = float(s[0])
        total = 0
        for j in range(20_000):
            total += j & 7
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking seconds measured between two calibrations to reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
