"""Host speed probe: a fixed numpy kernel timed between the benchmark's repeats.

The benchmark runs on shared hosts whose speed drifts by 20-30 % over tens of
minutes, the same code reading that much slower or faster from one set of
runs to the next. A run therefore times this kernel in short chunks before,
between and after its repeats, and scales its end-to-end timings by
``REFERENCE_S`` over the median chunk: the timings read as they would on the
host at reference speed. The kernel uses nothing from the package, so a
change to the package moves the scaled timings exactly as it moves the raw
ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median chunk time on a quiet 2-vCPU Xeon VM with one BLAS thread.
REFERENCE_S = 0.030
CHUNK_ITERATIONS = 400


def kernel(iterations: int = CHUNK_ITERATIONS) -> float:
    """A 64-wide MLP step with scalar glue, and a small factorization every tenth step."""
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((8, 64)) * 0.3
    w2 = rng.standard_normal((64, 64)) * 0.1
    w3 = rng.standard_normal((64, 2)) * 0.1
    x = rng.standard_normal((64, 8))
    spd = np.eye(14) * 14.0 + rng.standard_normal((14, 14)) * 0.1
    spd = spd @ spd.T
    acc = 0.0
    for i in range(iterations):
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        y = np.tanh(h2 @ w3)
        w2 -= 1e-4 * (h1.T @ ((1.0 - y * y) @ w3.T * (h2 > 0)))
        acc += float(np.clip(x[i % 64, 0] * 0.5 + y[i % 64, 0], -1.0, 1.0))
        if i % 10 == 0:
            acc += float(np.linalg.cholesky(spd)[-1, -1])
    return acc


class SpeedProbe:
    """Collects kernel chunk times over a run."""

    def __init__(self, chunks_per_sample: int = 6):
        self.chunks_per_sample = chunks_per_sample
        self.chunk_s: list = []

    def sample(self) -> None:
        for _ in range(self.chunks_per_sample):
            t0 = time.perf_counter()
            kernel()
            self.chunk_s.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference speed over this run's speed: multiply a time by it, divide a rate by it."""
        return REFERENCE_S / statistics.median(self.chunk_s)
