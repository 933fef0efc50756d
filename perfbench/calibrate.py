"""Fixed reference work that reads how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts: a
pass of a fixed workload takes anywhere from 0.5 to 1.0 s within one minute,
with CPU time moving exactly as wall time does, so no clock of the process
separates the program's own cost from the host's state.  The benchmark
therefore times one fixed chunk of work, made of the same kinds of work as
the library (FFT binding at dim 2048, a matrix-vector scan over a stored
block, small Python dicts and tuples), on the one BLAS thread that run.py
allows, between ops, and divides
each op's time by the slowdown around it: the median time of the ``NEAREST``
chunks closest to the op, over ``REFERENCE_S``.  Times are thus in seconds at the
reference speed.  The chunk is benchmark code, so a change to the library
moves the op times and not the slowdown.
"""
from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

# About the median time of one chunk on the machine whose speed the benchmark
# takes as reference (0.013-0.015 s there): a 2-vCPU VM, Python 3.11.7,
# numpy 2.4.6, one OpenBLAS thread.
REFERENCE_S = 0.014
# Least op time between two chunks; ops shorter than this share one chunk,
# and a longer gap gets one chunk per EVERY_S, at most MAX_CHUNKS, so that a
# long op has chunks on both sides of it.
EVERY_S = 0.25
MAX_CHUNKS = 8
# Chunks whose median gives an op's slowdown.
NEAREST = 8
DIM = 2048
ROWS = 256
VECTORS = 16
ROUNDS = 48


class Calibrator:
    """Times the chunk when due and keeps (middle time, seconds) samples."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.block = rng.standard_normal((ROWS, DIM))
        self.vectors = rng.standard_normal((VECTORS, DIM))
        self.samples: list[tuple[float, float]] = []
        self.chunk()  # warm-up: FFT plans, first touch of the block
        self.last = time.perf_counter()

    def chunk(self) -> float:
        t0 = time.perf_counter()
        best = 0
        for i in range(ROUNDS):
            a, b = self.vectors[i % VECTORS], self.vectors[(i + 1) % VECTORS]
            bound = np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=DIM)
            best += int(np.argmax(self.block @ bound))
            rows = {(k, i): (k, best) for k in range(300)}
            best += len(rows) + rows[(299, i)][0]
        return time.perf_counter() - t0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            seconds = self.chunk()
            self.samples.append((t0 + seconds / 2, seconds))
        self.last = time.perf_counter()

    def between_ops(self) -> None:
        due = int((time.perf_counter() - self.last) / EVERY_S)
        if due:
            self.sample(min(due, MAX_CHUNKS))

    def take(self) -> list[tuple[float, float]]:
        """The samples so far; the next ones start a new list."""
        samples, self.samples = self.samples, []
        return samples


def slowdown(samples) -> float:
    """Median chunk time over the reference: above 1 when the host runs slow."""
    return statistics.median(seconds for _, seconds in samples) / REFERENCE_S


def local_slowdowns(samples, spans) -> list[float]:
    """The slowdown around each (start, seconds) span, from its nearest chunks."""
    return [slowdown(heapq.nsmallest(NEAREST, samples, key=lambda s: abs(s[0] - start - seconds / 2)))
            for start, seconds in spans]
