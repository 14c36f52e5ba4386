"""Deterministic randomness for the simulation.

Every stochastic component (background Ethernet traffic, workload
generators, fault injection) draws from a :class:`SeededStream` derived
from a single experiment seed, so experiments replay bit-identically and
independent components do not perturb each other's streams.
"""

from __future__ import annotations

import hashlib
import math
import random

__all__ = ["SeededStream", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """A stable 64-bit sub-seed for the component called ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStream:
    """A named, independently seeded random stream.

    Thin wrapper over :class:`random.Random` plus the few distributions
    the workload model needs (bounded log-normal, exponential
    inter-arrivals, Zipf-like popularity).
    """

    def __init__(self, master_seed: int, name: str):
        self.name = name
        self._rng = random.Random(derive_seed(master_seed, name))
        self._zipf_tables: dict[tuple[int, float], list[float]] = {}

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given rate (1/s)."""
        return self._rng.expovariate(rate)

    def lognormal_bounded(self, median: float, sigma: float,
                          lo: float, hi: float) -> float:
        """Log-normal with the given median, clamped to [lo, hi].

        Used for the UNIX file-size distribution (median 1 KB,
        99 % < 64 KB — Mullender & Tanenbaum, "Immediate Files").
        """
        value = self._rng.lognormvariate(math.log(median), sigma)
        return min(max(value, lo), hi)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """An index in [0, n) drawn from a Zipf(skew) popularity curve.

        Inverse-CDF over the harmonic weights; O(log n) via bisection on
        a cached prefix table per (n, skew).
        """
        if n < 1:
            raise ValueError("zipf_index requires n >= 1")
        key = (n, skew)
        table = self._zipf_tables.get(key)
        if table is None:
            weights = [1.0 / (i + 1) ** skew for i in range(n)]
            total = sum(weights)
            acc = 0.0
            table = []
            for w in weights:
                acc += w / total
                table.append(acc)
            self._zipf_tables[key] = table
        u = self._rng.random()
        lo_i, hi_i = 0, n - 1
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if table[mid] < u:
                lo_i = mid + 1
            else:
                hi_i = mid
        return lo_i
