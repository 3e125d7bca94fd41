"""Seeded random number generation for deterministic simulations.

A single :class:`SeededRng` per simulation owns a ``random.Random`` stream;
components that need independent randomness (the network, each client, the
failure injector) fork child streams with :meth:`SeededRng.fork` so that
adding a component does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        self._rng = random.Random(seed)
        self._zipf_cache: dict[tuple[int, float], list[float]] = {}

    def fork(self, name: str) -> "SeededRng":
        """Derive an independent child stream.

        The child's seed is a stable (process-independent) hash of
        ``(parent seed, child name)``, so forking the same name from the
        same parent always yields the same stream regardless of fork order.
        Python's built-in ``hash`` is salted per process for strings and is
        deliberately avoided here.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
        return SeededRng(child_seed, name=f"{self.name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, seq):
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)

    def sample(self, population, k: int):
        return self._rng.sample(population, k)

    def zipf_index(self, n: int, skew: float) -> int:
        """Draw an index in ``[0, n)`` from a Zipf-like distribution.

        Uses inverse-CDF over the (pre-normalised) harmonic weights; cached
        per ``(n, skew)`` so repeated draws are O(log n).
        """
        key = (n, skew)
        cdf = self._zipf_cache.get(key)
        if cdf is None:
            weights = [1.0 / (i + 1) ** skew for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            self._zipf_cache[key] = cdf
        u = self._rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo
