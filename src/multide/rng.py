"""Seedable random streams with deterministic splitting."""

from __future__ import annotations

import numpy as np


class RngStream:
    """A seedable uniform random stream backed by numpy's PCG64.

    Identical ``(seed, spawn_key)`` pairs always yield identical draw
    sequences, which makes whole runs bitwise reproducible. ``split``
    derives independent child streams by extending the spawn key, so an
    engine seeded once can hand a private stream to each subpopulation
    and stay deterministic regardless of update order.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        )

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        """Integer draws in [low, high), numpy semantics."""
        return self._gen.integers(low, high, size=size)

    def split(self, n: int) -> list[RngStream]:
        """Derive ``n`` independent child streams.

        The mixing function is fixed: child ``j`` is the stream keyed by
        ``spawn_key + (j,)`` under the same seed entropy.
        """
        return [RngStream(self.seed, self.spawn_key + (j,)) for j in range(n)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def as_stream(rng) -> RngStream:
    """Coerce an int seed or RngStream into an RngStream."""
    if isinstance(rng, RngStream):
        return rng
    return RngStream(int(rng))
