"""Seedable random streams with deterministic splitting."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# PCG64 words pulled per refill: a refill is rare next to the draws it
# serves, and a stream's buffers stay at a few tens of KB.
BLOCK = 1024
# Integer ranges per block that get a table of decoded values; the engines
# draw from two (population size and dimension).
TABLES = 4

_WORD = np.dtype("<u8")
_HALF = np.dtype("<u4")  # a word's low half comes first, as numpy draws them
_UNIT = 2.0 ** -53


def _shape(size):
    """``size`` as a shape tuple (``None`` for a scalar) and its element count."""
    if size is None:
        return None, 1
    if isinstance(size, (int, np.integer)):
        size = (int(size),)
    elif type(size) is not tuple:
        size = tuple(size)
    if size and min(size) < 0:
        raise ValueError("negative dimensions are not allowed")
    return size, math.prod(size)


def _decode(halves: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Lemire's ``(x * n) >> 32`` for every uint32 ``x`` in ``halves``, as int64.

    A rejected ``x`` decodes to -1. Also returns whether any ``x`` was
    rejected.
    """
    scaled = halves.astype(np.uint64) * np.uint64(n)
    values = (scaled >> 32).astype(np.int64)
    rejected = scaled.astype(_HALF) < ((1 << 32) - n) % n
    values[rejected] = -1
    return values, bool(rejected.any())


class RngStream:
    """A seedable uniform random stream decoded from numpy's PCG64 words.

    Identical ``(seed, spawn_key)`` pairs always yield identical draw
    sequences, which makes whole runs bitwise reproducible. ``split``
    derives independent child streams by extending the spawn key, so an
    engine seeded once can hand a private stream to each subpopulation
    and stay deterministic regardless of update order.

    The stream owns a ``PCG64`` bit generator, pulls its raw 64-bit words
    in blocks of :data:`BLOCK` and decodes them itself, so every call
    returns exactly what numpy's own generator on a ``PCG64`` seeded with
    ``SeedSequence(entropy=seed, spawn_key=spawn_key)`` returns for the
    same calls.
    ``uniform`` is ``(w >> 11) * 2**-53`` of one fresh word per value.
    ``integers`` is Lemire's ``(x * n) >> 32`` with ``n = high - low`` on
    uint32 halves ``x``, low half first (an odd high half waits for the
    next ``integers`` call), skipping ``x`` while the low 32 bits of
    ``x * n`` are below ``(2**32 - n) % n``. It supports 1 to ``2**32``
    values (``n == 1`` draws nothing); a wider range raises
    :class:`ConfigurationError` and an empty one ``ValueError``. Returned
    arrays belong to the caller. Words pulled past the last draw are never
    seen, since engine streams are private children from ``split``. No
    option selects numpy's own generator instead.

    Each block decodes its uniforms once, and its integers once for each of
    the first :data:`TABLES` ranges drawn from it, so a call is one slice
    copy. Further ranges in the same block decode only the halves they
    draw, which keeps work and memory per call in line with its size when
    a caller changes the range on every call.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._bitgen = np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        )
        # Each block word is decoded up front: ``_unit`` holds its uniform
        # and ``_halves`` its two uint32 halves, low first. ``_tables`` maps a
        # range ``n`` to its ``_decode`` of the whole block, built on first
        # use for at most :data:`TABLES` ranges. Word 0 is a carry slot.
        # ``_pos`` is the next fresh word; when ``_half`` is 1 the high half
        # of word ``_pos - 1`` is a uint32 still owed to the next ``integers``
        # call.
        self._unit = np.zeros(1)
        self._halves = np.zeros(2, dtype=_HALF)
        self._tables = {}
        self._pos = 1
        self._half = 0

    def _reserve(self, count: int) -> None:
        """Make sure ``count`` fresh words follow ``_pos``, carrying the owed half."""
        pos = self._pos
        if pos + count > len(self._unit):
            raw = self._bitgen.random_raw(max(BLOCK, count)).astype(_WORD, copy=False)
            self._unit = np.concatenate((self._unit[pos - 1:], (raw >> 11) * _UNIT))
            self._halves = np.concatenate((self._halves[2 * pos - 2:], raw.view(_HALF)))
            self._tables = {}
            self._pos = 1

    def uniform(self, size=None):
        """Uniform draws in [0, 1), as numpy's ``random(size)``."""
        shape, count = _shape(size)
        self._reserve(count)
        pos = self._pos
        end = self._pos = pos + count
        if self._half:  # the owed half moves to the last word taken
            for column in (self._halves, *(v for v, _ in self._tables.values())):
                column[2 * end - 1] = column[2 * pos - 1]
        out = self._unit[pos:end]
        return float(out[0]) if shape is None else out.reshape(shape).copy()

    def integers(self, low, high=None, size=None):
        """Integer draws in [low, high), as numpy's ``integers(low, high, size)``."""
        if high is None:
            low, high = 0, low
        low, n = int(low), int(high) - int(low)
        if n < 1:
            raise ValueError("low >= high")
        if n > 1 << 32:
            raise ConfigurationError(f"integers supports at most 2**32 values, got {n}")
        shape, count = _shape(size)
        if n == 1:
            out = np.full(count, low, dtype=np.int64)
        else:
            out = self._lemire(n, count)
            if low:
                out += low
        return out[0] if shape is None else out.reshape(shape)

    def window(self, n: int, count: int) -> list[int]:
        """The next ``count`` values of ``integers(0, n)``, as a list, not consumed.

        Rejection rounds take their values from one window and then
        :meth:`skip` exactly the values taken, as one ``integers`` call per
        round would consume them. ``n`` ranges from 2 to ``2**32``.
        """
        span, used = self._span(n, count)
        return span.tolist() if used == count else [v for v in span.tolist() if v >= 0]

    def skip(self, n: int, count: int) -> None:
        """Consume the next ``count`` values of range ``n``, as ``integers`` would."""
        end = 2 * self._pos - self._half + self._span(n, count)[1]
        self._pos, self._half = (end + 1) // 2, end % 2

    def _lemire(self, n: int, count: int) -> np.ndarray:
        """The next ``count`` accepted values for range ``n``, in a fresh array."""
        span, used = self._span(n, count)
        end = 2 * self._pos - self._half + used
        self._pos, self._half = (end + 1) // 2, end % 2
        return span.copy() if used == count else span[span >= 0]

    def _span(self, n: int, count: int) -> tuple[np.ndarray, int]:
        """Decoded halves (-1 if rejected) through the ``count``-th accepted one, and their count."""
        used = count
        while True:
            self._reserve((used - self._half + 1) // 2)
            start = 2 * self._pos - self._half
            if n in self._tables:
                values, rejecting = self._tables[n]
            elif len(self._tables) < TABLES:
                values, rejecting = self._tables[n] = _decode(self._halves, n)
            else:  # no table left for this block: decode only the halves drawn
                values, rejecting = _decode(self._halves[start:start + used], n)
                start = 0
            span = values[start:start + used]
            missing = count - np.count_nonzero(span >= 0) if rejecting else 0
            if not missing:
                return span, used
            used += missing  # each rejected half is replaced by the next uint32

    def split(self, n: int) -> list[RngStream]:
        """Derive ``n`` independent child streams.

        The mixing function is fixed: child ``j`` is the stream keyed by
        ``spawn_key + (j,)`` under the same seed entropy.
        """
        return [RngStream(self.seed, self.spawn_key + (j,)) for j in range(n)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"

