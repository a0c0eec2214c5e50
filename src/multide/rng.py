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
    :class:`ConfigurationError` and an empty one ``ValueError``. Arrays
    returned by ``uniform`` and ``integers`` belong to the caller.
    ``trial_draws`` gives one generation of DE/rand/1/bin draws in one
    call, exactly as its sequence of ``integers`` and ``uniform`` calls
    would. Words pulled past the last draw are never seen, since engine
    streams are private children from ``split``. No option selects numpy's
    own generator instead.

    Each block decodes its uniforms once, and its integers once for each of
    the first :data:`TABLES` ranges drawn from it, so a call is one slice
    copy and a ``trial_draws`` call a few slices. Further ranges in the
    same block decode only the halves they draw, which keeps work and
    memory per call in line with its size when a caller changes the range
    on every call.
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
        out = self._units(count)
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
            values, used = self._take(n, count)
            end = 2 * self._pos - self._half + used
            self._pos, self._half = (end + 1) // 2, end % 2
            out = values + low
        return out[0] if shape is None else out.reshape(shape)

    def trial_draws(self, n: int, d: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """One generation of DE/rand/1/bin draws for ``n >= 4`` rows in ``d`` dimensions.

        Returns what these calls would, and leaves the stream where they
        would: ``integers(0, n, size=(n, 3))`` as a flat list of donor
        indices, each redrawn by one ``integers(0, n, size=(m, 3))`` per round
        over the ``m`` rows, ascending, whose triple repeats an index or holds
        the row's own; then ``integers(0, d, size=n)``, the forced crossover
        indices, and ``uniform(size=(n, d))``. Both arrays may be views of the
        block: do not write to them.

        The rounds run in plain Python over one window of decoded values; a
        window the rounds outrun is taken again, twice as long. The forced
        indices are read past the halves the donors took, so the stream
        moves once, before the uniforms.
        """
        if n < 4:
            raise ConfigurationError("mutation needs a population of at least 4")
        # 4/3 of the 3n**4 / ((n-1)(n-2)(n-3)) values a population takes on average
        window, halves = self._take(n, 4 * n ** 4 // ((n - 1) * (n - 2) * (n - 3)) + 12)
        window = window.tolist()
        r = window[:3 * n]
        it = iter(r)
        rows = [i for i, a, b, c in zip(range(n), it, it, it)
                if a == i or b == i or c == i or a == b or a == c or b == c]
        used = 3 * n
        while rows:
            end = used + 3 * len(rows)
            if end > len(window):
                window, halves = self._take(n, 2 * end)
                window = window.tolist()
            it, again = iter(window[used:end]), []
            for i, a, b, c in zip(rows, it, it, it):
                r[3 * i:3 * i + 3] = a, b, c
                if a == i or b == i or c == i or a == b or a == c or b == c:
                    again.append(i)
            rows, used = again, end
        if halves > len(window):  # a half was rejected: count those the values took
            used = self._take(n, used)[1]
        if d > 1:
            forced, halves = self._take(d, n, used)
            used += halves
        else:
            forced = np.zeros(n, dtype=np.int64)
        end = 2 * self._pos - self._half + used
        self._pos, self._half = (end + 1) // 2, end % 2
        return r, forced, self._units(n * d).reshape(n, d)

    def _units(self, count: int) -> np.ndarray:
        """A view of the uniforms of the next ``count`` words, which the stream moves past.

        An owed half moves to the last word taken.
        """
        self._reserve(count)
        pos = self._pos
        end = self._pos = pos + count
        if self._half:
            self._halves[2 * end - 1] = self._halves[2 * pos - 1]
            for values, _ in self._tables.values():
                values[2 * end - 1] = values[2 * pos - 1]
        return self._unit[pos:end]

    def _take(self, n: int, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
        """The next ``count`` accepted values of range ``n``, ``offset`` halves past the stream's place.

        Also returns the number of halves they span, rejected ones included.
        Nothing is consumed. The values may be a view of a table.
        """
        used = count
        while True:
            self._reserve((offset + used - self._half + 1) // 2)
            start = 2 * self._pos - self._half + offset
            table = self._tables.get(n)
            if table is None and len(self._tables) < TABLES:
                table = self._tables[n] = _decode(self._halves, n)
            elif table is None:  # no table left for this block: decode only the halves drawn
                table = _decode(self._halves[start:start + used], n)
                start = 0
            values, rejecting = table
            values = values[start:start + used]
            if rejecting:
                values = values[values >= 0]
            if len(values) == count:
                return values, used
            used += count - len(values)  # each rejected half is replaced by the next uint32

    def split(self, n: int) -> list[RngStream]:
        """Derive ``n`` independent child streams.

        The mixing function is fixed: child ``j`` is the stream keyed by
        ``spawn_key + (j,)`` under the same seed entropy.
        """
        return [RngStream(self.seed, self.spawn_key + (j,)) for j in range(n)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"

