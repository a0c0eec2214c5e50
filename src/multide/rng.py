"""Seedable random streams with deterministic splitting."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigurationError

# PCG64 words pulled per refill: a refill is rare next to the draws it
# serves, and a stream's buffers stay at a few tens of KB.
BLOCK = 1024

_WORD = np.dtype("<u8")
_HALF = np.dtype("<u4")  # a word's low half comes first, as numpy draws them
_UNIT = 2.0 ** -53


def is_count(value) -> bool:
    """Whether ``value`` is an integer (numpy's included) and not a bool."""
    # A plain int skips the ABC check, several times dearer and run on every penalty_batch call
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _index(value, what: str, low: int = 0) -> int:
    """``value`` as an int, refusing a bool and anything but an integer >= ``low``."""
    if type(value) is int and value >= low:  # first, as trial_draws runs it every generation
        return value
    if not is_count(value) or value < low:
        raise ConfigurationError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


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
    ``integers`` is Lemire's ``(x * n) >> 32`` on uint32 halves ``x``, low
    half first (an odd high half waits for the next ``integers`` call),
    skipping ``x`` while the low 32 bits of ``x * n`` are below
    ``(2**32 - n) % n``, for 1 to ``2**32`` values (``n == 1`` draws
    nothing). Both take a count and return an array the caller owns; a
    count or range that is not an integer (a bool included), or out of
    range, raises :class:`ConfigurationError`.
    ``trial_draws`` gives one generation of DE/rand/1/bin draws in one
    call, exactly as its sequence of ``integers`` and ``uniform`` calls
    would. Words pulled past the last draw are never seen, since engine
    streams are private children from ``split``. No option selects numpy's
    own generator instead.

    Each block decodes its uniforms once, and its integers once for each
    range drawn from it, so a call is one slice copy and a ``trial_draws``
    call a few slices. An engine stream draws from two ranges, ``n`` and
    ``d``; a caller that changes the range on every call pays one
    whole-block decode per new range and block.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = _index(seed, "seed")
        self.spawn_key = tuple(_index(k, "spawn key entry") for k in spawn_key)
        self._bitgen = np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        )
        # Each block word is decoded up front: ``_unit`` holds its uniform
        # and ``_halves`` its two uint32 halves, low first. ``_tables`` maps a
        # range ``n`` to its ``_decode`` of the whole block, built on first
        # use. ``_at`` is the next uint32 in ``_halves``; when it is odd, that
        # high half is still owed to the next integer draw.
        self._unit = np.empty(0)
        self._halves = np.empty(0, dtype=_HALF)
        self._tables = {}
        self._at = 0

    def _reserve(self, count: int) -> None:
        """Make sure ``count`` halves follow ``_at``; a refill keeps the words from ``_at``'s on."""
        if self._at + count > len(self._halves):
            keep = self._at // 2
            raw = self._bitgen.random_raw(max(BLOCK, (count + 1) // 2)).astype(_WORD, copy=False)
            self._unit = np.concatenate((self._unit[keep:], (raw >> 11) * _UNIT))
            self._halves = np.concatenate((self._halves[2 * keep:], raw.view(_HALF)))
            self._tables = {}
            self._at -= 2 * keep

    def uniform(self, count: int) -> np.ndarray:
        """``count`` uniform draws in [0, 1), as numpy's ``random(count)``."""
        return self._units(_index(count, "uniform count")).copy()

    def integers(self, n: int, count: int) -> np.ndarray:
        """``count`` integer draws in [0, n), as numpy's ``integers(0, n, size=count)``."""
        n = _index(n, "integers range")
        if not 1 <= n <= 1 << 32:
            raise ConfigurationError(f"integers supports 1 to 2**32 values, got {n}")
        values, used = self._take(n, _index(count, "integers count"))
        self._at += used
        return values.copy()

    def trial_draws(self, n: int, d: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """One generation of DE/rand/1/bin draws for ``n >= 4`` rows in ``d >= 1`` dimensions.

        Returns what these calls would, and leaves the stream where they
        would: ``integers(n, 3 * n)`` as a flat list of donor indices, each
        row's triple redrawn by one ``integers(n, 3 * m)`` per round over the
        ``m`` rows, ascending, whose triple repeats an index or holds the
        row's own; then ``integers(d, n)``, the forced crossover indices, and
        ``uniform(n * d)`` as an ``(n, d)`` array. Both arrays may be views of
        the block: do not write to them.

        The redraws run in plain Python as one queue over a window of decoded
        values, taken again twice as long when the queue outruns it: a row
        that collides again rejoins at the end, after the rest of its round.
        The forced indices are read past the halves the donors took, so the
        stream moves once, before the uniforms. Any other ``n`` or ``d`` (a
        float, a bool, a smaller value) raises :class:`ConfigurationError`.
        """
        n, d = _index(n, "trial_draws n", 4), _index(d, "trial_draws d", 1)
        # 4/3 of the 3n**4 / ((n-1)(n-2)(n-3)) values a population takes on average
        window, halves = self._take(n, 4 * n ** 4 // ((n - 1) * (n - 2) * (n - 3)) + 12)
        window = window.tolist()
        r = window[:3 * n]
        it = iter(r)
        queue = [i for i, a, b, c in zip(range(n), it, it, it)
                 if a == i or b == i or c == i or a == b or a == c or b == c]
        used = 3 * n
        for i in queue:
            if used + 3 > len(window):
                window, halves = self._take(n, 2 * used + 6)
                window = window.tolist()
            a, b, c = r[3 * i:3 * i + 3] = window[used:used + 3]
            used += 3
            if a == i or b == i or c == i or a == b or a == c or b == c:
                queue.append(i)
        if halves > len(window):  # a half was rejected: count those the values took
            used = self._take(n, used)[1]
        forced, halves = self._take(d, n, used)
        self._at += used + halves
        return r, forced, self._units(n * d).reshape(n, d)

    def _units(self, count: int) -> np.ndarray:
        """A view of the uniforms of the next ``count`` words, which the stream moves past.

        An owed half moves to the last word taken.
        """
        self._reserve(2 * count + self._at % 2)
        at = self._at
        start = (at + 1) // 2
        self._at = 2 * (start + count) - at % 2
        if at % 2:
            self._halves[self._at] = self._halves[at]
            for values, _ in self._tables.values():
                values[self._at] = values[at]
        return self._unit[start:start + count]

    def _take(self, n: int, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
        """The next ``count`` accepted values of range ``n``, ``offset`` halves past the stream's place.

        Also returns the number of halves they span, rejected ones included.
        Nothing is consumed. The values may be a view of a table. A
        single-value range draws nothing: its values are 0 and span no half.
        """
        if n == 1:
            return np.zeros(count, dtype=np.int64), 0
        used = count
        while True:
            self._reserve(offset + used)
            start = self._at + offset
            if n not in self._tables:
                self._tables[n] = _decode(self._halves, n)
            values, rejecting = self._tables[n]
            values = values[start:start + used]
            if rejecting:
                values = values[values >= 0]
            if len(values) == count:
                return values, used
            used += count - len(values)  # each rejected half is replaced by the next uint32

    def split(self, n: int) -> list[RngStream]:
        """Derive ``n`` independent child streams.

        The mixing function is fixed: child ``j`` is the stream keyed by
        ``spawn_key + (j,)`` under the same seed entropy. ``n``, like the
        seed and each key entry, is an integer >= 0 (not a bool).
        """
        n = _index(n, "split count")
        return [RngStream(self.seed, self.spawn_key + (j,)) for j in range(n)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"

