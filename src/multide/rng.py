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


def _shown(value) -> str:
    """``repr(value)`` for a refusal, naming an int too long for ``repr`` by its digit count."""
    try:
        return repr(value)
    except ValueError:  # an int past str's digit limit (sys.set_int_max_str_digits), or holding one
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
        digits = int(abs(value).bit_length() * 0.30102999566398120)  # log10(2): digits or one fewer
        return f"an integer of {digits + (abs(value) >= 10 ** digits)} digits"


def _index(value, what: str, low: int = 0) -> int:
    """``value`` as an int, refusing a bool and anything but an integer >= ``low``."""
    if type(value) is int and value >= low:  # the common case first, at the cost of one check
        return value
    if not is_count(value) or value < low:
        raise ConfigurationError(f"{what} must be an integer >= {low}, got {_shown(value)}")
    return int(value)


def _real(value, what: str, low: float = -np.inf, high: float = np.inf, closed: bool = True):
    """``value`` unchanged, refusing a bool, a non-number, NaN and anything outside ``[low, high]``.

    The interval is ``(low, high)`` when not ``closed``. A number inside it
    that no float can hold, such as ``10**400``, is refused too.
    """
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low <= value <= high if closed else low < value < high)):
        try:
            float(value)
            return value
        except OverflowError:  # an int or a fraction past the float range
            raise ConfigurationError(f"{what} is too large for a float") from None
    interval = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"
    raise ConfigurationError(f"{what} must be a number in {interval}, got {_shown(value)}")


def _decode(halves: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Lemire's ``(x * n) >> 32`` for every uint32 ``x`` in ``halves``, as int64.

    A rejected ``x`` decodes to -1. Also returns whether any ``x`` was
    rejected.
    """
    scaled = halves.astype(np.uint64) * np.uint64(n)
    values = (scaled >> 32).view(np.int64)  # below 2**32, so the same bits
    threshold = ((1 << 32) - n) % n  # 0 for a power of two, which rejects nothing
    if threshold:
        rejected = scaled.astype(_HALF) < threshold
        if rejected.any():
            values[rejected] = -1
            return values, True
    return values, False


def _accepted(values: np.ndarray, rejecting: bool, start: int,
              count: int) -> tuple[np.ndarray, int]:
    """The next ``count`` accepted values of a block table from half ``start`` on.

    ``values`` and ``rejecting`` are a ``_decode`` of the block. Also
    returns the halves the values span, up to and including the last one
    taken. When the block runs out first, fewer values span all the rest.
    """
    if not rejecting:
        taken = values[start:start + count]
        return taken, len(taken)
    at = np.flatnonzero(values[start:] >= 0)[:count]
    return values[start + at], int(at[-1]) + 1 if len(at) == count else len(values) - start


def _donors(values: np.ndarray, rejecting: bool, start: int, n: int,
            window: int) -> tuple[list[int], int] | None:
    """One generation's donor triples for ``n`` rows from a block table, from half ``start`` on.

    Returns the triples as one flat list and the halves they span, or None
    when the block runs out first. A row whose triple repeats an index or
    holds the row's own is redrawn, in ascending order, from the values
    that follow, and a row that collides again rejoins the queue after the
    rest of its round, as numpy's ``integers(0, n, size=3 * m)`` per round
    over ``m`` rows would draw them. The values are read as a list from a
    window of ``window``, taken again twice as long when the queue outruns
    it.
    """
    got = _accepted(values, rejecting, start, window)[0].tolist()
    r = got[:3 * n]
    if len(r) < 3 * n:
        return None
    it = iter(r)
    queue = [i for i, a, b, c in zip(range(n), it, it, it)
             if a == i or b == i or c == i or a == b or a == c or b == c]
    used, last = 3 * n, len(got) - 3  # ``last``: where the last whole triple starts
    for i in queue:
        if used > last:
            got = _accepted(values, rejecting, start, 2 * used + 6)[0].tolist()
            last = len(got) - 3
            if used > last:
                return None
        a, b, c = r[3 * i:3 * i + 3] = got[used:used + 3]
        used += 3
        if a == i or b == i or c == i or a == b or a == c or b == c:
            queue.append(i)
    return r, _accepted(values, rejecting, start, used)[1] if rejecting else used


class RngStream:
    """A seedable uniform random stream decoded from numpy's PCG64 words.

    Identical ``(seed, spawn_key)`` pairs always yield identical draw
    sequences, which makes whole runs bitwise reproducible. ``split``
    derives independent child streams by extending the spawn key, so an
    engine seeded once can hand a private stream to each subpopulation
    and stay deterministic regardless of update order.

    The stream owns a ``PCG64`` bit generator, pulls its raw 64-bit words
    in blocks of :data:`BLOCK` and decodes them itself, so it draws exactly
    what numpy's ``Generator`` on a ``PCG64`` seeded with
    ``SeedSequence(entropy=seed, spawn_key=spawn_key)`` draws for the same
    calls: ``uniform(count)`` is ``random(count)``, ``(w >> 11) * 2**-53``
    of one fresh word per value, and ``trials`` is a sequence of
    ``integers(0, n, size=...)`` and ``random(...)`` calls. Its integers
    are Lemire's ``(x * n) >> 32`` on uint32 halves ``x``, low half first
    (an odd high half is owed to the next integer draw), skipping ``x``
    while the low 32 bits of ``x * n`` are below ``(2**32 - n) % n``;
    ``n == 1`` draws nothing. Words pulled past the last draw are never
    seen, since engine streams are private children from ``split``. No
    option selects numpy's own generator instead.

    Each block decodes its uniforms once, as it is pulled, and ``trials``
    decodes its two ranges, ``n`` and ``d``, once per block of generations,
    so a generation is a few slices.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = _index(seed, "seed")
        self.spawn_key = tuple(_index(k, "spawn key entry") for k in spawn_key)
        self._bitgen = np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        )
        # Each block word is decoded up front: ``_unit`` holds its uniform
        # and ``_halves`` its two uint32 halves, low first. ``_at`` is the
        # next uint32 in ``_halves``; when it is odd, that high half is still
        # owed to the next integer draw.
        self._unit = np.empty(0)
        self._halves = np.empty(0, dtype=_HALF)
        self._at = 0

    def _reserve(self, count: int) -> None:
        """Make sure ``count`` halves follow ``_at``; a refill keeps the words from ``_at``'s on."""
        if self._at + count > len(self._halves):
            keep = self._at // 2
            raw = self._bitgen.random_raw(max(BLOCK, (count + 1) // 2)).astype(_WORD, copy=False)
            self._unit = np.concatenate((self._unit[keep:], (raw >> 11) * _UNIT))
            self._halves = np.concatenate((self._halves[2 * keep:], raw.view(_HALF)))
            self._at -= 2 * keep

    def uniform(self, count: int) -> np.ndarray:
        """``count`` uniform draws in [0, 1), as numpy's ``random(count)``, in a new array."""
        return self._units(_index(count, "uniform count")).copy()

    integers = None  # a name perfbench's traced pass rebinds (layers.RNG_METHODS); ROADMAP item 4

    def trials(self, n: int, d: int, CR: float):
        """An iterator over DE/rand/1/bin draws for ``n >= 4`` rows in ``d >= 1`` dimensions.

        Each item is one generation's ``(3, n)`` donor rows and ``(n, d)``
        crossover mask (``u <= CR``, each row's forced index set), from what
        these numpy ``Generator`` calls would draw: ``integers(0, n, size=3 * n)``
        for the donor triples, one ``integers(0, n, size=3 * m)`` per round
        over the ``m`` rows, ascending, whose triple repeats an index or
        holds the row's own, then ``integers(0, d, size=n)`` for the forced
        indices and ``random(n * d)``.
        Taking the first item of a block decodes the buffered words for
        ranges ``n`` and ``d`` and, from them, every whole generation they
        hold, ``G >= 1`` of them (refilling first when not even one fits),
        and moves the stream past them; an owed half moves to each
        generation's last uniform word. Its items are views of its
        ``(G, 3, n)`` and ``(G, n, d)`` arrays, the caller's.
        A bad ``n``, ``d`` or ``CR`` raises :class:`ConfigurationError` here.
        """
        n, d = _index(n, "trials n", 4), _index(d, "trials d", 1)
        return self._trials(n, d, _real(CR, "trials CR", 0, 1))

    def _trials(self, n: int, d: int, CR: float):
        nd = n * d
        # 4/3 of the 3n**4 / ((n-1)(n-2)(n-3)) values a population takes on average
        window = 4 * n ** 4 // ((n - 1) * (n - 2) * (n - 3)) + 12
        least = 3 * n + (d > 1) * n + 2 * nd  # the fewest halves a generation spans
        while True:
            triples, forced, units = [], [], []
            p, end = self._at, len(self._halves)
            if end - p >= least:  # the words left after a block are never decoded
                vn, rn = _decode(self._halves, n)
                vd, rd = _decode(self._halves, d) if d > 1 else (None, False)
            while end - p >= least and (donors := _donors(vn, rn, p, n, window)):
                r, q = donors[0], p + donors[1]
                # a single-value range draws nothing
                f, halves = _accepted(vd, rd, q, n) if d > 1 else (np.zeros(n, np.int64), 0)
                q += halves
                s = (q + 1) // 2  # the first uniform word
                if len(f) < n or 2 * (s + nd) > end:
                    break
                triples += r
                forced.append(f)
                units.append(self._unit[s:s + nd])
                self._at, p = q, 2 * (s + nd) - q % 2
                if q % 2:  # the owed half starts the next generation's donors
                    vn[p] = vn[q]
            if not units:
                self._reserve(2 * (end - p) + least)
                continue
            self._units(nd)  # moves past the last generation's uniforms and owed half
            G = len(units)
            rows = np.fromiter(triples, np.intp, 3 * n * G).reshape(G, n, 3).transpose(0, 2, 1)
            take = np.concatenate(units).reshape(G, n, d) <= CR
            take.ravel()[np.concatenate(forced) + np.arange(0, G * nd, d)] = True
            yield from zip(rows.copy(), take)

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
        return self._unit[start:start + count]

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

