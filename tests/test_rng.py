"""RngStream against numpy's Generator: same draws, same values, bit for bit.

``RngStream`` decodes PCG64 words itself, in blocks, instead of calling
``Generator``. These tests make the same draws on an ``RngStream`` and on
``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` and compare every
returned value, its type, dtype and shape. ``trials``, which decodes a
block of generations' draws at once, is compared generation by generation
with the ``integers`` and ``random`` calls it stands for. On crafted words
that force its rare paths, the reference is :class:`NumpyPort`, a per-call
port of numpy's own algorithm, itself checked against ``Generator``.
"""

import numpy as np
import pytest
from conftest import examples, reference_trial_draws, twin
from hypothesis import given
from hypothesis import strategies as st

from multide import ConfigurationError, RngStream, rng
from multide.rng import BLOCK

# The ranges the port is checked on. 2**31 + 1 rejects about half of all
# uint32 draws. At 3 * 2**30 a quarter of the draws land exactly on the
# rejection threshold, which pins the strict comparison. 2**32 takes the
# uint32 draws raw, and 1 draws nothing.
RANGES = [1, 2, 3, 30, 2**31 + 1, 3 * 2**30, 2**32]


def same(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(theirs, np.ndarray):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


class NumpyPort:
    """numpy's ``Generator.integers`` and ``.random`` on a bit generator's raw words, a value at a time.

    A port of numpy's C code that shares nothing with ``multide.rng``.
    ``next_uint32`` takes a word's low half and holds its high half for the
    next call; ``integers`` draws each value from those halves by Lemire's
    bounded method; ``random`` is ``next_double``. Words are pulled in
    chunks and read one at a time: a bit generator's words do not depend
    on how many it is asked for at once.
    """

    def __init__(self, bits):
        self.bits, self.words, self.held = bits, iter(()), None

    def next_uint64(self):
        word = next(self.words, None)
        if word is None:
            self.words = iter(self.bits.random_raw(256).tolist())
            word = next(self.words)
        return word

    def next_uint32(self):
        if self.held is not None:
            half, self.held = self.held, None
            return half
        word = self.next_uint64()
        self.held = word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, n):
        """One value in [0, n): none drawn for n == 1, a raw half for n == 2**32."""
        if n == 1:
            return 0
        if n == 1 << 32:
            return self.next_uint32()
        threshold = ((1 << 32) - n) % n
        while True:
            m = self.next_uint32() * n
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def integers(self, low, high, size):
        values = [low + self.bounded(high - low) for _ in range(int(np.prod(size)))]
        return np.array(values, dtype=np.int64).reshape(size)

    def random(self, size):
        values = [(self.next_uint64() >> 11) * 2.0 ** -53 for _ in range(int(np.prod(size)))]
        return np.array(values, dtype=np.float64).reshape(size)


@pytest.mark.parametrize("n", RANGES)
@examples(10)
@given(seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.tuples(st.integers(0, 41), st.integers(0, 3)), min_size=1, max_size=8))
def test_port_matches_numpy(n, seed, counts):
    # Odd integer counts leave a half held across the uniforms that follow.
    port, ref = NumpyPort(twin(seed).bit_generator), twin(seed)
    for integer_count, uniform_count in counts:
        same(port.integers(0, n, integer_count), ref.integers(0, n, size=integer_count))
        same(port.random(uniform_count), ref.random(uniform_count))
    same(port.integers(0, n, (4, 3)), ref.integers(0, n, size=(4, 3)))
    same(port.random((3, 2)), ref.random((3, 2)))


def next_block(items):
    """The items of the block that the next item of a ``trials`` iterator starts.

    A block's items are views of its ``(G, 3, n)`` donor rows, so the first
    item's base gives ``G``. The next block is decoded only when its first
    item is taken, so the stream then sits where ``G`` generations leave it.
    """
    first = next(items)
    return [first] + [next(items) for _ in range(len(first[0].base) - 1)]


def same_block(block, ref, n, d, CR):
    """Each generation of a block of ``trials`` items against the next per-call draws of ``ref``."""
    assert len(block) >= 1
    rows_base, take_base = block[0][0].base, block[0][1].base
    assert (rows_base.shape, take_base.shape) == ((len(block), 3, n), (len(block), n, d))
    for rows, take in block:
        assert rows.base is rows_base and take.base is take_base
        assert (rows.shape, take.shape, rows.dtype, take.dtype) == ((3, n), (n, d), np.intp, bool)
        r, f, u = reference_trial_draws(ref.integers, ref.random, n, d)
        want = u <= CR
        want[np.arange(n), f] = True  # at CR = 0 nothing else is set, so the forced indices show
        assert rows.T.ravel().tolist() == r
        assert np.array_equal(take, want)


def replay(stream, ref, steps):
    """Make each step on ``stream`` and on ``ref``, a ``Generator`` or a :class:`NumpyPort`.

    A step is ``("uniform", count)``, or ``("trials", n, d)``: one block of
    a fresh ``trials(n, d, 0.5)`` iterator, against the same draws made
    one call at a time.
    """
    for step in steps:
        if step[0] == "uniform":
            same(stream.uniform(step[1]), ref.random(step[1]))
        else:
            same_block(next_block(stream.trials(step[1], step[2], 0.5)), ref, step[1], step[2], 0.5)


counts = st.one_of(
    st.integers(0, 41),  # odd and even counts
    st.integers(BLOCK // 2, 2 * BLOCK),  # crosses block refills
)
# A trials block of another shape can leave a half owed, and a uniform call moves it.
steps = st.one_of(st.tuples(st.just("uniform"), counts),
                  st.tuples(st.just("trials"), st.integers(4, 30), st.integers(1, 4)))


@examples(40)
@given(seed=st.integers(0, 2**32 - 1),
       spawn_key=st.lists(st.integers(0, 7), max_size=3).map(tuple),
       steps=st.lists(steps, min_size=1, max_size=8))
def test_interleaved_calls_match_numpy(seed, spawn_key, steps):
    replay(RngStream(seed, spawn_key), twin(seed, spawn_key), steps)


# Uniforms across refills, and blocks that start next to a refill and on
# half-used words.
FIXED_STEPS = [("uniform", 60), ("trials", 30, 2), ("uniform", 1), ("trials", 4, 1),
               ("uniform", 3 * BLOCK), ("trials", 7, 3), ("uniform", 5)]


def test_unkeyed_seed_and_split_children_match_numpy():
    replay(RngStream(20240611), twin(20240611), FIXED_STEPS)
    for j, child in enumerate(RngStream(7).split(3)):
        assert child.spawn_key == (j,)
        replay(child, twin(7, (j,)), FIXED_STEPS)


def test_refill_while_a_half_word_is_owed():
    stream, ref = RngStream(11, (2,)), twin(11, (2,))
    # A block of trials(4, 1) leaves its last generation's high half owed.
    # The uniforms then take every buffered word after it and move the owed
    # half to their last, so the next block starts with the owed half and
    # continues in a fresh block.
    replay(stream, ref, [("trials", 4, 1)])
    assert stream._at % 2 == 1
    replay(stream, ref, [("uniform", len(stream._unit) - (stream._at + 1) // 2)])
    assert stream._at == len(stream._halves) - 1  # the owed half is all that is left
    # A generation of trials(200, 9) spans more words than a block holds.
    replay(stream, ref, [("trials", 30, 2), ("uniform", 7), ("trials", 200, 9), ("uniform", 3)])


def test_mutating_returned_arrays_leaves_later_draws_alone():
    stream, ref = RngStream(5, (1, 0)), twin(5, (1, 0))
    for _ in range(40):  # 37 words a call, across refills
        drawn = stream.uniform(37)
        same(drawn, ref.random(37))
        drawn[...] = 2.0
    same(stream.uniform(50), ref.random(50))


# A block table as ``rng._decode`` gives it, -1 marking a rejected half, and
# one that rejects nothing.
TABLE, PLAIN = np.array([4, -1, -1, 7, 2, -1, 9, -1]), np.array([4, 7, 2, 9])


# (table, rejecting, start, count) -> the values read and the halves they span:
# reads ending on a value after rejected ones, reads from the middle, and
# short reads where the block runs out first (every value left and the rest
# of the block).
@pytest.mark.parametrize("table, rejecting, start, count, values, halves", [
    (TABLE, True, 0, 2, [4, 7], 4),
    (TABLE, True, 0, 4, [4, 7, 2, 9], 7),
    (TABLE, True, 2, 2, [7, 2], 3),
    (TABLE, True, 4, 1, [2], 1),
    (TABLE, True, 5, 1, [9], 2),
    (TABLE, True, 4, 3, [2, 9], 4),
    (TABLE, True, 7, 1, [], 1),
    (TABLE, True, 8, 2, [], 0),
    (PLAIN, False, 0, 2, [4, 7], 2),
    (PLAIN, False, 1, 2, [7, 2], 2),
    (PLAIN, False, 3, 2, [9], 1),
    (PLAIN, False, 4, 1, [], 0),
])
def test_accepted_reads_past_rejected_halves(table, rejecting, start, count, values, halves):
    taken, spanned = rng._accepted(table, rejecting, start, count)
    assert taken.tolist() == values
    assert type(spanned) is int and spanned == halves


@pytest.mark.parametrize("count", [-1, 3.0, True, None, (2, 3)], ids=repr)
def test_uniform_refuses_a_count_that_is_not_an_integer_from_zero(count):
    stream, ref = RngStream(0), twin(0)
    with pytest.raises(ConfigurationError) as refused:
        stream.uniform(count)
    assert str(refused.value) == f"uniform count must be an integer >= 0, got {count!r}"
    replay(stream, ref, FIXED_STEPS)  # the refused call drew nothing
    same(stream.uniform(np.int64(3)), ref.random(3))


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, False, -1, None], ids=repr)
def test_seeds_keys_and_split_counts_must_be_integers_from_zero(bad):
    # Each of these once ran some other stream, or split into a wrong count, silently.
    with pytest.raises(ConfigurationError):
        RngStream(bad)
    with pytest.raises(ConfigurationError):
        RngStream(0, (1, bad))
    with pytest.raises(ConfigurationError):
        RngStream(0).split(bad)


def test_numpy_integers_seed_key_and_split():
    stream = RngStream(np.uint32(7), (np.int64(2),))
    assert (stream.seed, stream.spawn_key) == (7, (2,)) and type(stream.seed) is int
    assert [c.spawn_key for c in RngStream(7).split(np.int8(2))] == [(0,), (1,)]
    assert RngStream(7).split(0) == []
    with pytest.raises(ValueError):  # ConfigurationError subclasses it, as numpy raised before
        RngStream(-1)


# ------------------------------------------------------ generations of trials

# At least three blocks per stream. After each, a uniform probe and, when
# the flag is set, a fresh iterator.
probe_lists = st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=3, max_size=5)
crossover_rates = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


def same_blocks(stream, ref, items, n, d, CR, probes):
    """Blocks of ``items`` against ``ref``, a uniform probe after each and maybe a fresh iterator.

    The probes show the stream ends where G generations of per-call draws
    leave ``ref``: a uniform call moves an owed half, and a fresh iterator
    starts where the stream stands.
    """
    for uniform_probe, fresh in probes:
        same_block(next_block(items), ref, n, d, CR)
        replay(stream, ref, [("uniform", uniform_probe)])
        if fresh:
            items = stream.trials(n, d, CR)


@examples(60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       CR=crossover_rates, before=st.lists(steps, max_size=3), probes=probe_lists)
def test_trials_match_per_call_reference(seed, n, d, CR, before, probes):
    # Earlier draws start the first block mid-block, next to a refill or on
    # an owed half; the iterator, made before them, has drawn nothing.
    stream, ref = RngStream(seed), twin(seed)
    items = stream.trials(n, d, CR)
    replay(stream, ref, before)
    same_blocks(stream, ref, items, n, d, CR, probes)


def edge_half(m):
    """The uint32 half ``x`` whose ``x * m`` leaves numpy's threshold for range ``m`` in its low 32 bits.

    That leftover is the lowest that Lemire's method accepts, so a decoder
    that rejects it, or accepts the one below, draws other values.
    """
    threshold = ((1 << 32) - m) % m
    k = (m & -m).bit_length() - 1  # m's factors of two, which the threshold shares
    return (threshold >> k) * pow(m >> k, -1, 1 << 32 - k) % (1 << 32 - k)


class CraftedBits:
    """PCG64 words with shares of their uint32 halves set to given values, the same for the same seed.

    ``shares`` lists ``(half, share)`` pairs. A 0 half is rejected by every
    range that is not a power of two; a 1 half decodes to 0, so rows
    collide and redraw rounds outrun the window; an :func:`edge_half` is
    accepted on the threshold.
    """

    def __init__(self, seed, shares):
        self._bits = np.random.PCG64(seed)
        self._pick = np.random.default_rng(seed + 1)
        self.halves = np.array([half for half, _ in shares], dtype="<u4")
        self.ends = np.cumsum([share for _, share in shares])

    def random_raw(self, size):
        halves = self._bits.random_raw(size).astype("<u8").view("<u4").copy()
        which = np.searchsorted(self.ends, self._pick.random(halves.size), side="right")
        hit = which < len(self.halves)
        halves[hit] = self.halves[which[hit]]
        return halves.view("<u8")


def crafted_pair(seed, shares):
    """A stream on crafted words and a :class:`NumpyPort` on the same words."""
    stream = RngStream(seed)
    stream._bitgen = CraftedBits(seed, shares)
    return stream, NumpyPort(CraftedBits(seed, shares))


@examples(40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       CR=crossover_rates,
       rejected=st.sampled_from([0.0, 0.01, 0.25]), zeros=st.sampled_from([0.0, 0.05, 0.3]),
       edges=st.sampled_from([0.0, 0.05]), before=st.lists(steps, max_size=3),
       probes=probe_lists)
def test_trials_match_per_call_draws_on_crafted_words(seed, n, d, CR, rejected, zeros, edges,
                                                      before, probes):
    # Against numpy's algorithm on the same words, as NumpyPort draws them.
    shares = [(0, rejected), (1, zeros), (edge_half(n), edges), (edge_half(d), edges)]
    stream, ref = crafted_pair(seed, shares)
    items = stream.trials(n, d, CR)
    replay(stream, ref, before)
    same_blocks(stream, ref, items, n, d, CR, probes)


@pytest.mark.parametrize("n, d", [(30, 3), (7, 5), (6, 9)])
def test_trials_accept_halves_on_the_threshold(n, d):
    # A tenth of the halves sit exactly on range n's threshold, and a tenth
    # on range d's.
    for m in (n, d):
        assert edge_half(m) * m % 2**32 == ((1 << 32) - m) % m
    shares = [(edge_half(n), 0.1), (edge_half(d), 0.1)]
    stream, ref = crafted_pair(n, shares)
    items = stream.trials(n, d, 0.5)
    for _ in range(3):
        same_block(next_block(items), ref, n, d, 0.5)
    replay(stream, ref, FIXED_STEPS)


def test_trials_rejections_owed_half_and_windows_past_the_block(monkeypatch):
    stream, ref = crafted_pair(17, [(0, 0.25), (1, 0.3)])
    # A block of trials(4, 3) leaves a half owed, so the first block below
    # starts on it.
    replay(stream, ref, [("trials", 4, 3)])
    assert stream._at % 2 == 1
    reads = []
    accepted = rng._accepted

    def recorded(values, rejecting, start, count):
        taken, halves = accepted(values, rejecting, start, count)
        reads.append((count, rejecting, len(taken), halves))
        return taken, halves

    monkeypatch.setattr(rng, "_accepted", recorded)
    # A quarter of the halves are rejected and 3 in 10 decode to 0, so the
    # donors and forced indices skip rejected halves of ranges 30 and 3 and
    # redraw rounds outrun their windows.
    items = stream.trials(30, 3, 0.0)
    sizes = []
    for _ in range(8):
        block = next_block(items)
        same_block(block, ref, 30, 3, 0.0)
        sizes.append(len(block))
    # The forced indices (30 values of range 3) read past rejected halves,
    # and so do the donor windows of range 30.
    assert any(count == 30 and rejecting and halves > count for count, rejecting, _, halves in reads)
    assert any(count != 30 and rejecting and halves > taken
               for count, rejecting, taken, halves in reads)
    # Some window ran past the buffered words, so a generation did not fit.
    assert any(taken < count for count, _, taken, _ in reads)
    assert min(sizes) >= 1
    replay(stream, ref, FIXED_STEPS)


def test_trials_refill_when_a_first_round_outruns_the_block(monkeypatch):
    # Half the halves rejected: a block can end with the halves a generation
    # spans but fewer accepted values than its first round of six triples
    # takes, so ``_donors`` gives up on the block before any redraw.
    stream, ref = crafted_pair(2, [(0, 0.5)])
    short = []
    donors = rng._donors

    def recorded(values, rejecting, start, n, window):
        short.append(len(rng._accepted(values, rejecting, start, 3 * n)[0]) < 3 * n)
        return donors(values, rejecting, start, n, window)

    monkeypatch.setattr(rng, "_donors", recorded)
    items = stream.trials(6, 1, 0.5)
    for _ in range(5):
        same_block(next_block(items), ref, 6, 1, 0.5)
    assert any(short)
    replay(stream, ref, FIXED_STEPS)


@pytest.mark.parametrize("n", [4, 5, 30])
def test_trials_in_one_dimension_draw_no_forced_index(n):
    # A single-value range draws nothing: the forced index is 0, so every
    # mask is all set, and the uniforms follow the donors directly.
    stream, ref = RngStream(n), twin(n)
    items = stream.trials(n, 1, 0.5)
    for _ in range(3):
        block = next_block(items)
        assert all(take.all() for _, take in block)
        same_block(block, ref, n, 1, 0.5)
    replay(stream, ref, FIXED_STEPS)


def test_trials_after_blocks_of_other_shapes_match_numpy():
    # Each of these blocks leaves a half owed to the next one.
    stream, ref = RngStream(23), twin(23)
    for m in (5, 6, 7, 9, 11):
        replay(stream, ref, [("trials", m, m % 3 + 1)])
        assert stream._at % 2 == 1
    items = stream.trials(30, 3, 0.5)
    for _ in range(3):
        same_block(next_block(items), ref, 30, 3, 0.5)
    replay(stream, ref, FIXED_STEPS)


def test_trials_arrays_are_the_callers():
    # No item aliases a stream buffer, and writing into a block changes no
    # later block of the same iterator or draw of the stream.
    stream, ref = RngStream(29), twin(29)
    for d in (2, 1, 2):
        items = stream.trials(30, d, 0.5)
        for _ in range(3):
            block = next_block(items)
            same_block(block, ref, 30, d, 0.5)
            for array in (block[0][0].base, block[0][1].base):
                assert not any(np.shares_memory(array, buffer)
                               for buffer in (stream._unit, stream._halves))
                array[...] = 0
    replay(stream, ref, FIXED_STEPS)


@pytest.mark.parametrize("n, d", [(3, 2), (6, 0), (6, -1), (6.0, 2), (6, 2.5), (True, 2),
                                  (6, True)], ids=repr)
def test_trials_refuse_what_per_call_draws_refuse(n, d):
    # (6, -1) once returned a (6, 0) uniforms array and left the stream behind
    # the words its donors took, (6, 0) returned values where numpy's
    # integers(0, 0) raises, and 6.0 or 2.5 ended in a raw TypeError. A
    # numpy int32 d overflowed in the decoder; numpy integers now work. The
    # refusal comes at the call, before any item is taken.
    what, value, low = ("n", n, 4) if type(n) is not int or n < 4 else ("d", d, 1)
    stream, ref = RngStream(3), twin(3)
    with pytest.raises(ConfigurationError) as refused:
        stream.trials(n, d, 0.5)
    assert str(refused.value) == f"trials {what} must be an integer >= {low}, got {value!r}"
    replay(stream, ref, FIXED_STEPS)  # the refused call drew nothing
    items = stream.trials(np.int64(6), np.int32(2), 0.5)
    for _ in range(3):
        same_block(next_block(items), ref, 6, 2, 0.5)


@pytest.mark.parametrize("CR", [float("nan"), -0.1, 1.1, True, "0.5"], ids=repr)
def test_trials_refuse_a_crossover_rate_outside_zero_to_one(CR):
    stream, ref = RngStream(4), twin(4)
    with pytest.raises(ConfigurationError) as refused:
        stream.trials(6, 2, CR)
    assert str(refused.value) == f"trials CR must be a number in [0, 1], got {CR!r}"
    replay(stream, ref, FIXED_STEPS)  # the refused call drew nothing
    # numpy numbers and the ends of [0, 1] are taken
    for CR in (np.float32(0.25), np.float64(0.75), 0, 1):
        same_block(next_block(stream.trials(6, 2, CR)), ref, 6, 2, CR)
