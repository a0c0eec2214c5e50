"""RngStream against numpy's Generator: same calls, same values, bit for bit.

``RngStream`` decodes PCG64 words itself, in blocks, instead of calling
``Generator``. These tests make the same call sequence on an ``RngStream``
and on ``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` and
compare every returned value, its type, dtype and shape. ``trials``,
which decodes a block of generations' draws at once, is compared
generation by generation with the per-call draws it stands for, on
numpy's words and on crafted words that force its rare paths.
"""

import numpy as np
import pytest
from conftest import examples, reference_trial_draws, twin
from hypothesis import given
from hypothesis import strategies as st

from multide import ConfigurationError, RngStream, rng
from multide.rng import BLOCK

# 2**31 + 1 rejects about half of all uint32 draws. At 3 * 2**30 a quarter
# of the draws land exactly on the rejection threshold, which pins the
# strict comparison. 2**32 takes the uint32 draws raw.
RANGES = [1, 2, 3, 30, 2**31 + 1, 3 * 2**30, 2**32]


def same(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(theirs, np.ndarray):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


def replay(stream, ref, calls):
    """Make each ``(kind, n, count)`` call on both streams and compare the results."""
    for kind, n, count in calls:
        if kind == "uniform":
            same(stream.uniform(count), ref.random(count))
        else:
            same(stream.integers(n, count), ref.integers(0, n, size=count))


counts = st.one_of(
    st.integers(0, 41),  # odd and even counts
    st.integers(BLOCK // 2, 2 * BLOCK),  # crosses block refills
)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("uniform"), st.just(0), counts),
        st.tuples(st.just("integers"), st.sampled_from(RANGES), counts),
    ),
    min_size=1,
    max_size=25,
)


@examples(80)
@given(seed=st.integers(0, 2**32 - 1),
       spawn_key=st.lists(st.integers(0, 7), max_size=3).map(tuple),
       calls=calls)
def test_interleaved_calls_match_numpy(seed, spawn_key, calls):
    replay(RngStream(seed, spawn_key), twin(seed, spawn_key), calls)


FIXED_CALLS = [("integers", 30, 93), ("uniform", 0, 60), ("integers", 2, 31),
               ("integers", 2**31 + 1, 9), ("uniform", 0, 1), ("integers", 30, 1),
               ("uniform", 0, 3 * BLOCK), ("integers", 2**32 - 3, 15),
               ("integers", 3 * 2**30, 11)]


def test_unkeyed_seed_and_split_children_match_numpy():
    replay(RngStream(20240611), twin(20240611), FIXED_CALLS)
    for j, child in enumerate(RngStream(7).split(3)):
        assert child.spawn_key == (j,)
        replay(child, twin(7, (j,)), FIXED_CALLS)


def test_refill_while_a_half_word_is_owed():
    stream, ref = RngStream(11, (2,)), twin(11, (2,))
    # Three uint32 halves leave the third word's high half owed; the
    # uniforms then use up the block, so the next integer draw starts with
    # the owed half and continues in a fresh block.
    replay(stream, ref, [("integers", 30, 3), ("uniform", 0, BLOCK - 2),
                         ("integers", 30, 5), ("uniform", 0, 4)])
    replay(stream, ref, [("integers", 2**31 + 1, 2 * BLOCK + 1), ("uniform", 0, 7),
                         ("integers", 30, 1), ("integers", 3, BLOCK)])


def test_many_ranges_in_one_block_match_numpy():
    stream, ref = RngStream(13, (4,)), twin(13, (4,))
    # Shuffle-like draws change the range on every call, and each new range
    # decodes a table of the whole block, rejections included.
    ranges = list(range(2, 12)) + [2**31 + 1, 3 * 2**30, 2**32] * 20
    replay(stream, ref, [("integers", n, 3) for n in ranges])
    replay(stream, ref, [("uniform", 0, 5), ("integers", 2**31, 7),
                         ("integers", 2, 1), ("integers", 30, 12)])


def test_mutating_returned_arrays_leaves_later_draws_alone():
    stream, ref = RngStream(5, (1, 0)), twin(5, (1, 0))
    for _ in range(40):
        for n in (30, 2, 2**31 + 1):
            drawn = stream.integers(n, 9)
            same(drawn, ref.integers(0, n, size=9))
            drawn[...] = -1
        drawn = stream.uniform(7)
        same(drawn, ref.random(7))
        drawn[...] = 2.0
    same(stream.integers(30, 50), ref.integers(0, 30, size=50))


def test_single_value_range_draws_nothing():
    stream = RngStream(9)
    drawn = stream.integers(1, 4)
    same(drawn, np.zeros(4, dtype=np.int64))
    drawn[...] = 5  # the caller's own array
    same(stream.integers(1, 4), np.zeros(4, dtype=np.int64))
    same(stream.uniform(1), twin(9).random(1))


# A block table as ``rng._decode`` gives it, -1 marking a rejected half, and
# one that rejects nothing.
TABLE, PLAIN = np.array([4, -1, -1, 7, 2, -1, 9, -1]), np.array([4, 7, 2, 9])


# (table, rejecting, start, count) -> the values read and the halves they span:
# reads ending on a value after rejected ones, reads from the middle, short
# reads where the block runs out first (every value left and the rest of the
# block) and reads of nothing.
@pytest.mark.parametrize("table, rejecting, start, count, values, halves", [
    (TABLE, True, 0, 2, [4, 7], 4),
    (TABLE, True, 0, 4, [4, 7, 2, 9], 7),
    (TABLE, True, 2, 2, [7, 2], 3),
    (TABLE, True, 4, 1, [2], 1),
    (TABLE, True, 5, 1, [9], 2),
    (TABLE, True, 4, 3, [2, 9], 4),
    (TABLE, True, 7, 1, [], 1),
    (TABLE, True, 8, 2, [], 0),
    (TABLE, True, 1, 0, [], 0),
    (PLAIN, False, 0, 2, [4, 7], 2),
    (PLAIN, False, 1, 2, [7, 2], 2),
    (PLAIN, False, 3, 2, [9], 1),
    (PLAIN, False, 4, 1, [], 0),
    (PLAIN, False, 2, 0, [], 0),
])
def test_accepted_reads_past_rejected_halves(table, rejecting, start, count, values, halves):
    taken, spanned = rng._accepted(table, rejecting, start, count)
    assert taken.tolist() == values
    assert type(spanned) is int and spanned == halves


def test_unsupported_ranges_are_refused():
    # A range outside 1 to 2**32, or a range or count that is not an integer
    # >= 0 (a bool included), is refused and draws nothing.
    bad_counts = (-1, 3.0, True, None, (2, 3))
    calls = [("integers", (n, 3)) for n in (2**32 + 1, 2**41, 0, -2, 30.0, True, None)]
    calls += [("integers", (30, count)) for count in bad_counts]
    calls += [("uniform", (count,)) for count in bad_counts]
    stream, ref = RngStream(0), twin(0)
    for method, args in calls:
        with pytest.raises(ConfigurationError):
            getattr(stream, method)(*args)
        replay(stream, ref, [("integers", 30, 1), ("uniform", 0, 1)])
    same(stream.integers(np.int32(30), np.uint8(3)), ref.integers(0, 30, size=3))
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

def per_call_draws(ref, n, d):
    """One generation's reference draws from ``ref``, a numpy ``Generator`` or a :class:`PerCall`."""
    return reference_trial_draws(ref.integers, ref.random, n, d)


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
        r, f, u = per_call_draws(ref, n, d)
        want = u <= CR
        want[np.arange(n), f] = True  # at CR = 0 nothing else is set, so the forced indices show
        assert rows.T.ravel().tolist() == r
        assert np.array_equal(take, want)


# At least three blocks per stream, with probe draws between them.
probe_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=5)
crossover_rates = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@examples(60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       CR=crossover_rates,
       before=st.lists(st.tuples(st.sampled_from(["uniform", "integers"]),
                                 st.integers(0, BLOCK + 3)), max_size=3),
       probes=probe_lists)
def test_trials_match_per_call_reference(seed, n, d, CR, before, probes):
    # Earlier draws start the first block mid-block, next to a refill or on
    # an owed half; the iterator, made before them, has drawn nothing. After
    # each of 3-5 blocks, probe draws (odd integer counts leave a half owed,
    # a uniform call moves it, none lets blocks follow each other directly)
    # show the stream ends where G generations of per-call draws leave numpy's.
    stream, ref = RngStream(seed), twin(seed)
    items = stream.trials(n, d, CR)
    replay(stream, ref, [(kind, 30, count) for kind, count in before])
    for integer_probe, uniform_probe in probes:
        same_block(next_block(items), ref, n, d, CR)
        replay(stream, ref, [("integers", n, integer_probe), ("uniform", 0, uniform_probe)])


class CraftedBits:
    """PCG64 words with a share of their uint32 halves replaced, the same for the same seed.

    A 0 half is rejected by every range that is not a power of two, and a
    1 half decodes to 0, so rows collide and redraw rounds outrun the window.
    """

    def __init__(self, seed, rejected, zeros):
        self._bits = np.random.PCG64(seed)
        self._pick = np.random.default_rng(seed + 1)
        self.rejected, self.zeros = rejected, zeros

    def random_raw(self, size):
        halves = self._bits.random_raw(size).astype("<u8").view("<u4").copy()
        roll = self._pick.random(halves.size)
        halves[roll < self.rejected + self.zeros] = 1
        halves[roll < self.rejected] = 0
        return halves.view("<u8")


class PerCall:
    """An RngStream under numpy's ``Generator`` names and forms, drawn one call per draw."""

    def __init__(self, stream):
        self.stream = stream

    def integers(self, low, high, size):
        return low + self.stream.integers(high - low, int(np.prod(size))).reshape(size)

    def random(self, size):
        return self.stream.uniform(int(np.prod(size))).reshape(size)


def crafted_pair(seed, rejected, zeros):
    """A stream on crafted words and a :class:`PerCall` twin on the same words."""
    pair = RngStream(seed), RngStream(seed)
    for stream in pair:
        stream._bitgen = CraftedBits(seed, rejected, zeros)
    return pair[0], PerCall(pair[1])


@examples(40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       CR=crossover_rates,
       rejected=st.sampled_from([0.0, 0.01, 0.25]), zeros=st.sampled_from([0.0, 0.05, 0.3]),
       ranges=st.lists(st.integers(2, 70), max_size=5), probes=probe_lists)
def test_trials_match_per_call_draws_on_crafted_words(seed, n, d, CR, rejected, zeros, ranges,
                                                      probes):
    # Against the per-call draws of a twin stream on the same words, which
    # the tests above check against numpy. Other ranges drawn first give
    # the block tables before those of n and d.
    stream, ref = crafted_pair(seed, rejected, zeros)
    replay(stream, ref, [("integers", m, 1) for m in ranges])
    items = stream.trials(n, d, CR)
    for integer_probe, uniform_probe in probes:
        same_block(next_block(items), ref, n, d, CR)
        replay(stream, ref, [("integers", n, integer_probe), ("uniform", 0, uniform_probe)])


def test_trials_rejections_owed_half_and_windows_past_the_block(monkeypatch):
    stream, ref = crafted_pair(17, 0.25, 0.3)
    reads = []
    accepted = rng._accepted

    def recorded(values, rejecting, start, count):
        taken, halves = accepted(values, rejecting, start, count)
        reads.append((count, rejecting, len(taken), halves))
        return taken, halves

    monkeypatch.setattr(rng, "_accepted", recorded)
    # A quarter of the halves are rejected and 3 in 10 decode to 0, so the
    # donors and forced indices skip rejected halves of ranges 30 and 3 and
    # redraw rounds outrun their windows. The first block starts on an
    # owed half.
    replay(stream, ref, [("integers", 30, 1), ("uniform", 0, BLOCK - 300)])
    assert stream._at % 2 == 1
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
    replay(stream, ref, FIXED_CALLS)


def test_trials_refill_when_a_first_round_outruns_the_block(monkeypatch):
    # Half the halves rejected: a block can end with the halves a generation
    # spans but fewer accepted values than its first round of six triples
    # takes, so ``_donors`` gives up on the block before any redraw.
    stream, ref = crafted_pair(2, 0.5, 0.0)
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
    replay(stream, ref, FIXED_CALLS)


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
    replay(stream, ref, FIXED_CALLS)


def test_trials_after_integers_of_other_ranges_match_numpy():
    stream, ref = RngStream(23), twin(23)
    replay(stream, ref, [("integers", m, 1) for m in (5, 6, 7, 9, 11)])
    items = stream.trials(30, 3, 0.5)
    for _ in range(3):
        same_block(next_block(items), ref, 30, 3, 0.5)
    replay(stream, ref, FIXED_CALLS)


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
    replay(stream, ref, FIXED_CALLS)


@pytest.mark.parametrize("n, d", [(3, 2), (6, 0), (6, -1), (6.0, 2), (6, 2.5), (True, 2),
                                  (6, True)], ids=repr)
def test_trials_refuse_what_per_call_draws_refuse(n, d):
    # (6, -1) once returned a (6, 0) uniforms array and left the stream behind
    # the words its donors took, (6, 0) returned values where numpy's
    # integers(0, 0) raises, and 6.0 or 2.5 ended in a raw TypeError. A
    # numpy int32 d overflowed in the decoder; numpy integers now work. The
    # refusal comes at the call, before any item is taken.
    stream, ref = RngStream(3), twin(3)
    with pytest.raises(ConfigurationError, match="must be an integer"):
        stream.trials(n, d, 0.5)
    replay(stream, ref, FIXED_CALLS)  # the refused call drew nothing
    items = stream.trials(np.int64(6), np.int32(2), 0.5)
    for _ in range(3):
        same_block(next_block(items), ref, 6, 2, 0.5)


@pytest.mark.parametrize("CR", [float("nan"), -0.1, 1.1, True, "0.5"], ids=repr)
def test_trials_refuse_a_crossover_rate_outside_zero_to_one(CR):
    stream, ref = RngStream(4), twin(4)
    with pytest.raises(ConfigurationError, match=r"trials CR must be a number in \[0, 1\]"):
        stream.trials(6, 2, CR)
    replay(stream, ref, FIXED_CALLS)  # the refused call drew nothing
    # numpy numbers and the ends of [0, 1] are taken
    for CR in (np.float32(0.25), np.float64(0.75), 0, 1):
        same_block(next_block(stream.trials(6, 2, CR)), ref, 6, 2, CR)
