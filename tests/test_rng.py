"""RngStream against numpy's Generator: same calls, same values, bit for bit.

``RngStream`` decodes PCG64 words itself, in blocks, instead of calling
``Generator``. These tests make the same call sequence on an ``RngStream``
and on ``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` and
compare every returned value, its type, dtype and shape. ``trial_draws``,
one generation's draws in one call, is compared with the per-call draws it
stands for, on numpy's words and on crafted words that force its rare
paths.
"""

import numpy as np
import pytest
from conftest import examples
from hypothesis import given
from hypothesis import strategies as st

from multide import ConfigurationError, RngStream
from multide.rng import BLOCK, TABLES

# 2**31 + 1 rejects about half of all uint32 draws. At 3 * 2**30 a quarter
# of the draws land exactly on the rejection threshold, which pins the
# strict comparison. 2**32 takes the uint32 draws raw.
RANGES = [1, 2, 3, 30, 2**31 + 1, 3 * 2**30, 2**32]


def twin(seed, spawn_key=()):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def same(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(theirs, np.ndarray):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


def replay(stream, ref, calls):
    """Make each call on both streams and compare the results."""
    for kind, low, n, size in calls:
        if kind == "uniform":
            same(stream.uniform(size), ref.random(size))
        else:
            same(stream.integers(low, low + n, size), ref.integers(low, low + n, size=size))


sizes = st.one_of(
    st.none(),
    st.integers(0, 41),  # odd and even counts
    st.tuples(st.integers(0, 12), st.integers(1, 3)),
    st.integers(BLOCK // 2, 2 * BLOCK),  # crosses block refills
)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("uniform"), st.just(0), st.just(0), sizes),
        st.tuples(st.just("integers"), st.integers(-5, 5), st.sampled_from(RANGES), sizes),
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


FIXED_CALLS = [("integers", 0, 30, (31, 3)), ("uniform", 0, 0, (30, 2)),
               ("integers", 0, 2, 31), ("integers", 0, 2**31 + 1, 9),
               ("uniform", 0, 0, None), ("integers", 0, 30, None),
               ("uniform", 0, 0, 3 * BLOCK), ("integers", 3, 2**32, (5, 3)),
               ("integers", 0, 3 * 2**30, 11)]


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
    replay(stream, ref, [("integers", 0, 30, 3), ("uniform", 0, 0, BLOCK - 2),
                         ("integers", 0, 30, 5), ("uniform", 0, 0, 4)])
    replay(stream, ref, [("integers", 0, 2**31 + 1, 2 * BLOCK + 1), ("uniform", 0, 0, 7),
                         ("integers", 0, 30, 1), ("integers", 0, 3, BLOCK)])


def test_more_ranges_than_tables_in_one_block_match_numpy():
    stream, ref = RngStream(13, (4,)), twin(13, (4,))
    # Shuffle-like draws change the range on every call; past TABLES
    # ranges a block decodes each call's halves alone, rejections included.
    ranges = list(range(2, 3 * TABLES)) + [2**31 + 1, 3 * 2**30, 2**32] * 20
    replay(stream, ref, [("integers", 0, n, 3) for n in ranges])
    assert len(stream._tables) <= TABLES
    replay(stream, ref, [("uniform", 0, 0, 5), ("integers", 1, 2**31 + 1, 7),
                         ("integers", 0, 2, 1), ("integers", 0, 30, (4, 3))])


def test_mutating_returned_arrays_leaves_later_draws_alone():
    stream, ref = RngStream(5, (1, 0)), twin(5, (1, 0))
    for _ in range(40):
        for n in (30, 2, 2**31 + 1):
            drawn = stream.integers(0, n, size=(3, 3))
            same(drawn, ref.integers(0, n, size=(3, 3)))
            drawn[...] = -1
        drawn = stream.uniform(size=7)
        same(drawn, ref.random(7))
        drawn[...] = 2.0
    same(stream.integers(0, 30, size=50), ref.integers(0, 30, size=50))


def test_single_value_range_draws_nothing():
    stream = RngStream(9)
    same(stream.integers(5, 6, size=4), np.array([5, 5, 5, 5]))
    same(stream.integers(5, 6), np.int64(5))
    same(stream.uniform(), twin(9).random())


def test_unsupported_ranges_are_refused():
    stream = RngStream(0)
    with pytest.raises(ConfigurationError):
        stream.integers(0, 2**32 + 1)
    with pytest.raises(ConfigurationError):
        stream.integers(-(2**40), 2**40, size=3)
    for low, high in ((3, 3), (4, 2)):
        with pytest.raises(ValueError):
            stream.integers(low, high, size=3)
    with pytest.raises(ValueError):
        stream.uniform(size=(-1, 2))


# ------------------------------------------------------- one generation's draws

def reference_trial_draws(integers, uniform, n, d):
    """``trial_draws`` as one call per draw: donors and their redraw rounds, forced indices, uniforms."""
    own = np.arange(n)
    r = integers(0, n, (n, 3))
    while True:
        bad = ((r[:, 0] == own) | (r[:, 1] == own) | (r[:, 2] == own)
               | (r[:, 0] == r[:, 1]) | (r[:, 0] == r[:, 2]) | (r[:, 1] == r[:, 2]))
        if not bad.any():
            return r.ravel().tolist(), integers(0, d, n), uniform((n, d))
        r[bad] = integers(0, n, (int(bad.sum()), 3))


def per_call_draws(ref, n, d):
    """The reference draws from ``ref``, a numpy ``Generator`` or a :class:`PerCall`."""
    return reference_trial_draws(lambda lo, hi, size: ref.integers(lo, hi, size=size), ref.random, n, d)


def same_draws(ours, theirs):
    assert ours[0] == theirs[0] and all(type(v) is int for v in ours[0])
    for got, want in zip(ours[1:], theirs[1:]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@examples(60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       before=st.lists(st.tuples(st.sampled_from(["uniform", "integers"]),
                                 st.integers(0, BLOCK + 3)), max_size=3),
       probes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
def test_trial_draws_match_per_call_reference(seed, n, d, before, probes):
    # Earlier draws start the first generation mid-block, next to a refill
    # or on an owed half; each generation's probe draws (odd integer counts
    # leave a half owed, none lets generations follow each other directly)
    # show the stream ends where the per-call draws leave numpy's.
    stream, ref = RngStream(seed), twin(seed)
    replay(stream, ref, [(kind, 0, 30, size) for kind, size in before])
    for integer_probe, uniform_probe in probes:
        same_draws(stream.trial_draws(n, d), per_call_draws(ref, n, d))
        replay(stream, ref, [("integers", 0, n, integer_probe), ("uniform", 0, 0, uniform_probe)])


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
    """An RngStream under numpy's ``Generator`` names, drawn one call per draw."""

    def __init__(self, stream):
        self.integers, self.random = stream.integers, stream.uniform


def crafted_pair(seed, rejected, zeros):
    """A stream on crafted words and a :class:`PerCall` twin on the same words."""
    pair = RngStream(seed), RngStream(seed)
    for stream in pair:
        stream._bitgen = CraftedBits(seed, rejected, zeros)
    return pair[0], PerCall(pair[1])


@examples(40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), d=st.integers(1, 9),
       rejected=st.sampled_from([0.0, 0.01, 0.25]), zeros=st.sampled_from([0.0, 0.05, 0.3]),
       ranges=st.lists(st.integers(2, 70), max_size=TABLES + 1),
       probes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=15))
def test_trial_draws_match_per_call_draws_on_crafted_words(seed, n, d, rejected, zeros, ranges, probes):
    # Against the per-call draws of a twin stream on the same words, which
    # the tests above check against numpy. Other ranges drawn first may
    # leave the block no table for n or d.
    stream, ref = crafted_pair(seed, rejected, zeros)
    replay(stream, ref, [("integers", 0, m, 1) for m in ranges])
    for integer_probe, uniform_probe in probes:
        same_draws(stream.trial_draws(n, d), per_call_draws(ref, n, d))
        replay(stream, ref, [("integers", 0, n, integer_probe), ("uniform", 0, 0, uniform_probe)])


def test_trial_draws_rejections_refill_and_owed_half():
    stream, ref = crafted_pair(17, 0.25, 0.3)
    takes, places = [], []
    take = stream._take

    def recorded_take(n, count, offset=0):
        values, halves = take(n, count, offset)
        takes.append((n, count, offset, halves))
        return values, halves

    stream._take = recorded_take
    # A quarter of the halves are rejected and 3 in 10 decode to 0, so
    # generations retake the window past the 159 values of n = 30, recount
    # the halves the donors took and read forced indices past rejected
    # halves. The first generation starts on an owed half.
    replay(stream, ref, [("integers", 0, 30, 1), ("uniform", 0, 0, BLOCK - 300)])
    assert stream._half == 1
    for _ in range(40):
        same_draws(stream.trial_draws(30, 3), per_call_draws(ref, 30, 3))
        places.append(stream._pos)
    assert any(n == 30 and count > 159 and not offset for n, count, offset, _ in takes)
    assert any(n == 3 and offset and halves > count for n, count, offset, halves in takes)
    assert any(b < a for a, b in zip(places, places[1:]))  # block refills
    replay(stream, ref, FIXED_CALLS)


def test_trial_draws_without_a_table_for_the_block():
    stream, ref = RngStream(23), twin(23)
    replay(stream, ref, [("integers", 0, m, 1) for m in (5, 6, 7, 9)])
    same_draws(stream.trial_draws(30, 3), per_call_draws(ref, 30, 3))
    assert sorted(stream._tables) == [5, 6, 7, 9]  # 30 and 3 were decoded alone
    replay(stream, ref, FIXED_CALLS)
