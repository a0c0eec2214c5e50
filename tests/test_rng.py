"""RngStream against numpy's Generator: same calls, same values, bit for bit.

``RngStream`` decodes PCG64 words itself, in blocks, instead of calling
``Generator``. These tests make the same call sequence on an ``RngStream``
and on ``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` and
compare every returned value, its type, dtype and shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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


@settings(max_examples=80, deadline=None)
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
