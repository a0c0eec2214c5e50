"""The engine's vectorized layers against reference copies of their plain form.

The references below are the straightforward formulations of
``generate_trials``, ``penalty_batch`` and ``_spreading``. The engine's
versions are tuned to make fewer numpy calls, but must return the same
bits and consume the same random draws, or seeded runs would change.
"""

import math

import numpy as np
import pytest

from multide import Bounds, PenaltyParams, RngStream
from multide.core import _spreading, generate_trials
from multide.deflation import penalty_batch


def reference_generate_trials(coords, F, CR, rng):
    n, d = coords.shape
    own = np.arange(n)
    r = rng.integers(0, n, size=(n, 3))
    while True:
        bad = (
            (r[:, 0] == own) | (r[:, 1] == own) | (r[:, 2] == own)
            | (r[:, 0] == r[:, 1]) | (r[:, 0] == r[:, 2]) | (r[:, 1] == r[:, 2])
        )
        if not bad.any():
            break
        r[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
    donors = coords[r[:, 0]] + F * (coords[r[:, 1]] - coords[r[:, 2]])
    rnbr = rng.integers(0, d, size=n)
    take = rng.uniform(size=(n, d)) <= CR
    take[own, rnbr] = True
    return np.where(take, donors, coords)


def reference_penalty_batch(pts, own_index, anchors, params):
    cols = [k for k in range(len(anchors)) if k != own_index]
    if not cols:
        return np.zeros(len(pts))
    foreign = anchors[cols].T
    diff = pts[:, :, None] - foreign[None, :, :]
    delta = np.sqrt(np.sum(diff * diff, axis=1))
    active = delta <= params.radius
    return params.magnitude * np.sum(np.exp(-delta) * active, axis=1)


def reference_spreading(coords, best, bounds):
    span = bounds.span
    rel = (coords - best) / span
    numer = np.sqrt(np.sum(rel * rel, axis=1))
    best_rel = best / span
    denom = math.sqrt(float(np.dot(best_rel, best_rel)))
    if denom < 1e-12:
        dist = np.sqrt(np.sum((coords - best) ** 2, axis=1))
        return float(dist.mean() / bounds.diagonal)
    return float((numer / denom).mean())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4, 5, 15, 30])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generate_trials_matches_reference_draw_for_draw(n, d):
    for seed in range(150):
        coords = RngStream(10_000 + seed).uniform(size=(n, d)) * 4.0 - 2.0
        a, b = RngStream(seed), RngStream(seed)
        got = generate_trials(coords, 0.7, 0.4, a)
        want = reference_generate_trials(coords, 0.7, 0.4, b)
        assert same_bits(got, want)
        # both consumed exactly the same draws
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("nsp", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_penalty_batch_matches_reference_bit_for_bit(nsp, d):
    rng = RngStream(nsp * 10 + d)
    for trial in range(20):
        anchors = (rng.uniform(size=(d, nsp)) * 2.0 - 1.0).T
        pts = rng.uniform(size=(1 + trial % 7, d)) * 2.0 - 1.0
        for radius in (1e-9, 0.3, 0.8, 5.0):  # none, some and all anchors active
            params = PenaltyParams(magnitude=2.0e3, radius=radius)
            for own in range(nsp):
                got = penalty_batch(pts, own, anchors, params)
                assert same_bits(got, reference_penalty_batch(pts, own, anchors, params))


def test_penalty_batch_rows_do_not_depend_on_batch_size():
    # selection scores trials and parents in one stacked call
    rng = RngStream(5)
    params = PenaltyParams(magnitude=2.0e3, radius=0.8)
    for d in (2, 3, 9):
        anchors = (rng.uniform(size=(d, 4)) * d).T
        a = rng.uniform(size=(6, d))
        b = rng.uniform(size=(6, d))
        for own in range(4):
            both = penalty_batch(np.concatenate((a, b)), own, anchors, params)
            assert same_bits(both[:6], reference_penalty_batch(a, own, anchors, params))
            assert same_bits(both[6:], reference_penalty_batch(b, own, anchors, params))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_spreading_matches_reference_bit_for_bit(d):
    # The engine has always summed a distance's squared terms dimension by
    # dimension, as the reference does on a Fortran-ordered population;
    # numpy sums a contiguous row of 8 or more terms in another order.
    bounds = Bounds(np.full(d, -3.0), np.linspace(1.0, 4.0, d))
    rng = RngStream(d)
    for n in (4, 9, 30):
        coords = bounds.lower + rng.uniform(size=(n, d)) * bounds.span
        for best in (coords[0], np.zeros(d)):  # regular and degenerate denominator
            want = reference_spreading(np.asfortranarray(coords), best, bounds)
            assert _spreading(coords, best, bounds) == want
            assert _spreading(np.asfortranarray(coords), best, bounds) == want
