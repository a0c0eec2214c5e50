"""Iterative objective modification: repulsion penalties and residual objectives.

The penalty adds, around every foreign subpopulation's best approximation,
a discontinuous bump of height ``magnitude * exp(-distance)`` inside a fixed
radius. A subpopulation never penalizes proximity to its own anchor, so its
search stays free while the others' neighborhoods become unattractive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _squared_distances, as_rows
from .errors import ConfigurationError
from .rng import _real, _shown, is_count


@dataclass(frozen=True)
class PenaltyParams:
    """Magnitude and radius of the repulsion regions.

    ``magnitude`` should dominate the objective's dynamic range near the
    minima (the floor of an active penalty is magnitude * exp(-radius));
    that is guidance, not a hard check. ``radius`` must stay below the
    separation of the minimizers being sought, or a repulsion region will
    swallow a solution that has not been found yet.
    """

    magnitude: float
    radius: float

    def __post_init__(self):
        # An infinite magnitude would score every point outside all radii inf * 0 = NaN.
        _real(self.magnitude, "penalty magnitude", 0, np.inf, closed=False)
        _real(self.radius, "penalty radius", 0, np.inf, closed=False)


def penalty_batch(pts: np.ndarray, own_index: int, anchors: np.ndarray,
                  params: PenaltyParams) -> np.ndarray:
    """Repulsion penalty at each row of ``pts`` from every foreign anchor.

    ``anchors`` is an (nsp, d) array whose row j is subpopulation j's
    current best, with d >= 1. A row's penalty sums ``magnitude * exp(-delta)``
    over the anchors at distance ``delta <= radius``. The caller's own anchor
    (row ``own_index``) is excluded by index, so two subpopulations that
    happen to share a best point still repel each other.

    The work is laid out anchor by row, one row per anchor and one column
    per point, on :func:`multide.core._squared_distances`. The own row's
    distance is set to +inf, so its term is 0, as is that of a distance
    past the float range. Fewer than 8 anchor terms are added one by one,
    as numpy adds them, and 8 or more by numpy's ``add.reduce`` over a
    C-contiguous copy. So on any memory layout the result has the bits of
    ``(exp(-delta) * active).sum(axis=1)`` over the C-ordered (n, K)
    distances, K = nsp - 1, and a row's penalty does not depend on the rows
    stacked beside it. A NaN coordinate, or infinities of one sign meeting,
    leaves a distance undefined and raises :class:`ConfigurationError`.
    """
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or not anchors.shape[1]:
        raise ConfigurationError("anchors must be an (nsp, d) array matching the points' dimension")
    pts = as_rows(pts, anchors.shape[1])
    if not is_count(own_index) or not 0 <= own_index < len(anchors):
        raise ConfigurationError(
            f"own_index must be an integer naming an anchor row, got {_shown(own_index)}")
    delta = _squared_distances(anchors, pts)
    # Summed after the root: a sum of squares can overflow, one of their roots cannot.
    if math.isnan(np.add.reduce(np.sqrt(delta, out=delta), axis=None)):
        raise ConfigurationError("a point or anchor holds NaN, or infinities of one sign meet")
    delta[own_index] = np.inf
    active = delta <= params.radius
    if not np.count_nonzero(active):
        # What the lines below give, since every term is multiplied by 0.
        return np.zeros(len(pts))
    np.negative(delta, out=delta)
    np.exp(delta, out=delta)
    delta *= active
    # Below 8 rows an axis-0 reduce adds them one by one too, in one call,
    # and the own row's 0 changes no sum; from 8 up that row must go, and
    # each point's terms are summed as one contiguous run.
    terms = (np.add.reduce(delta, axis=0) if len(delta) < 8
             else np.add.reduce(np.delete(delta, own_index, axis=0).T.copy(), axis=1))
    return params.magnitude * terms


class ResidualObjective:
    """A nonlinear system as its sum of squared residuals; zero exactly at roots.

    Each residual takes the coordinate vector. When ``vectorized`` is true
    the residuals must also accept a (d, n) array of column points and
    return n values; only then is there a ``batch`` method, so engines
    evaluate trial batches in one call. Otherwise the engines evaluate it
    row by row, as they do any plain callable.
    """

    def __init__(self, residuals, vectorized: bool = False):
        self.residuals = tuple(residuals)
        if not self.residuals:
            raise ConfigurationError("a nonlinear system needs at least one residual")
        if vectorized:
            self.batch = self._columns

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(sum(float(f(x)) ** 2 for f in self.residuals))

    def _columns(self, pts: np.ndarray) -> np.ndarray:
        cols = np.asarray(pts, dtype=float).T
        return sum(np.asarray(f(cols), dtype=float) ** 2 for f in self.residuals)
