"""Iterative objective modification: repulsion penalties and residual objectives.

The penalty adds, around every foreign subpopulation's best approximation,
a discontinuous bump of height ``magnitude * exp(-distance)`` inside a fixed
radius. A subpopulation never penalizes proximity to its own anchor, so its
search stays free while the others' neighborhoods become unattractive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


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
        if not 0.0 < self.magnitude < np.inf:
            raise ConfigurationError("penalty magnitude must be positive and finite")
        if not self.radius > 0.0:
            raise ConfigurationError("penalty radius must be positive")


def penalty_batch(pts: np.ndarray, own_index: int, anchors: np.ndarray,
                  params: PenaltyParams) -> np.ndarray:
    """Repulsion penalty at each row of ``pts`` from every foreign anchor.

    ``anchors`` is an (nsp, d) array whose row j is subpopulation j's
    current best. A row's penalty sums ``magnitude * exp(-delta)`` over the
    anchors at distance ``delta <= radius``. The caller's own anchor (row
    ``own_index``) is excluded by index, so two subpopulations that happen
    to share a best point still repel each other. Rows are independent:
    stacking two point sets and splitting the result gives each set's
    penalties bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != pts.shape[1]:
        raise ConfigurationError("anchors must be an (nsp, d) array matching the points' dimension")
    if not 0 <= own_index < len(anchors):
        raise ConfigurationError("own_index must name a row of the anchor array")
    foreign = np.concatenate((anchors[:own_index], anchors[own_index + 1:]))
    # (n, K, d) in C order: every distance sums its d squared terms along one
    # contiguous row, whatever the layout of ``pts`` or of the anchors, so a
    # row's penalty does not depend on the rows stacked beside it.
    diff = np.subtract(pts[:, None, :], foreign, order="C")
    delta = np.sqrt(np.add.reduce(diff * diff, axis=2))     # (n, K)
    active = delta <= params.radius
    if not np.count_nonzero(active):
        # What the formula below gives, since every term is multiplied by 0.
        return np.zeros(len(pts))
    return params.magnitude * np.add.reduce(np.exp(-delta) * active, axis=1)


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
