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
        if not self.magnitude > 0.0:
            raise ConfigurationError("penalty magnitude must be positive")
        if not self.radius > 0.0:
            raise ConfigurationError("penalty radius must be positive")


@dataclass
class NonlinearSystem:
    """A system of scalar residual functions over the search domain.

    Each residual takes the coordinate vector. When ``vectorized`` is true
    the residuals must also accept a (d, n) array of column points and
    return n values, which lets engines evaluate trial batches in one call.
    """

    residuals: tuple
    vectorized: bool = False

    def __post_init__(self):
        self.residuals = tuple(self.residuals)
        if len(self.residuals) < 1:
            raise ConfigurationError("a nonlinear system needs at least one residual")


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
    if len(foreign) == 0:
        return np.zeros(len(pts))
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
    """Sum of squared residuals of a nonlinear system; zero exactly at roots."""

    def __init__(self, system: NonlinearSystem):
        self.system = system

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(sum(float(f(x)) ** 2 for f in self.system.residuals))

    def batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.system.vectorized:
            cols = pts.T
            total = np.zeros(len(pts))
            for f in self.system.residuals:
                r = np.asarray(f(cols), dtype=float)
                total += r * r
            return total
        return np.array([self(p) for p in pts])


def residual_objective(system: NonlinearSystem) -> ResidualObjective:
    """Build the scalar objective whose global minima are the system's roots.

    The engines penalize it like any other objective, so the penalized
    system objective needs no extra code path.
    """
    return ResidualObjective(system)
