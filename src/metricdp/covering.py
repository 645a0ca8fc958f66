"""Greedy nets, packings, and covering-based uniformly positive measures.

The constructive chain implemented here: a maximal greedy packing at
radius r/2 yields an r-net (its r-balls must cover, else an uncovered
point's half-radius ball would have extended the packing); stacking nets
at radii 2^-1, 2^-2, ..., 2^-L and giving each level-i center weight
1/(2^i * n_i) yields a measure whose every r-ball holds at least
1/(2^i * n_i) mass for the smallest level i with 2^-i <= r.  That lower
bound is what ``positivity_lower_bound`` certifies.

Greedy scans walk points in label order, so every construction here is
deterministic and reproducible from the space file alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .measures import DiscreteMeasure
from .spaces import METRIC_TOL, FiniteMetricSpace


def max_packing(space: FiniteMetricSpace, radius) -> list:
    """Greedy maximal set of points whose closed ``radius``-balls are
    pairwise disjoint (as subsets of the space).

    Scans in label order; a point is kept iff its ball shares no point
    with any previously kept ball.  Maximality is by construction: every
    rejected point's ball meets a kept one.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return [space.labels[i] for i in _disjoint_scan(space, range(len(space)), radius)]


def _disjoint_scan(space: FiniteMetricSpace, centers, radius) -> list:
    """Positions in ``centers`` (point indices of ``space``, repeats
    allowed) kept by one greedy pass: a center is kept iff its closed
    ``radius``-ball shares no point with the balls kept before it."""
    covered = np.zeros(len(space), dtype=bool)  # union of kept balls
    kept = []
    for pos, c in enumerate(centers):
        ball = space.ball_mask(c, radius)
        if not (ball & covered).any():
            kept.append(pos)
            covered |= ball
    return kept


def _uncovered(space: FiniteMetricSpace, centers, radius) -> list:
    """Labels outside every closed ``radius``-ball around ``centers``
    (with METRIC_TOL slack), in label order."""
    idx = [space.index_of(c) for c in centers]
    covered = (space.dist[:, idx] <= radius + METRIC_TOL).any(axis=1)
    return [space.labels[i] for i in np.flatnonzero(~covered)]


def greedy_net(space: FiniteMetricSpace, radius) -> list:
    """Centers whose closed ``radius``-balls cover the space.

    Built as the greedy maximal (radius/2)-packing, so
    len(greedy_net(X, r)) == len(max_packing(X, r/2)) always.  The cover
    property is re-checked before returning; failure is impossible by the
    maximality argument and would indicate a bug, hence AssertionError
    rather than a domain error.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    centers = max_packing(space, radius / 2.0)
    missing = _uncovered(space, centers, radius)
    assert not missing, f"net at radius {radius} failed to cover {missing}"
    return centers


@dataclass(frozen=True)
class CoverLevel:
    radius: float
    centers: tuple

    @property
    def size(self) -> int:
        return len(self.centers)


class CoverHierarchy:
    """Per-level cover centers at radii 2^-1 ... 2^-L, one
    :class:`CoverLevel` per level.

    Level i's closed balls of radius 2^-i around its centers must cover
    the whole space; this is verified on construction so a hand-built
    hierarchy certifies as much as one from :func:`covering_measure`.
    """

    __slots__ = ("space", "levels")

    def __init__(self, space: FiniteMetricSpace, levels):
        levels = tuple(levels)
        if not levels:
            raise StructuralError("a hierarchy needs at least one level")
        for depth, level in enumerate(levels, start=1):
            expected = 2.0 ** (-depth)
            if abs(level.radius - expected) > METRIC_TOL:
                raise StructuralError(
                    f"level {depth} radius {level.radius} is not 2^-{depth}"
                )
            if not level.centers:
                raise StructuralError(f"level {depth} has no centers")
            missing = _uncovered(space, level.centers, level.radius)
            if missing:
                raise StructuralError(
                    f"level {depth} balls do not cover the space (missing {missing})"
                )
        self.space = space
        self.levels = levels

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __repr__(self):
        sizes = [lv.size for lv in self.levels]
        return f"CoverHierarchy(depth={self.depth}, level_sizes={sizes})"


@dataclass(frozen=True)
class PositivityBound:
    """Certified ball-mass lower bound at one radius.

    ``truncated`` means the hierarchy is too shallow for this radius and
    the bound degrades to 0: a depth-L hierarchy certifies nothing below
    radius 2^-L.
    """

    value: float
    level: int
    truncated: bool


def level_for_radius(radius) -> int:
    """Smallest level i >= 1 with 2^-i <= radius.

    Radii >= 1 (and inf) clamp to level 1 (the level-1 balls already have
    radius 1/2 <= radius).  Exact for every positive float, subnormals
    included: ``frexp`` gives the exponent e with 2^(e-1) <= radius < 2^e.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return max(1, 1 - math.frexp(radius)[1])


def positivity_lower_bound(hier: CoverHierarchy, radius) -> PositivityBound:
    """Mass that every closed ``radius``-ball is guaranteed under the
    hierarchy's covering measure.

    Every point sits within 2^-i of some level-i center, so the ball
    contains that center and therefore at least its weight 1/(2^i n_i).
    """
    i = level_for_radius(radius)
    if i > hier.depth:
        return PositivityBound(value=0.0, level=i, truncated=True)
    n_i = hier.levels[i - 1].size
    return PositivityBound(value=1.0 / (2.0**i * n_i), level=i, truncated=False)


def default_depth(space: FiniteMetricSpace) -> int:
    """Depth beyond which further levels are redundant: once 2^-L drops
    to the smallest positive distance, every level nets all points."""
    d = space.min_positive_distance()
    if d <= 0.0:
        return 1
    return level_for_radius(d)


def covering_measure(space: FiniteMetricSpace, depth: int | None = None):
    """Build the level-weighted uniformly positive measure.

    For each level i = 1..depth computes the greedy net at radius 2^-i
    and gives each of its n_i centers weight 1/(2^i * n_i).  A point in
    several nets accumulates the sum.  Total mass is exactly 1 - 2^-depth;
    :func:`tradeoff_upper_bound` divides by it to calibrate.

    Returns (measure, hierarchy).  ``depth=None`` uses
    :func:`default_depth`, which is deep enough that the last level nets
    every point, making the measure full-support.
    """
    if depth is None:
        depth = default_depth(space)
    if not (isinstance(depth, int) and depth >= 1):
        raise ValueError(f"depth must be a positive integer, got {depth}")
    if space.diameter() > 1.0 + METRIC_TOL:
        warnings.warn(
            f"space diameter {space.diameter():g} exceeds 1; level radii start "
            "at 1/2, so shallow levels may need many centers",
            stacklevel=2,
        )
    weights = np.zeros(len(space))
    levels = []
    for i in range(1, depth + 1):
        radius = 2.0 ** (-i)
        centers = greedy_net(space, radius)
        levels.append(CoverLevel(radius, tuple(centers)))
        w = 1.0 / (2.0**i * len(centers))
        for c in centers:
            weights[space.index_of(c)] += w
    measure = DiscreteMeasure(space, weights)
    hier = CoverHierarchy(space, levels)
    return measure, hier
