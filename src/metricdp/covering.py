"""Greedy nets, packings, and covering-based uniformly positive measures.

The constructive chain implemented here: a maximal greedy packing at
radius r/2 yields an r-net (its r-balls must cover, else an uncovered
point's half-radius ball would have extended the packing); stacking nets
at radii 2^-1, 2^-2, ..., 2^-L and giving each level-i center weight
1/(2^i * n_i) yields a measure whose every r-ball holds at least
1/(2^i * n_i) mass for the smallest level i with 2^-i <= r.  That lower
bound is what ``positivity_lower_bound`` certifies.  Each cover is checked
once: :class:`CoverHierarchy` certifies each run of levels with one center
list at its smallest radius, and :func:`greedy_net` re-checks its own net.

Greedy scans walk points in label order, so every construction here is
deterministic and reproducible from the space file alone.  Scans run over
Python-int bitsets, one bit row per scanned row of distances, and one scan
is the only packing rule.  It takes the rows it scans: the space's matrix
here, and in ``audit.propose_centers`` the rows of a query's images by the
one in-place rule, ``spaces._image_rows``, which reads an identity map's in
the matrix itself.  Below the least positive distance every closed ball is
its center's row of twins (the points at distance 0.0) at any radius, so
:func:`covering_measure` scans once for all the levels that pack there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .measures import DiscreteMeasure
from .spaces import _BLOCK_CELLS, METRIC_TOL, FiniteMetricSpace

# Level i packs at 2^-(i+1); past this depth that radius underflows to 0.
_MAX_DEPTH = 1073


def max_packing(space: FiniteMetricSpace, radius) -> list:
    """Greedy maximal set of points whose closed ``radius``-balls are
    pairwise disjoint (as subsets of the space).

    Scans in label order; a point is kept iff its ball shares no point
    with any previously kept ball.  Maximality is by construction: every
    rejected point's ball meets a kept one.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return [space.labels[i] for i in _disjoint_scan(space.dist, radius)]


def _disjoint_scan(rows, radius) -> list:
    """Positions in ``rows`` (distance rows to every point of one space,
    repeats allowed) kept by one greedy pass: a row is kept iff its closed
    ``radius``-ball shares no point with the balls kept before it.  Each
    row's ball becomes one Python int, bit j set iff point j is in it, as
    the scan reaches it, so a step is one ``&`` and one ``|`` of ints, not
    numpy calls.  A repeated row's ball meets the union once its first copy
    is scanned, kept or not, so no repeat is kept."""
    data = np.packbits(rows <= radius, axis=1, bitorder="little").tobytes()  # mask freed before the copy
    width = (rows.shape[1] + 7) // 8  # bytes per packed row
    covered, kept = 0, []  # covered: the union of kept balls
    for pos, start in enumerate(range(0, len(data), width)):
        ball = int.from_bytes(data[start : start + width], "little")
        if not ball & covered:
            kept.append(pos)
            covered |= ball
    return kept


def _uncovered(space: FiniteMetricSpace, idx, radius) -> list:
    """Labels outside every closed ``radius``-ball around the points at
    indices ``idx`` (with METRIC_TOL slack), in label order.  The centers'
    rows are read in blocks of at most ``_BLOCK_CELLS`` cells, never all
    at once."""
    idx, covered = np.asarray(idx, dtype=np.intp), np.zeros(len(space), dtype=bool)
    step = max(1, _BLOCK_CELLS // len(space))
    for c0 in range(0, len(idx), step):
        covered |= (space.dist[idx[c0:c0 + step]] <= radius + METRIC_TOL).any(axis=0)
    return [space.labels[i] for i in np.flatnonzero(~covered)]


def greedy_net(space: FiniteMetricSpace, radius) -> list:
    """Centers whose closed ``radius``-balls cover the space.

    Built as the greedy maximal (radius/2)-packing, so
    len(greedy_net(X, r)) == len(max_packing(X, r/2)) always.  The net
    re-checks its own cover before returning; failure is impossible by the
    maximality argument and would indicate a bug, hence AssertionError
    rather than a domain error.
    """
    if not radius / 2.0 > 0:  # true exactly when radius >= 2^-_MAX_DEPTH
        raise ValueError(f"radius must be at least 2^-{_MAX_DEPTH}, got {radius}")
    net = _disjoint_scan(space.dist, radius / 2.0)
    missing = _uncovered(space, net, radius)
    if missing:
        raise AssertionError(f"net at radius {radius} failed to cover {missing}")
    return [space.labels[i] for i in net]


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

    Level i's radius must be exactly 2^-i, and its closed balls of that
    radius around its centers must cover the whole space.  Both are checked
    on construction, so a hand-built hierarchy certifies as much as one
    from :func:`covering_measure`; a run of levels with one center list is
    checked once, at its smallest radius, whose cover implies the others'
    and names a failure.  Covers are checked with ``METRIC_TOL`` slack, so
    a certificate at radii near or below 1e-12 carries no information.
    """

    __slots__ = ("space", "levels")

    def __init__(self, space: FiniteMetricSpace, levels):
        levels = tuple(levels)
        if not levels:
            raise StructuralError("a hierarchy needs at least one level")
        for depth, level in enumerate(levels, start=1):
            if level.radius != math.ldexp(1.0, -depth):
                raise StructuralError(f"level {depth} radius {level.radius} is not 2^-{depth}")
            if not level.centers:
                raise StructuralError(f"level {depth} has no centers")
            if depth < len(levels) and levels[depth].centers == level.centers:
                continue  # the next level's smaller balls certify this list
            missing = _uncovered(space, [space.index_of(c) for c in level.centers], level.radius)
            if missing:
                raise StructuralError(f"level {depth} balls do not cover the space (missing {missing})")
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
    return PositivityBound(value=math.ldexp(1.0, -i) / n_i, level=i, truncated=False)


def default_depth(space: FiniteMetricSpace) -> int:
    """The level of the smallest positive distance, past which every level
    nets all points, capped at the deepest level that can be built."""
    return _depth_of(space.min_positive_distance())


def _depth_of(least) -> int:
    return min(level_for_radius(least), _MAX_DEPTH) if least > 0.0 else 1


def covering_measure(space: FiniteMetricSpace, depth: int | None = None):
    """Build the level-weighted uniformly positive measure.

    For each level i = 1..depth computes the greedy net at radius 2^-i
    and gives each of its n_i centers weight 1/(2^i * n_i).  A point in
    several nets accumulates the sum.  Total mass is exactly 1 - 2^-depth;
    :func:`tradeoff_upper_bound` divides by it to calibrate.  The returned
    :class:`CoverHierarchy` is the one cover check: it certifies each run of
    levels with one center list once, at its smallest radius.

    Returns (measure, hierarchy).  ``depth=None`` uses
    :func:`default_depth`, which is deep enough that the last level nets
    every point, making the measure full-support, except at its cap of
    1073, whose level packs at 2^-1074: points 2^-1074 apart share a center.
    The least positive distance is read once.  Levels that pack below it,
    the last one or two at the default depth and every level past it, all
    pack alike, since each closed ball is then its center's row of twins:
    the first of them scans, and the rest share its list.
    """
    least = space.min_positive_distance()
    if depth is None:
        depth = _depth_of(least)
    if isinstance(depth, bool) or not (isinstance(depth, int) and depth >= 1):
        raise ValueError(f"depth must be a positive integer, got {depth}")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth must be at most {_MAX_DEPTH} (deeper packing radii underflow to 0), got {depth}")
    if space.diameter() > 1.0 + METRIC_TOL:
        warnings.warn(
            f"space diameter {space.diameter():g} exceeds 1; level radii start "
            "at 1/2, so shallow levels may need many centers",
            stacklevel=2,
        )
    cut, below = least or math.inf, None  # below: the scan shared under the least distance
    weights = np.zeros(len(space))
    levels = []
    for radius in (math.ldexp(1.0, -i) for i in range(1, depth + 1)):
        if radius / 2.0 >= cut:
            net = _disjoint_scan(space.dist, radius / 2.0)
        else:
            net = below = below or _disjoint_scan(space.dist, radius / 2.0)
        levels.append(CoverLevel(radius, tuple(space.labels[j] for j in net)))
        weights[net] += radius / len(net)
    return DiscreteMeasure(space, weights), CoverHierarchy(space, levels)
