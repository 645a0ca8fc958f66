"""Finite metric spaces, balls, and Lipschitz function tables.

A space is a list of distinct labels plus a full pairwise distance matrix.
The metric axioms are checked with an absolute slack of ``METRIC_TOL`` (a
floating-point guard); the space stores each pair's larger entry, and +0.0
on the diagonal and for every entry not above zero.  Twins, distinct points
at distance 0.0, are allowed, but a Lipschitz map must give them one image.

The triangle check is a tiled min-plus pass: each pair (i, k) compares its
distance with the least sum dist[i][j] + dist[j][k] over the middle points,
a tile at a time.  On an exactly symmetric matrix it reduces about half
of the n^3 sums; any other matrix takes a second reduction, over a
transposed copy, for the reverse direction.  Besides those copies it holds
one tile buffer of at most 1 MB, and only the points it flags are
enumerated triple by triple for the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidMetricError,
    NotLipschitzError,
    StructuralError,
    UnknownLabelError,
)

# Absolute slack for all metric-axiom checks.
METRIC_TOL = 1e-12

# Cells of scratch a blocked reduction fills at a time (1 MB), or one row of
# it if that is larger.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class AxiomViolation:
    """One violated metric axiom with its witnessing indices.

    ``witness`` follows the convention: nonnegativity/symmetry -> (i, j),
    zero_diagonal -> (i,), triangle -> (i, k, j) meaning
    dist[i][k] > dist[i][j] + dist[j][k].
    """

    axiom: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class MetricValidationReport:
    ok: bool
    violations: tuple = field(default_factory=tuple)


def validate_metric(dist) -> MetricValidationReport:
    """Check a square matrix against the four metric axioms.

    Returns a report listing every violation (nonnegativity, zero diagonal,
    symmetry, triangle inequality) with witnessing index tuples.  Distinct
    points at distance zero are allowed: definiteness is not an axiom here.

    The triangle inequality is checked in O(n^3) time by a tiled min-plus
    pass over pairs (i, k), which takes half the work when the matrix is
    exactly symmetric (as every space the library builds or writes is).
    Memory is one float copy of the matrix (two when it is not exactly
    symmetric) plus a tile buffer of at most 1 MB.  Only the points that
    pass flags are enumerated triple by triple, so the report, its order
    and its detail strings are those of a scalar loop over every (i, k, j).

    Raises
    ------
    StructuralError
        If the input is not a square matrix of finite reals.  This is a
        different failure mode from an axiom violation.
    """
    try:
        mat = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"not a numeric matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"matrix must be square, got shape {mat.shape}")
    if mat.size and not np.isfinite(mat).all():
        raise StructuralError("matrix entries must be finite")

    violations = [
        AxiomViolation("zero_diagonal", (i,), f"dist[{i}][{i}] = {mat[i, i]}")
        for i in np.flatnonzero(np.abs(np.diagonal(mat)) > METRIC_TOL).tolist()
    ]
    negative = mat < -METRIC_TOL
    np.fill_diagonal(negative, False)
    violations += [
        AxiomViolation("nonnegativity", (i, j), f"dist[{i}][{j}] = {mat[i, j]}")
        for i, j in np.argwhere(negative).tolist()
    ]
    del negative
    symmetric, step = True, max(1, _BLOCK_CELLS // max(1, len(mat)))
    for r0 in range(0, len(mat), step):  # row blocks of at most _BLOCK_CELLS cells
        upper, lower = mat[r0:r0 + step], mat[:, r0:r0 + step].T
        symmetric &= np.array_equal(upper, lower)
        violations += [
            AxiomViolation("symmetry", (i, j), f"dist[{i}][{j}] = {mat[i, j]} != {mat[j, i]}")
            for i, j in (np.argwhere(np.triu(abs(upper - lower) > METRIC_TOL, r0 + 1)) + [r0, 0]).tolist()
        ]
    # Only the points the tiled pass flags go through a (k, j) slab: bad[k, j]
    # means dist[i][k] exceeds the path through j, summed in the same order
    # as the scalar expression.  An overflowed sum is +inf, which no finite
    # distance exceeds: exact.
    rows = _triangle_rows(mat, symmetric)
    mat_t = np.ascontiguousarray(mat.T) if rows else None
    with np.errstate(over="ignore"):
        for i in rows:
            bad = mat[i][:, None] > (mat[i][None, :] + mat_t) + METRIC_TOL
            np.fill_diagonal(bad, False)
            bad[i, :] = False
            bad[:, i] = False
            violations += [
                AxiomViolation(
                    "triangle",
                    (i, k, j),
                    f"dist[{i}][{k}] = {mat[i, k]} > {mat[i, j]} + {mat[j, k]} via {j}",
                )
                for k, j in np.argwhere(bad).tolist()
            ]
    return MetricValidationReport(ok=not violations, violations=tuple(violations))


def _triangle_rows(mat, symmetric) -> list:
    """Sorted indices of every point i with some k != i and j not in
    {i, k} such that dist[i][k] > dist[i][j] + dist[j][k] + METRIC_TOL.

    A tiled min-plus pass: with +inf on the diagonal, which drops j = i and
    j = k, each tile holds the sums for a block of pairs (i, k) with k at or
    past the block's first row, reduced to their minimum over j.  Rounding
    is monotone, so the minimum plus METRIC_TOL exceeds dist[i][k] exactly
    when some sum plus METRIC_TOL does.  On exactly symmetric input the
    sums for (k, i) are the same sums, so half the cube decides every pair
    and a violating pair flags both its points.  Other input runs a second
    reduction over the transposed operands for the (k, i) direction; a pair
    flags both its points there too, so a point with no violation of its
    own may come back.  Tiles reuse one buffer of at most ``_BLOCK_CELLS``
    cells, or of one row of n sums if that is larger.
    """
    n = mat.shape[0]
    if n < 3:
        return []
    a = mat.copy()
    np.fill_diagonal(a, np.inf)
    if symmetric:
        # a[k, j] equals a[j, k], up to the sign of a zero, which no sum or
        # comparison below can tell apart.
        passes = ((a, a, mat),)
    else:
        a_t = np.ascontiguousarray(a.T)
        passes = ((a, a_t, mat), (a_t, a, mat.T))
    step = max(1, _BLOCK_CELLS // (n * n))
    width = min(n, max(1, _BLOCK_CELLS // (step * n)))
    buf = np.empty(step * width * n)
    flagged = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore"):
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            for c0 in range(r0, n, width):
                c1 = min(c0 + width, n)
                tile = buf[: (r1 - r0) * (c1 - c0) * n].reshape(r1 - r0, c1 - c0, n)
                for left, right, target in passes:
                    # tile[i, k, j] = left[i, j] + right[k, j]
                    np.add(left[r0:r1, None, :], right[None, c0:c1, :], out=tile)
                    low = tile.min(axis=2)
                    low += METRIC_TOL
                    bad = target[r0:r1, c0:c1] > low
                    if c0 == r0:  # the only tile in the row block holding k = i
                        np.fill_diagonal(bad, False)
                    flagged[r0:r1] |= bad.any(axis=1)
                    flagged[c0:c1] |= bad.any(axis=0)
    return np.flatnonzero(flagged).tolist()


class FiniteMetricSpace:
    """A finite metric space: distinct labels plus a distance matrix.

    The matrix is validated on construction, stored exactly symmetric (see
    the module docstring) and frozen; all operations on the space are pure,
    so instances are safe to share between threads.  Label order is
    significant: greedy scans and sampling both iterate points in this order.
    """

    __slots__ = ("labels", "dist", "_index")

    def __init__(self, labels, dist, _trusted=False):
        labels = list(labels)
        if not labels:
            raise StructuralError("a metric space needs at least one point")
        if len(set(labels)) != len(labels):
            raise StructuralError("labels must be distinct")
        if not _trusted:
            report = validate_metric(dist)
            if not report.ok:
                first = report.violations[0]
                raise InvalidMetricError(
                    f"metric axioms violated ({first.axiom} at {first.witness}; "
                    f"{len(report.violations)} violation(s) total)",
                    report=report,
                )
        mat = np.asarray(dist, dtype=float)
        if mat.shape != (len(labels), len(labels)):
            raise StructuralError(
                f"distance matrix shape {mat.shape} does not match {len(labels)} labels"
            )
        mat = np.maximum(mat, mat.T)  # the validator's band, read once
        mat[~(mat > 0.0) | np.eye(len(labels), dtype=bool)] = 0.0
        mat.flags.writeable = False
        self.labels = labels
        self.dist = mat
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)

    def __hash__(self):
        return hash((tuple(self.labels), self.dist.tobytes()))

    def __repr__(self):
        return f"FiniteMetricSpace({len(self)} points, diameter={self.diameter():g})"

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def ball(self, center, radius) -> list:
        """Closed ball: every label within distance ``radius`` of ``center``.

        Returned in label order (deterministic).  Closed means the boundary
        is included, so a zero-radius ball holds the center itself plus any
        distance-zero twins.
        """
        if not radius >= 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        mask = self.ball_mask(self.index_of(center), radius)
        return [lab for lab, inside in zip(self.labels, mask) if inside]

    def ball_mask(self, center_index: int, radius) -> np.ndarray:
        """Boolean membership mask of the closed ball around the point at
        ``center_index``; the array index twin of :meth:`ball`."""
        return self.dist[center_index] <= radius

    def diameter(self) -> float:
        """Largest pairwise distance; 0 for a singleton."""
        return float(self.dist.max())

    def min_positive_distance(self) -> float:
        """Smallest nonzero pairwise distance; 0.0 if there is none
        (singleton space or all points coincident)."""
        off = self.dist[self.dist > 0]
        return float(off.min()) if off.size else 0.0


def grid_space(n: int) -> FiniteMetricSpace:
    """``n`` equally spaced points on [0, 1] under absolute difference.

    Labels are the coordinate strings ("0", "0.5", "1" for n=3).  n=1
    yields the singleton at 0.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if n == 1:
        coords = np.array([0.0])
    else:
        coords = np.arange(n) / (n - 1)
    labels = [f"{c:g}" for c in coords]
    dist = np.abs(coords[:, None] - coords[None, :])
    return FiniteMetricSpace(labels, dist, _trusted=True)


def discrete_space(n: int) -> FiniteMetricSpace:
    """``n`` points with every off-diagonal distance equal to 1."""
    if n < 1:
        raise ValueError(f"discrete size must be >= 1, got {n}")
    dist = np.ones((n, n)) - np.eye(n)
    return FiniteMetricSpace([str(i) for i in range(n)], dist, _trusted=True)


def lipschitz_constant(domain: FiniteMetricSpace, codomain: FiniteMetricSpace, table) -> float:
    """Smallest C with codomain_dist(f(x1), f(x2)) <= C * domain_dist(x1, x2).

    ``table`` maps every domain label to a codomain label.  Constant maps
    (and singleton domains) give 0.  A pair at domain distance zero whose
    images are apart at all, by however little, has no finite constant.

    Raises
    ------
    StructuralError
        If the table is not total on the domain.
    NotLipschitzError
        If a zero-distance pair maps to separated points.
    """
    images = []
    for lab in domain.labels:
        if lab not in table:
            raise StructuralError(f"function table missing domain label {lab!r}")
        images.append(codomain.index_of(table[lab]))
    first, second = np.triu_indices(len(domain), 1)
    images = np.asarray(images, dtype=np.intp)
    rho = domain.dist[first, second]
    sigma = codomain.dist[images[first], images[second]]
    zero = rho == 0.0
    broken = np.flatnonzero(zero & (sigma > 0.0))
    if broken.size:
        p = broken[0]
        raise NotLipschitzError(
            f"points {domain.labels[first[p]]!r} and {domain.labels[second[p]]!r} are at "
            f"distance 0 but their images are {sigma[p]:g} apart"
        )
    # A near-zero distance overflows the quotient to inf, the exact value.
    with np.errstate(over="ignore"):
        ratios = sigma[~zero] / rho[~zero]
    return float(ratios.max()) if ratios.size else 0.0


class LipschitzMap:
    """A total function table between two finite metric spaces.

    The Lipschitz constant is always computed from the table, never
    trusted from a file; a declared constant that disagrees beyond 1e-9
    is rejected, because every privacy bound downstream multiplies by it.
    ``images[i]`` is the codomain index of f(domain.labels[i]) (read-only).
    """

    __slots__ = ("domain", "codomain", "table", "constant", "images")

    def __init__(self, domain: FiniteMetricSpace, codomain: FiniteMetricSpace, table,
                 declared_constant=None):
        self.domain = domain
        self.codomain = codomain
        self.table = dict(table)
        extra = set(self.table) - set(domain.labels)
        if extra:
            raise StructuralError(f"table has labels outside the domain: {sorted(map(repr, extra))}")
        self.constant = lipschitz_constant(domain, codomain, self.table)
        self.images = np.array([codomain.index_of(self.table[x]) for x in domain.labels], np.intp)
        self.images.flags.writeable = False
        # isclose: a declared NaN fails it, a declared infinity matches inf.
        if declared_constant is not None and not math.isclose(
                declared_constant, self.constant, rel_tol=0.0, abs_tol=1e-9):
            raise StructuralError(
                f"declared Lipschitz constant {declared_constant} does not match "
                f"the computed value {self.constant}"
            )

    def __call__(self, x):
        """Image of the domain label ``x``."""
        if x not in self.table:
            raise UnknownLabelError(f"unknown label {x!r}")
        return self.table[x]

    def __repr__(self):
        return (f"LipschitzMap({len(self.domain)} -> {len(self.codomain)} points, "
                f"constant={self.constant:g})")


def identity_map(space: FiniteMetricSpace) -> LipschitzMap:
    """The identity on ``space`` (constant 1 for any space with two
    separated points)."""
    return LipschitzMap(space, space, {lab: lab for lab in space.labels})
