"""Finite metric spaces, balls, and Lipschitz function tables.

A space is a list of distinct labels plus a full pairwise distance matrix.
The metric axioms are checked with an absolute slack of ``METRIC_TOL`` (a
floating-point guard); the space stores each pair's larger entry, and +0.0
on the diagonal and for every entry not above zero.  Twins, distinct points
at distance 0.0, are allowed, but a Lipschitz map must give them one image.
Validation reads the matrix against its transpose once, in row blocks: a
block equal to its transpose has no symmetry violation.

The triangle check takes one of four paths, and the validation report and
the space name it as ``certified_by``.  "trivial": fewer than three points.
Then the certificates of ``_CERTIFICATES``, cheapest first, which read no
more than the validator knows.  "near-equilateral": the largest entry is at
most twice the least off-diagonal entry, plus METRIC_TOL, so no two-step
path is shorter; the discrete metric is one, as is any matrix whose
off-diagonal entries lie within a factor of two of each other.  "euclidean": an exactly symmetric
matrix of modest scale is, within rounding, the distance matrix of points
in a Euclidean space of rank at most n/8; the check builds float
coordinates from the matrix, recomputes every distance from them in
O(n^2·r), and finds the misfit too small for any triangle to exceed
METRIC_TOL (see :func:`_euclidean`).  Planar points and a shuffled 1-D grid
are such matrices.  Otherwise "tiled": one tiled min-plus reduction over the
pairs i <= k, about half of the n^3 sums, compares each pair's larger entry
with the least two-step path through the matrix's lower envelope
min(dist, dist.T), a tile at a time.  Only this pass copies the matrix, into
that envelope, beside one tile buffer of at most 1 MB, and only the points
it flags are enumerated triple by triple for the report.
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

# Unit roundoff of a double.
_U = 2.0**-53


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
    certified_by: str | None = field(default=None, compare=False)  # see _triangle_rows


def _square_matrix(dist) -> np.ndarray:
    """``dist`` as floats; StructuralError unless it is a square matrix of finite reals."""
    try:
        mat = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"not a numeric matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"matrix must be square, got shape {mat.shape}")
    if mat.size and not np.isfinite(mat).all():
        raise StructuralError("matrix entries must be finite")
    return mat


def validate_metric(dist) -> MetricValidationReport:
    """Check a square matrix against the four metric axioms.

    Returns a report listing every violation (nonnegativity, zero diagonal,
    symmetry, triangle inequality) with witnessing index tuples.  Distinct
    points at distance zero are allowed: definiteness is not an axiom here.

    Symmetry is checked in row blocks (see the module docstring).  The
    triangle inequality takes the path the report's ``certified_by`` names:
    O(n^2) near-equilateral, O(n^2·r) Euclidean of rank r, or the O(n^3)
    tiled pass (see :func:`_triangle_rows`).  Only the points that pass
    flags are enumerated triple by triple, so the report, its order and
    details are those of a scalar loop over every (i, k, j).

    Raises
    ------
    StructuralError
        If the input is not a square matrix of finite reals.  This is a
        different failure mode from an axiom violation.
    """
    mat = _square_matrix(dist)
    violations = [
        AxiomViolation("zero_diagonal", (i,), f"dist[{i}][{i}] = {mat[i, i]}")
        for i in np.flatnonzero(np.abs(np.diagonal(mat)) > METRIC_TOL).tolist()
    ]
    negative = mat < -METRIC_TOL
    np.fill_diagonal(negative, False)
    violations += [  # most matrices have no negative entry: enumerate only when one is there
        AxiomViolation("nonnegativity", (i, j), f"dist[{i}][{j}] = {mat[i, j]}")
        for i, j in (np.argwhere(negative).tolist() if negative.any() else ())
    ]
    del negative
    symmetric = True
    step = max(1, _BLOCK_CELLS // max(1, len(mat)))
    for r0 in range(0, len(mat), step):  # row blocks of at most _BLOCK_CELLS cells
        upper, lower = mat[r0:r0 + step], mat[:, r0:r0 + step].T
        if np.array_equal(upper, lower):
            continue
        symmetric = False
        violations += [
            AxiomViolation("symmetry", (i, j), f"dist[{i}][{j}] = {mat[i, j]} != {mat[j, i]}")
            for i, j in (np.argwhere(np.triu(abs(upper - lower) > METRIC_TOL, r0 + 1)) + [r0, 0]).tolist()
        ]
    rows, path = _triangle_rows(mat, symmetric)
    # Only the points the pass flags go through a (k, j) slab: bad[k, j] means
    # dist[i][k] exceeds the path through j, summed as the scalar expression
    # is.  An overflowed sum is +inf, which no finite distance exceeds: exact.
    with np.errstate(over="ignore"):
        for i in rows:
            bad = mat[i][:, None] > (mat[i][None, :] + mat.T) + METRIC_TOL
            np.fill_diagonal(bad, False)  # j = k
            bad[i, :] = bad[:, i] = False  # k = i and j = i
            violations += [
                AxiomViolation(
                    "triangle",
                    (i, k, j),
                    f"dist[{i}][{k}] = {mat[i, k]} > {mat[i, j]} + {mat[j, k]} via {j}",
                )
                for k, j in np.argwhere(bad).tolist()
            ]
    return MetricValidationReport(not violations, tuple(violations), path)


def _triangle_rows(mat, symmetric) -> tuple:
    """(rows, path): the sorted indices of a superset of the points i with
    some k != i and j not in {i, k} such that dist[i][k] > dist[i][j] +
    dist[j][k] + METRIC_TOL, and the path that decided: "trivial" below three
    points, the first of ``_CERTIFICATES`` that holds (no rows), or "tiled".

    The pass builds the lower envelope low = min(mat, mat.T), with +inf on
    its diagonal to drop j = i and j = k.  One tiled min-plus reduction of
    low[i, j] + low[k, j] over j serves the pair (i, k) in both directions,
    so k runs from the row block's first row: the pair flags both its
    points when its larger entry exceeds that least sum plus METRIC_TOL.
    Rounding is monotone and ``low`` is below both raw entries, so every
    raw violation is flagged; a point with none of its own may be flagged
    too.  Tiles reuse one buffer of at most ``_BLOCK_CELLS`` cells, or one
    row of n sums.
    """
    n = mat.shape[0]
    if n < 3:
        return [], "trivial"
    top = float(mat.max())
    s = max(top, -float(mat.min()))
    for path, certifies in _CERTIFICATES:
        if certifies(mat, s, top, symmetric):
            return [], path
    low = np.minimum(mat, mat.T)
    np.fill_diagonal(low, np.inf)
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
                np.add(low[r0:r1, None, :], low[None, c0:c1, :], out=tile)
                # fmin skips min's NaN check; no tile holds a NaN (entries
                # are finite, the diagonal +inf), so the bits are min's.
                least = np.fmin.reduce(tile, axis=2)
                least += METRIC_TOL
                bad = np.maximum(mat[r0:r1, c0:c1], mat[c0:c1, r0:r1].T) > least
                np.fill_diagonal(bad[c0 - r0:], False)  # k = i
                flagged[r0:r1] |= bad.any(axis=1)
                flagged[c0:c1] |= bad.any(axis=0)
    return np.flatnonzero(flagged).tolist(), "tiled"


def _near_equilateral(mat, s, top, symmetric) -> bool:
    """True when top <= fl(fl(m + m) + METRIC_TOL), m the least off-diagonal
    entry, which is that of the pass's ``low`` too: every sum a tile takes
    is fl(low[i, j] + low[k, j]) >= fl(m + m), and rounding is monotone.
    The bound is taken in Python floats, where 2m past the float maximum is
    +inf without a warning.  m is read a row block at a time through one
    buffer whose diagonal cells are +inf, for any strides: the rows of the
    transpose, the same entries, when theirs are the shorter stride."""
    n = mat.shape[0]
    rows = mat.T if mat.strides[0] < mat.strides[1] else mat
    buf, least = np.empty((min(n, max(1, _BLOCK_CELLS // n)), n)), math.inf
    for r0 in range(0, n, len(buf)):
        block = buf[: n - r0]
        np.copyto(block, rows[r0 : r0 + len(block)])
        np.fill_diagonal(block[:, r0:], np.inf)
        least = min(least, float(block.min()))
    return top <= (least + least) + METRIC_TOL


def _euclidean(mat, s, top=None, symmetric=True) -> bool:
    """True when ``mat`` is exactly symmetric and so close to the distances
    of some float points that the pass of :func:`_triangle_rows` could flag
    nothing.  O(n·r^2 + n^2·r) for points of rank r, in elementwise numpy.

    Only a matrix with 6u·s <= METRIC_TOL (u = 2^-53, s up to about 1.5e3)
    is tried.  :func:`_coordinates` builds float points x_i from it, and
    :func:`_misfit` recomputes their distances Ê[i, k] =
    fl(sqrt(sum_c fl(fl(x_ic - x_kc)^2))), summed in order c, to give
    η̂ = max |mat - Ê| off the diagonal and M = max Ê.  The exact
    distances E of the points are a metric, so with η = max |mat - E|,
    every triangle has mat[i][k] <= mat[i][j] + mat[j][k] + 3η.

    In the standard model (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3), the difference, square and r - 1 additions give
    the sum under the root a relative error of at most γ_{r+2}; the root
    halves it and rounds once more, so |Ê - E| <= (r + 4)/2 · u · E to
    first order.  The higher-order terms, E <= M(1 + O(ru)) among them,
    stay below u·M/2 while (r + 4)^2 · u < 2^-18, that is for r under the
    cap n // 8 at any n below 2^20.  A square that underflows is off by at
    most 2^-1075, which moves the root by at most sqrt(r · 2^-1075) <=
    r · 2^-536.  So η <= η̂ + e with e = (r + 5)/2 · u · M + r · 2^-536.

    The pass compares mat[i][k] with fl(fl(a + b) + METRIC_TOL), a and b
    the entries via j.  Its two roundings cost at most u|a + b| +
    u(2s(1 + u) + METRIC_TOL) <= 6u·s' with s' = max(s, METRIC_TOL), so
    the pass can flag no pair when 3(η̂ + e) + 6u·s' <= METRIC_TOL.  That
    sum is taken in floats, six roundings of nonnegative terms, and held
    to METRIC_TOL·(1 - 2^-45), which absorbs them.
    """
    n = len(mat)
    s = max(s, METRIC_TOL)
    if not symmetric or 6.0 * _U * s > METRIC_TOL:
        return False
    cols = _coordinates(mat, s, n // 8)
    if cols is None or (fit := _misfit(mat, cols)) is None:
        return False
    r, (eta, m) = len(cols), fit
    e = (r + 5) * 0.5 * _U * m + r * 2.0**-536
    return 3.0 * (eta + e) + 6.0 * _U * s <= METRIC_TOL * (1.0 - 2.0**-45)


def _coordinates(mat, s, cap):
    """Coordinate columns of points whose distances approximate the
    exactly symmetric ``mat``, or None past ``cap`` columns.

    Point 0 is the origin, and G[i, k] = (d0i^2 + d0k^2 - dik^2) / 2 is
    the Gram matrix of the points.  Pivoted Cholesky takes, at each step,
    the point p farthest from the span of the columns so far (the largest
    residual G[p, p] - sum_c x_pc^2), and stops once that residual is at
    most the Gram noise floor 16·n·u·s^2.  Each step reads one row of
    ``mat``, so a rank-r space costs O(n·r^2) and r + 3 vectors of n.
    """
    n = len(mat)
    origin = mat[0] * mat[0]
    origin[0] = 0.0
    resid = origin.copy()
    floor = 16.0 * n * _U * s * s
    cols = []
    while True:
        p = int(resid.argmax())
        if not resid[p] > floor:
            return cols
        if len(cols) == cap:
            return None
        col = mat[p] * mat[p]
        np.subtract(origin + origin[p], col, out=col)
        col *= 0.5
        for c in cols:
            col -= c * c[p]
        col /= math.sqrt(resid[p])
        cols.append(col)
        resid -= col * col


def _misfit(mat, cols):
    """(η̂, M) for the points with coordinate columns ``cols``: the largest
    |mat[i][k] - Ê[i, k]| off the diagonal and the largest Ê, or None once
    3η̂ exceeds METRIC_TOL.  Only k >= i is computed, as Ê and ``mat`` are
    both exactly symmetric, in row blocks whose two buffers fill at most
    ``_BLOCK_CELLS`` cells, or two rows of n."""
    n = len(mat)
    rows = max(1, _BLOCK_CELLS // (2 * n))
    buf = np.empty(2 * rows * n)
    eta = top = 0.0
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        cells = (r1 - r0) * (n - r0)
        acc = buf[:cells].reshape(r1 - r0, n - r0)
        term = buf[rows * n : rows * n + cells].reshape(r1 - r0, n - r0)
        acc.fill(0.0)
        for c in cols:
            np.subtract(c[r0:r1, None], c[None, r0:], out=term)
            term *= term
            acc += term
        np.sqrt(acc, out=acc)
        top = max(top, float(acc.max()))
        acc -= mat[r0:r1, r0:]
        np.abs(acc, out=acc)
        np.fill_diagonal(acc, 0.0)
        eta = max(eta, float(acc.max()))
        if 3.0 * eta > METRIC_TOL:
            return None
    return eta, top


# The triangle check's certificates, cheapest first, by path name: each, given
# (mat, s, top, symmetric), s the largest |entry| and top the largest entry,
# holds only if no triangle can exceed METRIC_TOL.
_CERTIFICATES = (("near-equilateral", _near_equilateral), ("euclidean", _euclidean))


class FiniteMetricSpace:
    """A finite metric space: distinct labels plus a distance matrix.

    The matrix is validated on construction, stored exactly symmetric (see
    the module docstring) and frozen; all operations on the space are pure,
    so instances are safe to share between threads.  Label order is
    significant: greedy scans and sampling both iterate points in this order.
    ``certified_by`` names the triangle check's path; ``==`` and hash ignore it.
    """

    __slots__ = ("labels", "dist", "_index", "certified_by")

    def __init__(self, labels, dist):
        labels = list(labels)
        if not labels:
            raise StructuralError("a metric space needs at least one point")
        if len(set(labels)) != len(labels):
            raise StructuralError("labels must be distinct")
        mat = _square_matrix(dist)
        if len(mat) != len(labels):
            raise StructuralError(f"{len(labels)} labels but a {len(mat)}x{len(mat)} matrix")
        report = validate_metric(mat)
        if not report.ok:
            first = report.violations[0]
            raise InvalidMetricError(
                f"metric axioms violated ({first.axiom} at {first.witness}; "
                f"{len(report.violations)} violation(s) total)",
                report=report,
            )
        mat = np.maximum(mat, mat.T)  # the validator's band, read once
        mat[~(mat > 0.0)] = 0.0
        np.fill_diagonal(mat, 0.0)
        mat.flags.writeable = False
        self.labels = labels
        self.dist = mat
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.certified_by = report.certified_by

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return other is self or (self.labels == other.labels and np.array_equal(self.dist, other.dist))

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
        (singleton space or all points coincident).  The minimum is taken
        in place, beside one boolean mask of the matrix."""
        least = float(np.min(self.dist, where=self.dist > 0.0, initial=math.inf))
        return least if least < math.inf else 0.0


def grid_space(n: int) -> FiniteMetricSpace:
    """``n`` equally spaced points on [0, 1] under absolute difference.

    Labels are the coordinate strings ("0", "0.5", "1" for n=3).  n=1
    yields the singleton at 0.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    coords = np.arange(n) / max(n - 1, 1)
    labels = [f"{c:g}" for c in coords]
    dist = np.abs(coords[:, None] - coords[None, :])
    return FiniteMetricSpace(labels, dist)


def discrete_space(n: int) -> FiniteMetricSpace:
    """``n`` points with every off-diagonal distance equal to 1."""
    if n < 1:
        raise ValueError(f"discrete size must be >= 1, got {n}")
    dist = np.ones((n, n)) - np.eye(n)
    return FiniteMetricSpace([str(i) for i in range(n)], dist)


def lipschitz_constant(domain: FiniteMetricSpace, codomain: FiniteMetricSpace, table) -> float:
    """Smallest C with codomain_dist(f(x1), f(x2)) <= C * domain_dist(x1, x2).

    ``table`` maps every domain label to a codomain label.  Constant maps
    (and singleton domains) give 0.  A pair at domain distance zero whose
    images are apart at all, by however little, has no finite constant.
    The identity table on one space object is not enumerated: every
    quotient is x / x, exactly 1.0, and twins map to twins, so its
    constant is 1.0 if the space has a positive distance and 0.0 if not.
    Any other table, a permutation or an equal copy of the space as the
    codomain included, takes the blocked loop over the pairs.

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
    if codomain is domain and images == list(range(len(images))):
        return float(domain.diameter() > 0.0)  # every quotient is x / x == 1.0
    images, n, best = np.asarray(images, dtype=np.intp), len(images), 0.0
    step = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, step):  # row blocks of at most _BLOCK_CELLS cells, pairs i < j
        rows = np.arange(r0, min(n, r0 + step))
        rho, upper = domain.dist[r0:r0 + step], rows[:, None] < np.arange(n)
        sigma = codomain.dist[np.ix_(images[rows], images)]
        i, j = np.nonzero(upper & (rho == 0.0) & (sigma > 0.0))
        if i.size:
            raise NotLipschitzError(
                f"points {domain.labels[r0 + i[0]]!r} and {domain.labels[j[0]]!r} are at "
                f"distance 0 but their images are {sigma[i[0], j[0]]:g} apart"
            )
        # A near-zero distance overflows the quotient to inf, the exact value.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            best = max(best, float(np.max(sigma / rho, initial=0.0, where=upper & (rho > 0.0))))
    return best


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
