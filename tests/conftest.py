"""Shared randomized-instance generators and reference oracles for the
test suite.

Random metrics come in two flavors so the suites exercise more than one
geometry: Euclidean point clouds (axioms exact up to sqrt rounding) and
shortest-path closures of random symmetric matrices.  Both keep points
separated, so log-ratio audits stay far from floating-point cliffs.

The ``*_loop`` functions are the library's original scalar loops for
metric validation, the privacy audit, the Lipschitz constant, single
mechanism rows, tabulation, the greedy disjoint-ball scan, the covering
measure and the impossibility lower bound.  The
library computes the same results with numpy slabs or shared helpers;
``test_oracles.py`` requires the two to agree bit for bit.
``validate_metric_slabs`` is the validator's earlier per-point slab
implementation, the oracle for its tiled pass beyond the loop's reach.
``sampler_table`` counts, for each input and label, the 2^53 values of
u that ``sample_many`` maps there: the distribution it draws, exactly.
``level_for_radius_loop`` is a brute-force search for the same level
that ``level_for_radius`` computes from the binary exponent.
``log_scalar`` is the audits' log kernel, fdlibm's ``e_log.c``, on one
Python float; the audit and lower-bound oracles take their logs from it.
``audit_privacy_decimal`` takes its logs from ``decimal`` at 40 digits
instead: the stored table's exact epsilon, the accuracy oracle of ROADMAP
item 13.
``sweep_broadcast`` is the privacy sweep's earlier block kernel, one
broadcast subtraction per block of rows, the oracle for ``audit._sweep``'s
reused buffer.
``mass_inside_loop`` sums one masked row at a time in 1-D, the order every
ball mass must have; ``assert_near_fsum`` bounds those sums against
``math.fsum``.
``dump_doc_reference`` is the original report writer, json's ``indent=2``
encoder over the ``jsonable`` walk, whose bytes ``dump_doc`` must
reproduce.

``subset_epsilon`` and ``check_em_inequalities`` enumerate every output
subset through one ``subset_sums`` to re-check the mediant reduction that
lets ``audit_privacy`` look at single outputs only.

``randomized_response`` and ``truncated_geometric`` are classical
mechanisms whose exact epsilon is known in closed form, so the audits can
be checked against numbers the library never computes.  ``cycle_space``
and ``hamming_space`` look the same from every point, so an exponential
mechanism on them has known answers too.
"""

import decimal
import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import strategies as st

from metricdp import (
    DiscreteMeasure,
    DomainError,
    FiniteMetricSpace,
    ImpossibilityReport,
    LipschitzMap,
    MechanismTable,
    NotLipschitzError,
    PrivacyAuditReport,
    StructuralError,
    distribution,
    identity_map,
)
from metricdp import audit, formats, spaces
from metricdp.formats import encode_value
from metricdp.spaces import METRIC_TOL, AxiomViolation, MetricValidationReport

# Entries of hand-made matrices: exact values, values within and just
# beyond METRIC_TOL of each other, and negatives.
MATRIX_ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, -1.0, 1e-13, -1e-13, 2e-12, -2e-12, 1.0 + 1e-13, 1.5]
) | st.floats(-2.0, 4.0, allow_nan=False)


def empty_memos() -> None:
    """Forget every object this thread loaded and its last validated space."""
    formats._memo.kept.clear()
    formats._memo.space = None


@pytest.fixture(autouse=True)
def empty_loader_memos():
    """Start every test with no object loaded and no space validated, so a
    test's loads and validation counts do not depend on the tests before
    it."""
    empty_memos()


@pytest.fixture
def validations(monkeypatch):
    """Sizes of the matrices validated while the test runs, one entry per
    ``validate_metric`` call."""
    calls = []
    original = spaces.validate_metric

    def counted(dist):
        calls.append(len(dist))
        return original(dist)

    monkeypatch.setattr(spaces, "validate_metric", counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Calls made while the test runs, by name, of the steps that turn a file
    into objects: ``_parse``, ``_number_matrix``, ``lipschitz_constant`` and
    ``MechanismTable``'s ``__init__``."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((formats, "_parse"), (formats, "_number_matrix"),
                        (spaces, "lipschitz_constant"), (MechanismTable, "__init__")):
        count(owner, name)
    return calls


def cloud_metric(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Pairwise Euclidean distances of n random points in the plane,
    resampled until no two points are closer than 0.03 * scale, a gap that
    shrinks as 24/n past 24 points so that large clouds still get drawn."""
    gap = 0.03 * scale * min(1.0, 24 / n)
    while True:
        pts = rng.uniform(0.0, scale, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        off = d[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() >= gap:
            return d


def closure_metric(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Shortest-path closure of a random symmetric matrix; entries stay
    in [0.2, 1] * scale, so distances never collapse toward 0."""
    d = rng.uniform(0.2, 1.0, size=(n, n)) * scale
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def random_space(rng, n: int, scale: float = 1.0) -> FiniteMetricSpace:
    """A random n-point space, alternating between the two metric flavors."""
    make = cloud_metric if rng.integers(2) == 0 else closure_metric
    labels = [f"p{i}" for i in range(n)]
    return FiniteMetricSpace(labels, make(rng, n, scale))


def line_space(coords) -> FiniteMetricSpace:
    """Points on a line; repeated coordinates make zero-distance twins."""
    coords = np.asarray(coords, dtype=float)
    labels = [f"x{i}" for i in range(len(coords))]
    return FiniteMetricSpace(labels, np.abs(coords[:, None] - coords[None, :]))


def random_map(rng, domain: FiniteMetricSpace, codomain: FiniteMetricSpace) -> LipschitzMap:
    images = rng.integers(len(codomain), size=len(domain))
    table = {x: codomain.labels[int(i)] for x, i in zip(domain.labels, images)}
    return LipschitzMap(domain, codomain, table)


def random_measure(rng, space: FiniteMetricSpace, low: float = 0.1, high: float = 2.0) -> DiscreteMeasure:
    return DiscreteMeasure(space, rng.uniform(low, high, size=len(space)))


@functools.lru_cache(maxsize=None)
def hamming_cube(k: int) -> FiniteMetricSpace:
    """{0,1}^k under Hamming distance, labels the bit strings in binary
    order."""
    bits = np.array(list(itertools.product((0, 1), repeat=k)))
    dist = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    return FiniteMetricSpace(["".join(map(str, b)) for b in bits], dist)


def hamming_space(k: int) -> FiniteMetricSpace:
    """The Hamming cube {0,1}^k with distances divided by k: C(k, j) points
    at distance j / k from every point, so its diameter is 1."""
    cube = hamming_cube(k)
    return FiniteMetricSpace(cube.labels, cube.dist / k)


def cycle_space(n: int) -> FiniteMetricSpace:
    """n points around a circle of length 1: distance min(|i - j|, n - |i - j|) / n."""
    points = np.arange(n)
    gap = np.abs(points[:, None] - points[None, :])
    return FiniteMetricSpace([str(i) for i in points], np.minimum(gap, n - gap) / n)


def path_space(n: int) -> FiniteMetricSpace:
    """The integers 0..n under absolute difference."""
    points = np.arange(n + 1)
    return FiniteMetricSpace([str(i) for i in points], np.abs(points[:, None] - points[None, :]))


def randomized_response(k: int, p: float) -> MechanismTable:
    """Randomized response on {0,1}^k: each bit flips independently with
    probability p, so y at Hamming distance d from x gets p^d (1-p)^(k-d).
    Its exact epsilon is ln((1-p)/p) for p < 1/2."""
    cube = hamming_cube(k)
    return MechanismTable(cube, cube, p ** cube.dist * (1.0 - p) ** (k - cube.dist))


def truncated_geometric(n: int, alpha: float) -> MechanismTable:
    """The range-restricted geometric mechanism on 0..n (Ghosh, Roughgarden
    and Sundararajan, 2009): the two-sided geometric noise of ratio alpha,
    with the mass past either end moved onto that end.  Its exact epsilon
    is ln(1/alpha)."""
    path = path_space(n)
    probs = (1.0 - alpha) / (1.0 + alpha) * alpha ** path.dist
    probs[:, [0, -1]] = alpha ** path.dist[:, [0, -1]] / (1.0 + alpha)
    return MechanismTable(path, path, probs)


def subset_sums(values) -> np.ndarray:
    """sums[..., m] = sum of values[..., b] over the bits b set in m, for
    every bitmask m in [0, 2^k) of the last axis's k entries; built by
    doubling in O(2^k).  Bit 0 of m is the first entry."""
    values = np.asarray(values, dtype=float)
    sums = np.zeros(values.shape[:-1] + (1 << values.shape[-1],))
    for b in range(values.shape[-1]):
        block = 1 << b
        sums[..., block : 2 * block] = sums[..., :block] + values[..., b, None]
    return sums


def subset_epsilon(mech) -> float:
    """Independent oracle: the audited privacy level maximized over ALL
    nonempty output subsets, not just singletons.  Exponential in the
    output size; callers keep |Y| small."""
    space = mech.input_space
    n = len(space)
    sums = subset_sums(mech.probs)[:, 1:]  # every nonempty subset, per row
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or space.dist[i, j] == 0.0:
                continue
            live = sums[i] > 0.0
            if (sums[j][live] <= 0.0).any():
                return math.inf
            ratios = (np.log(sums[i][live]) - np.log(sums[j][live])) / space.dist[i, j]
            best = max(best, float(ratios.max(initial=0.0)))
    return best


@dataclass(frozen=True)
class EMInequalityReport:
    """Outcome of the exhaustive two-inequality check behind the 2*beta
    privacy factor.

    ``numerator_ok``: sum_T w_x <= e^(beta*rho) * sum_T w_z held for every
    nonempty output subset T (w is the unnormalized tilted weight).
    ``normalizer_ok``: Z(x) >= e^(-beta*rho) * Z(z).
    ``first_violation`` carries (labels, lhs, rhs) for the first failing
    subset, None when everything held.
    """

    x: object
    z: object
    numerator_ok: bool
    normalizer_ok: bool
    first_violation: tuple | None

    @property
    def ok(self) -> bool:
        return self.numerator_ok and self.normalizer_ok


EM_TOL = 1e-9


def check_em_inequalities(params, x, z) -> EMInequalityReport:
    """Oracle for the mediant reduction behind ``audit_privacy``: verify,
    over every nonempty output subset, the two unnormalized inequalities
    whose quotient yields the 2*beta privacy factor.

    For w_x(y) = base_weight(y) * exp(-beta * dist(f(x), y)):
    sum_T w_x <= e^(beta*rho(x,z)) * sum_T w_z for all T, and
    Z(x) >= e^(-beta*rho(x,z)) * Z(z), both with EM_TOL slack.
    Exponential in the output size; callers keep |Y| small.
    """
    out = params.output_space
    xi = out.index_of(params.query(x))
    zi = out.index_of(params.query(z))
    rho = float(params.input_space.dist[params.input_space.index_of(x),
                                        params.input_space.index_of(z)])
    w_x = params.base.values * np.exp(-params.beta * out.dist[xi])
    w_z = params.base.values * np.exp(-params.beta * out.dist[zi])

    factor = math.exp(params.beta * rho)
    sums_x = subset_sums(w_x)
    sums_z = subset_sums(w_z)
    slack = sums_x - factor * sums_z  # positive entries are violations
    slack[0] = -math.inf  # empty set is vacuous
    worst = int(np.argmax(slack))
    numerator_ok = slack[worst] <= EM_TOL

    z_x = float(w_x.sum())
    z_z = float(w_z.sum())
    normalizer_ok = z_x >= math.exp(-params.beta * rho) * z_z - EM_TOL

    first_violation = None
    if not numerator_ok:
        members = tuple(out.labels[b] for b in range(len(out)) if worst >> b & 1)
        first_violation = (members, float(sums_x[worst]), float(factor * sums_z[worst]))
    elif not normalizer_ok:
        first_violation = (tuple(out.labels), z_x, math.exp(-params.beta * rho) * z_z)
    return EMInequalityReport(
        x=x, z=z,
        numerator_ok=bool(numerator_ok),
        normalizer_ok=bool(normalizer_ok),
        first_violation=first_violation,
    )


def validate_metric_loop(dist) -> MetricValidationReport:
    """Oracle for ``validate_metric`` on a square finite matrix: every
    axiom checked entry by entry, O(n^3) for the triangle inequality."""
    mat = np.asarray(dist, dtype=float)
    n = mat.shape[0]
    violations = []
    for i in range(n):
        if abs(mat[i, i]) > METRIC_TOL:
            violations.append(
                AxiomViolation("zero_diagonal", (i,), f"dist[{i}][{i}] = {mat[i, i]}")
            )
    for i in range(n):
        for j in range(n):
            if i != j and mat[i, j] < -METRIC_TOL:
                violations.append(
                    AxiomViolation("nonnegativity", (i, j), f"dist[{i}][{j}] = {mat[i, j]}")
                )
    for i in range(n):
        for j in range(i + 1, n):
            if abs(mat[i, j] - mat[j, i]) > METRIC_TOL:
                violations.append(
                    AxiomViolation(
                        "symmetry", (i, j), f"dist[{i}][{j}] = {mat[i, j]} != {mat[j, i]}"
                    )
                )
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                if mat[i, k] > mat[i, j] + mat[j, k] + METRIC_TOL:
                    violations.append(
                        AxiomViolation(
                            "triangle",
                            (i, k, j),
                            f"dist[{i}][{k}] = {mat[i, k]} > "
                            f"{mat[i, j]} + {mat[j, k]} via {j}",
                        )
                    )
    return MetricValidationReport(ok=not violations, violations=tuple(violations))


def validate_metric_slabs(dist) -> MetricValidationReport:
    """Oracle for ``validate_metric`` at sizes the loop cannot reach: the
    library's earlier implementation, one (k, j) slab of the triangle check
    per point i, O(n^2) memory per slab."""
    try:
        mat = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"not a numeric matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"matrix must be square, got shape {mat.shape}")
    if mat.size and not np.isfinite(mat).all():
        raise StructuralError("matrix entries must be finite")

    n = mat.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    violations = [
        AxiomViolation("zero_diagonal", (i,), f"dist[{i}][{i}] = {mat[i, i]}")
        for i in np.flatnonzero(np.abs(np.diagonal(mat)) > METRIC_TOL).tolist()
    ]
    violations += [
        AxiomViolation("nonnegativity", (i, j), f"dist[{i}][{j}] = {mat[i, j]}")
        for i, j in np.argwhere((mat < -METRIC_TOL) & off_diag).tolist()
    ]
    violations += [
        AxiomViolation("symmetry", (i, j), f"dist[{i}][{j}] = {mat[i, j]} != {mat[j, i]}")
        for i, j in np.argwhere(np.triu(np.abs(mat - mat.T) > METRIC_TOL, 1)).tolist()
    ]
    # One (k, j) slab per point i: bad[k, j] means dist[i][k] exceeds the
    # path through j, summed in the same order as the scalar expression.
    mat_t = np.ascontiguousarray(mat.T)
    # An overflowed sum is +inf, which no finite distance exceeds: exact.
    with np.errstate(over="ignore"):
        for i in range(n):
            bad = mat[i][:, None] > (mat[i][None, :] + mat_t) + METRIC_TOL
            bad &= off_diag
            bad[i, :] = False
            bad[:, i] = False
            if not bad.any():
                continue
            violations += [
                AxiomViolation(
                    "triangle",
                    (i, k, j),
                    f"dist[{i}][{k}] = {mat[i, k]} > {mat[i, j]} + {mat[j, k]} via {j}",
                )
                for k, j in np.argwhere(bad).tolist()
            ]
    return MetricValidationReport(ok=not violations, violations=tuple(violations))


def lipschitz_constant_loop(domain, codomain, table) -> float:
    """Oracle for ``lipschitz_constant``: every unordered pair in (i, j)
    order."""
    images = []
    for lab in domain.labels:
        if lab not in table:
            raise StructuralError(f"function table missing domain label {lab!r}")
        images.append(codomain.index_of(table[lab]))
    best = 0.0
    for i in range(len(domain)):
        for j in range(i + 1, len(domain)):
            rho = domain.dist[i, j]
            sigma = codomain.dist[images[i], images[j]]
            if rho == 0.0:
                if sigma > 0.0:
                    raise NotLipschitzError(
                        f"points {domain.labels[i]!r} and {domain.labels[j]!r} are at "
                        f"distance 0 but their images are {sigma:g} apart"
                    )
                continue
            # A near-zero distance overflows the quotient to inf, the exact value.
            with np.errstate(over="ignore"):
                best = max(best, float(sigma / rho))
    return best


def distribution_loop(params, x) -> np.ndarray:
    """Oracle for ``distribution``: one input's row on its own, shifted
    by the largest exponent over the base's support.  Only supported
    points are weighed; the rest keep weight 0."""
    xi = params.output_space.index_of(params.query(x))
    exponents = -params.beta * params.output_space.dist[xi]
    support = params.base.values > 0
    shift = exponents[support].max()
    weights = np.zeros(len(exponents))
    weights[support] = params.base.values[support] * np.exp(exponents[support] - shift)
    return weights / weights.sum()


def tabulate_loop(params) -> MechanismTable:
    """Oracle for ``tabulate``: one ``distribution_loop`` call per input."""
    rows = [distribution_loop(params, x) for x in params.input_space.labels]
    return MechanismTable(params.input_space, params.output_space, np.array(rows))


def sampler_table(params) -> np.ndarray:
    """Exact draw counts of ``sample_many``: entry [x, y] is how many of
    the 2^53 values u = k·2^-53 that PCG64's ``random`` returns it maps
    input x to label y.  The labels of positive probability take, in
    order, the k with C[t-1] < u <= C[t], C the float cumsum over the
    support (``searchsorted`` with side="left"); the last one also takes
    every k past the row's sum.  Each row sums to exactly 2^53."""
    scale = 2.0**53
    counts = np.zeros((len(params.input_space), len(params.output_space)), dtype=np.int64)
    for x, label in enumerate(params.input_space.labels):
        row = distribution(params, label)
        support = np.flatnonzero(row)
        # The k <= C[t]·2^53 below 2^53, counted exactly in doubles: the
        # scaling is by a power of two and every count is at most 2^53.
        upto = np.minimum(np.floor(np.cumsum(row[support]) * scale), scale - 1.0) + 1.0
        counts[x, support] = np.diff(upto, prepend=0.0).astype(np.int64)
        counts[x, support[-1]] += 2**53 - int(upto[-1])
    return counts


def level_for_radius_loop(radius) -> int:
    """Oracle for ``level_for_radius``: try levels 1, 2, ... until 2^-i
    drops to ``radius`` (2.0 ** -i reaches 0.0 past the subnormals, so the
    search always stops)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    i = 1
    while 2.0 ** -i > radius:
        i += 1
    return i


def propose_centers_loop(query, radius) -> list:
    """Oracle for ``propose_centers`` (and, on the identity map, for
    ``max_packing``): scan the domain in label order and keep an input iff
    the closed ``radius``-ball around its image avoids every kept ball."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    out = query.codomain
    covered = np.zeros(len(out), dtype=bool)
    chosen = []
    for x in query.domain.labels:
        ball = out.ball_mask(out.index_of(query(x)), radius)
        if not (ball & covered).any():
            chosen.append(x)
            covered |= ball
    return chosen


def covering_measure_loop(space, depth=None):
    """Oracle for ``covering_measure``: returns (measure, centers per
    level).  The default depth is the brute-force level of the smallest
    positive distance, capped at 1073; level i is
    ``propose_centers_loop`` on the identity at 2^-(i+1), every point must
    lie within 2^-i (plus METRIC_TOL) of a center, and each center gets
    weight 2^-i / n_i added on its own."""
    positive = [d for d in space.dist.ravel().tolist() if d > 0.0]
    if depth is None:
        depth = min(level_for_radius_loop(min(positive)), 1073) if positive else 1
    query = identity_map(space)
    weights = np.zeros(len(space))
    levels = []
    for i in range(1, depth + 1):
        radius = math.ldexp(1.0, -i)
        centers = propose_centers_loop(query, radius / 2.0)
        idx = [space.index_of(c) for c in centers]
        for x in range(len(space)):
            assert (space.dist[x, idx] <= radius + METRIC_TOL).any(), (i, space.labels[x])
        for j in idx:
            weights[j] += radius / len(centers)
        levels.append(tuple(centers))
    return DiscreteMeasure(space, weights), levels


def cover_hierarchy_loop(space, levels) -> list:
    """Oracle for ``CoverHierarchy``'s checks, each level on its own and
    at its own radius: ``(i, kind, detail)`` for every faulty level i, in
    order.  ``kind`` is "radius" for a radius that is not exactly 2^-i,
    "empty" for a level with no centers, and "cover" for balls of radius
    2^-i (plus METRIC_TOL) around the centers that miss a point, whose
    ``detail`` is the missing labels in label order."""
    faults = []
    for i, level in enumerate(levels, start=1):
        if level.radius != 2.0 ** -i:
            faults.append((i, "radius", level.radius))
        elif not level.centers:
            faults.append((i, "empty", None))
        else:
            idx = [space.index_of(c) for c in level.centers]
            reach = level.radius + METRIC_TOL
            missing = [x for j, x in enumerate(space.labels)
                       if not any(float(space.dist[j, c]) <= reach for c in idx)]
            if missing:
                faults.append((i, "cover", missing))
    return faults


# fdlibm's e_log.c constants (Sun, 1993), written out again rather than
# imported, so that a wrong digit in the library shows.
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
      2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
      1.479819860511658591e-01)


def log_scalar(x: float) -> float:
    """Oracle for ``audit._logs``: fdlibm's e_log.c on one Python float, the
    same sequence of correctly rounded operations, from ``math.frexp``."""
    if x == 0.0:
        return -math.inf
    m, k = math.frexp(x)
    if m < math.sqrt(0.5):
        m, k = m + m, k - 1
    f, k = m - 1.0, float(k)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6]))) + w * (LG[1] + w * (LG[3] + w * LG[5]))
    hfsq = 0.5 * f * f
    return k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)


def mass_inside_loop(rows, masks) -> np.ndarray:
    """Oracle for every ball mass: one row at a time, the row with zeros
    outside its mask, summed as a 1-D array."""
    return np.array([np.where(mask, row, 0.0).sum() for row, mask in zip(rows, masks)])


def assert_near_fsum(masses, rows, masks) -> None:
    """Each mass lies within (k - 1) * 2**-53 * fsum of the correctly
    rounded ``math.fsum`` of its ball's k terms: the error bound of any
    order of k - 1 additions of nonnegative terms."""
    for mass, row, mask in zip(masses, rows, masks):
        terms = row[mask].tolist()
        exact = math.fsum(terms)
        assert abs(mass - exact) <= max(len(terms) - 1, 0) * 2.0**-53 * exact, (mass, exact)


def audit_privacy_loop(mech, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Oracle for ``audit_privacy``: every ordered input pair and every
    output label, in (i, j, k) order.  A pair's value is its largest log
    difference divided once by its distance; its witness output is the
    first with the largest per-output ratio.  A zero-distance pair's ratio
    is inf where x's entry exceeds z's and -inf elsewhere.  Without
    per-pair maxima the audit ends after the first row whose maximum is inf."""
    space = mech.input_space
    labels = space.labels
    out_labels = mech.output_space.labels
    n = len(labels)
    probs = mech.probs
    per_pair = np.zeros((n, n)) if include_per_pair else None

    eps_max = 0.0
    witness = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rho = space.dist[i, j]
            top, ratio_max = -math.inf, -math.inf
            pair_witness_y = None
            for k in range(probs.shape[1]):
                a, b = probs[i, k], probs[j, k]
                if rho == 0.0:
                    diff = math.inf if a > b else -math.inf
                elif a == 0.0:
                    diff = -math.inf  # zero numerator never binds
                elif b == 0.0:
                    diff = math.inf
                else:
                    diff = log_scalar(a) - log_scalar(b)
                # A near-zero distance overflows the quotient to inf, the exact value.
                with np.errstate(over="ignore"):
                    ratio = diff if rho == 0.0 else diff / rho
                top = max(top, diff)
                if ratio > ratio_max:
                    ratio_max = ratio
                    pair_witness_y = out_labels[k]
            if pair_witness_y is None:
                continue  # every ratio is -inf: the pair constrains nothing
            with np.errstate(over="ignore"):
                pair_max = top if rho == 0.0 else top / rho
            if per_pair is not None:
                per_pair[i, j] = pair_max
            if witness is None or pair_max > eps_max:
                eps_max = pair_max
                witness = (labels[i], labels[j], pair_witness_y)
        if eps_max == math.inf and not include_per_pair:
            break
    return PrivacyAuditReport(max(0.0, eps_max), witness, per_pair)


def audit_privacy_decimal(mech) -> tuple:
    """Oracle for the accuracy of ``audit_privacy`` (ROADMAP item 13): the
    stored table's epsilon as a 40-digit ``Decimal``, and the first (x, z, y)
    in label order attaining it, or None.  Each entry's log is taken at 40
    digits from the double's exact value, so two nearly equal rows do not
    cancel; a pair's value is its largest log difference over its exact
    distance.  As in ``audit_privacy_loop``, a zero entry of x's row binds
    nothing, a zero of z's under a positive one of x's is inf, and so is a
    pair at distance 0 where x's entry exceeds z's."""
    labels, out_labels = mech.input_space.labels, mech.output_space.labels
    probs, dist = mech.probs.tolist(), mech.input_space.dist.tolist()
    inf = Decimal("Infinity")
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        logs = [[Decimal(p).ln() if p > 0.0 else None for p in row] for row in probs]
        eps, witness = Decimal(0), None
        for i, j in itertools.permutations(range(len(labels)), 2):
            for k, (a, b) in enumerate(zip(logs[i], logs[j])):
                if a is None or (dist[i][j] == 0.0 and not probs[i][k] > probs[j][k]):
                    continue
                value = inf if b is None or dist[i][j] == 0.0 else (a - b) / Decimal(dist[i][j])
                if witness is None or value > eps:
                    eps, witness = value, (labels[i], labels[j], out_labels[k])
    return max(eps, Decimal(0)), witness


def sweep_broadcast(mech, logs, stop) -> np.ndarray:
    """Oracle for ``audit._sweep``: the same blocks of rows, each one fresh
    broadcast ``logs[block, :, None] - logs.T`` reduced over the outputs and
    divided by the block's distances, then the twin rule.  The block size is
    read from ``audit`` at each call, so a test that patches it moves both."""
    dist, lt = mech.input_space.dist, np.ascontiguousarray(logs.T)
    pair_max, step = np.full(dist.shape, -math.inf), max(1, audit._BLOCK_CELLS // logs.size)
    for r0 in range(0, len(logs), step):
        block = slice(r0, r0 + step)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            top = np.fmax.reduce(logs[block, :, None] - lt, axis=1, initial=-math.inf)
            pair_max[block] = top / dist[block]
        a, b = np.nonzero(dist[block] == 0.0)
        pair_max[a + r0, b] = np.where((mech.probs[a + r0] > mech.probs[b]).any(axis=1), math.inf, -math.inf)
        if stop and (pair_max[block] == math.inf).any():
            break
    return pair_max


def impossibility_lower_bound_loop(mech, query, centers, radius,
                                   utility_threshold: float = 0.5) -> ImpossibilityReport:
    """Oracle for ``impossibility_lower_bound``: the same hypothesis
    checks, then one challenger center at a time in list order, keeping
    the first maximum."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 < utility_threshold < 1:
        raise ValueError(f"utility threshold must be in (0, 1), got {utility_threshold}")
    centers = list(centers)
    if len(centers) < 2:
        raise ValueError("need at least two centers (one reference, one challenger)")
    if len(set(centers)) != len(centers):
        raise DomainError("centers must be distinct")
    if query.codomain != mech.output_space:
        raise StructuralError("query codomain does not match the table's output space")
    if query.domain != mech.input_space:
        raise StructuralError("query domain does not match the table's input space")
    out = mech.output_space
    space = mech.input_space
    balls = [out.ball_mask(out.index_of(query(c)), radius) for c in centers]
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            if (balls[a] & balls[b]).any():
                raise DomainError(
                    f"target balls around {centers[a]!r} and {centers[b]!r} overlap; "
                    "the disjointness hypothesis fails"
                )
    idx = [space.index_of(c) for c in centers]
    mass_self = tuple(mass_inside_loop(mech.probs[idx], balls).tolist())
    mass_ref = tuple(mass_inside_loop([mech.probs[idx[0]]] * len(centers), balls).tolist())
    for c, m in zip(centers, mass_self):
        if not m > utility_threshold:
            raise DomainError(
                f"utility hypothesis violated: input {c!r} gives its own ball "
                f"mass {m:g}, not above {utility_threshold:g}"
            )
    best = -math.inf
    best_i = None
    for i in range(1, len(centers)):
        rho = float(space.dist[idx[i], idx[0]])
        if rho <= 0.0:
            raise DomainError(
                f"centers {centers[i]!r} and {centers[0]!r} are at input distance 0 "
                "yet target disjoint balls; the table cannot be a Lipschitz image"
            )
        if mass_ref[i] == 0.0:
            value = math.inf
        else:
            value = (log_scalar(mass_self[i]) - log_scalar(mass_ref[i])) / rho
        if best_i is None or value > best:
            best = value
            best_i = i
    return ImpossibilityReport(best, best_i, mass_self, mass_ref)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and infinities to plain
    JSON-serializable Python values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return encode_value(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_doc_reference(doc) -> str:
    """Oracle for ``dump_doc``: json's pure-Python ``indent=2`` encoder over
    the ``jsonable`` form of the document."""
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
