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
``level_for_radius_loop`` is a brute-force search for the same level
that ``level_for_radius`` computes from the binary exponent.
``dump_doc_reference`` is the original report writer, json's ``indent=2``
encoder over the ``jsonable`` walk, whose bytes ``dump_doc`` must
reproduce.

``subset_epsilon`` and ``check_em_inequalities`` enumerate every output
subset through one ``subset_sums`` to re-check the mediant reduction that
lets ``audit_privacy`` look at single outputs only.

``randomized_response`` and ``truncated_geometric`` are classical
mechanisms whose exact epsilon is known in closed form, so the audits can
be checked against numbers the library never computes.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass

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
    identity_map,
)
from metricdp import spaces
from metricdp.formats import encode_value
from metricdp.spaces import METRIC_TOL, AxiomViolation, MetricValidationReport

# Entries of hand-made matrices: exact values, values within and just
# beyond METRIC_TOL of each other, and negatives.
MATRIX_ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, -1.0, 1e-13, -1e-13, 2e-12, -2e-12, 1.0 + 1e-13, 1.5]
) | st.floats(-2.0, 4.0, allow_nan=False)


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


def covering_measure_loop(space):
    """Oracle for ``covering_measure`` at its default depth: returns
    (measure, centers per level).  The depth is the brute-force level of
    the smallest positive distance, capped at 1073; level i is
    ``propose_centers_loop`` on the identity at 2^-(i+1), every point must
    lie within 2^-i (plus METRIC_TOL) of a center, and each center gets
    weight 2^-i / n_i added on its own."""
    positive = [d for d in space.dist.ravel().tolist() if d > 0.0]
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


def audit_privacy_loop(mech, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Oracle for ``audit_privacy``: every ordered input pair and every
    output label, in (i, j, k) order.  A zero-distance pair's ratio is inf
    where its rows differ and -inf where they agree.  Without per-pair
    maxima the audit ends after the first row whose maximum is inf."""
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
            pair_max = -math.inf
            pair_witness_y = None
            for k in range(probs.shape[1]):
                a, b = probs[i, k], probs[j, k]
                if rho == 0.0:
                    ratio = math.inf if a != b else -math.inf
                elif a == 0.0:
                    ratio = -math.inf  # zero numerator never binds
                elif b == 0.0:
                    ratio = math.inf
                else:
                    # A near-zero distance overflows the quotient to inf, the exact value.
                    with np.errstate(over="ignore"):
                        ratio = (math.log(a) - math.log(b)) / rho
                if ratio > pair_max:
                    pair_max = ratio
                    pair_witness_y = out_labels[k]
            if pair_witness_y is None:
                continue  # every ratio is -inf: the pair constrains nothing
            if per_pair is not None:
                per_pair[i, j] = pair_max
            if witness is None or pair_max > eps_max:
                eps_max = pair_max
                witness = (labels[i], labels[j], pair_witness_y)
        if eps_max == math.inf and not include_per_pair:
            break
    return PrivacyAuditReport(max(0.0, eps_max), witness, per_pair)


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
    mass_self = tuple(float(mech.probs[idx[i]][balls[i]].sum()) for i in range(len(centers)))
    mass_ref = tuple(float(mech.probs[idx[0]][balls[i]].sum()) for i in range(len(centers)))
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
            value = (math.log(mass_self[i]) - math.log(mass_ref[i])) / rho
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
