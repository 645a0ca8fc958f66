"""Shared randomized-instance generators and reference oracles for the
test suite.

Random metrics come in two flavors so the suites exercise more than one
geometry: Euclidean point clouds (axioms exact up to sqrt rounding) and
shortest-path closures of random symmetric matrices.  Both keep points
separated, so log-ratio audits stay far from floating-point cliffs.

The ``*_loop`` functions are the library's original scalar loops for
metric validation, the privacy audit, the Lipschitz constant, single
mechanism rows, tabulation and the greedy disjoint-ball scan.  The
library computes the same results with numpy slabs or shared helpers;
``test_oracles.py`` requires the two to agree bit for bit.
``level_for_radius_loop`` is a brute-force search for the same level
that ``level_for_radius`` computes from the binary exponent.
``dump_doc_reference`` is the original report writer, json's ``indent=2``
encoder, whose bytes ``dump_doc`` must reproduce.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from metricdp import (
    DiscreteMeasure,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    NotLipschitzError,
    PrivacyAuditReport,
    StructuralError,
)
from metricdp import spaces
from metricdp.audit import PROB_FLOOR
from metricdp.formats import jsonable
from metricdp.spaces import METRIC_TOL, AxiomViolation, MetricValidationReport


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
    resampled until no two points are closer than 0.03 * scale."""
    while True:
        pts = rng.uniform(0.0, scale, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        off = d[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() >= 0.03 * scale:
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


def random_map(rng, domain: FiniteMetricSpace, codomain: FiniteMetricSpace) -> LipschitzMap:
    images = rng.integers(len(codomain), size=len(domain))
    table = {x: codomain.labels[int(i)] for x, i in zip(domain.labels, images)}
    return LipschitzMap(domain, codomain, table)


def random_measure(rng, space: FiniteMetricSpace, low: float = 0.1, high: float = 2.0) -> DiscreteMeasure:
    return DiscreteMeasure(space, rng.uniform(low, high, size=len(space)))


def subset_epsilon(mech) -> float:
    """Independent oracle: the audited privacy level maximized over ALL
    nonempty output subsets, not just singletons.  Exponential in the
    output size; callers keep |Y| small."""
    space = mech.input_space
    n = len(space)
    m = mech.probs.shape[1]
    subsets = [list(c) for size in range(1, m + 1) for c in combinations(range(m), size)]
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or space.dist[i, j] == 0.0:
                continue
            rho = float(space.dist[i, j])
            for T in subsets:
                a = float(mech.probs[i, T].sum())
                b = float(mech.probs[j, T].sum())
                if a <= 1e-300:
                    continue
                if b <= 1e-300:
                    return math.inf
                best = max(best, (math.log(a) - math.log(b)) / rho)
    return best


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
                if sigma > METRIC_TOL:
                    raise NotLipschitzError(
                        f"points {domain.labels[i]!r} and {domain.labels[j]!r} are at "
                        f"distance 0 but their images are {sigma:g} apart"
                    )
                continue
            best = max(best, float(sigma / rho))
    return best


def distribution_loop(params, x) -> np.ndarray:
    """Oracle for ``distribution``: one input's row on its own, shifted
    by the largest exponent over the base's support.  Only supported
    points are weighed; the rest keep weight 0."""
    xi = params.query.image_index(x)
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
        ball = out.ball_mask(query.image_index(x), radius)
        if not (ball & covered).any():
            chosen.append(x)
            covered |= ball
    return chosen


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
                elif a <= PROB_FLOOR:
                    ratio = -math.inf  # zero numerator never binds
                elif b <= PROB_FLOOR:
                    ratio = math.inf
                else:
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
    return PrivacyAuditReport(max(eps_max, 0.0), witness, per_pair)


def dump_doc_reference(doc) -> str:
    """Oracle for ``dump_doc``: json's pure-Python ``indent=2`` encoder over
    the ``jsonable`` form of the document."""
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
