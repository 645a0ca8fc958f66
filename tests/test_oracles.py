"""The numpy fast paths agree bit for bit with their scalar-loop oracles.

Each test compares one library function with the ``*_loop`` oracle in
``conftest`` on the same input: epsilon, witness and per-pair maxima of
the privacy audit, every axiom violation of the validator, the Lipschitz
constant, the row and table bits, the centers of the greedy disjoint-ball
scan, the level of a radius, the bytes of a written report, and the type
and text of every error raised.
Inputs come from ``hypothesis`` and from seeded generators, and are built
to hit the edge cases: many violations of every kind, pseudometrics with
zero-distance twins, tiny positive probabilities at 1e-305 next to exact
zeros, rows of nothing but zeros and tiny entries, and exact ties.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    MATRIX_ENTRIES,
    audit_privacy_loop,
    closure_metric,
    cloud_metric,
    cover_hierarchy_loop,
    covering_measure_loop,
    distribution_loop,
    dump_doc_reference,
    impossibility_lower_bound_loop,
    level_for_radius_loop,
    line_space,
    lipschitz_constant_loop,
    log_scalar,
    propose_centers_loop,
    random_map,
    random_measure,
    random_space,
    tabulate_loop,
    validate_metric_loop,
    validate_metric_slabs,
)
from metricdp import (
    METRIC_TOL,
    CoverHierarchy,
    CoverLevel,
    DiscreteMeasure,
    DomainError,
    ExpMechParams,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    NotLipschitzError,
    StructuralError,
    audit_privacy,
    covering_measure,
    default_depth,
    discrete_space,
    distribution,
    greedy_net,
    grid_space,
    identity_map,
    impossibility_lower_bound,
    level_for_radius,
    lipschitz_constant,
    max_packing,
    propose_centers,
    tabulate,
    uniform_measure,
    validate_metric,
)
from metricdp import audit, cli, covering, formats
from metricdp.formats import dump_doc
from metricdp.spaces import _BLOCK_CELLS, _euclidean, _triangle_rows

PROPERTY = settings(max_examples=150, deadline=None)

# Row weights before normalizing: exact zeros, tiny positive entries that
# stay near 1e-305 after normalizing, and halves that make ratios tie.
WEIGHTS = st.sampled_from([0.0, 1e-305, 0.5, 1.0, 1.0, 2.0, 3.0])


# The validator accepts distances just below zero (within METRIC_TOL),
# which a space stores as 0.0, and subnormal ones, whose ratios overflow
# and must do so exactly as in the loops.
NEAR_ZERO_DIST = np.array([[0.0, -5e-13, 1e-310, 1.0],
                           [-5e-13, 0.0, 1e-310, 1.0],
                           [1e-310, 1e-310, 0.0, 1.0],
                           [1.0, 1.0, 1.0, 0.0]])


def bits(x) -> bytes:
    """Exact bit pattern of a float (tells 0.0 from -0.0)."""
    return np.float64(x).tobytes()


def same_outcome(fast, slow, *args):
    """Call both.  If the oracle raises, require the same error type and
    text and return None; otherwise return both results."""
    try:
        expected = slow(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        with pytest.raises(type(exc)) as caught:
            fast(*args)
        assert str(caught.value) == str(exc)
        return None
    return fast(*args), expected


def raw_table(input_space, output_space, probs) -> MechanismTable:
    """A table that skips the row-sum check, so a row may hold nothing
    but zeros and tiny entries (an imported table could carry one)."""
    table = object.__new__(MechanismTable)
    table.input_space = input_space
    table.output_space = output_space
    table.probs = np.asarray(probs, dtype=float)
    return table


def assert_same_audit(mech):
    for include in (False, True):
        got = audit_privacy(mech, include_per_pair=include)
        want = audit_privacy_loop(mech, include_per_pair=include)
        assert bits(got.epsilon_max) == bits(want.epsilon_max)
        assert got.witness == want.witness
        if include:
            assert got.per_pair_max.tobytes() == want.per_pair_max.tobytes()
        else:
            assert got.per_pair_max is None and want.per_pair_max is None


def assert_same_validation(mat):
    got = validate_metric(mat)
    with np.errstate(over="ignore"):
        want = validate_metric_loop(mat)
    assert got == want
    for v in got.violations:
        assert all(type(i) is int for i in v.witness)


def far_apart(h, violating):
    """Points at mutual distance ``h``, so that path sums pass the float
    maximum.  ``violating`` adds a fourth point and puts points 0 and 3
    at distance 1 from point 1, which breaks the triangle 0-1-3."""
    if not violating:
        return h * (1.0 - np.eye(3))
    mat = h * (1.0 - np.eye(4))
    mat[0, 1] = mat[1, 0] = mat[1, 3] = mat[3, 1] = 1.0
    return mat


@st.composite
def square_matrices(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(MATRIX_ENTRIES, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, n)


@st.composite
def audit_cases(draw):
    """A table over a line pseudometric, with some zero-distance twins
    sharing rows and some not."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    coords = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    space = line_space(coords)
    out = line_space(np.arange(m, dtype=float))
    rows = []
    for i in range(n):
        twin = next((j for j in range(i) if coords[j] == coords[i]), None)
        if twin is not None and draw(st.booleans()):
            rows.append(rows[twin])
            continue
        w = np.array(draw(st.lists(WEIGHTS, min_size=m, max_size=m)))
        if not w.sum() > 1e-300:
            w[draw(st.integers(0, m - 1))] = 1.0
        rows.append(w / w.sum())
    return MechanismTable(space, out, np.array(rows))


class TestValidateMetricOracle:
    @PROPERTY
    @given(square_matrices())
    @example(far_apart(2.0**1023, violating=False))
    @example(far_apart(2.0**1023, violating=True))
    @example(far_apart(1.7e308, violating=False))
    @example(far_apart(1.7e308, violating=True))
    def test_hand_made_matrices(self, mat):
        assert_same_validation(mat)

    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_metrics_violate_every_axiom(self, seed):
        rng = np.random.default_rng(seed)
        n = 12 + 3 * seed
        mat = closure_metric(rng, n) + rng.normal(0.0, 0.2, size=(n, n))
        mat[rng.random((n, n)) < 0.1] *= -1.0
        report = validate_metric(mat)
        kinds = {v.axiom for v in report.violations}
        assert kinds == {"zero_diagonal", "nonnegativity", "symmetry", "triangle"}
        assert_same_validation(mat)

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_metrics_and_pseudometrics(self, seed):
        rng = np.random.default_rng(100 + seed)
        assert_same_validation(random_space(rng, 20).dist)
        assert_same_validation(line_space(rng.integers(0, 4, size=15)).dist)

    def test_tolerance_boundary(self):
        """dist[0][2] within an ulp of dist[0][1] + dist[1][2] + METRIC_TOL,
        where the order of the two additions decides the verdict."""
        rng = np.random.default_rng(7)
        order_matters = 0
        for a, b in rng.uniform(0.0, 1.0, size=(300, 2)):
            edge = (a + b) + METRIC_TOL
            for c in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 3.0)):
                order_matters += (c > (a + b) + METRIC_TOL) != (c > a + (b + METRIC_TOL))
                assert_same_validation(np.array([[0.0, a, c], [a, 0.0, b], [c, b, 0.0]]))
        assert order_matters  # the inputs do reach the rounding boundary


def twin_cloud(rng, n: int) -> np.ndarray:
    """Planar distances where every fifth point is a twin of the one before
    it, so the matrix holds exact zeros off the diagonal."""
    pts = rng.uniform(size=(n, 2))
    pts[5::5] = pts[4:-1:5][: len(pts[5::5])]
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def tile_inputs(n: int):
    """(name, matrix) pairs for one size.  The planted pair (13, 14)
    straddles the first row-tile boundary at n=96, and (1, n - 1) lies in
    the last k-tile of row 1 at n=363, which nothing else covers."""
    rng = np.random.default_rng(n)
    symmetric = twin_cloud(rng, n)
    for i, k in ((13, 14), (1, n - 1)):
        symmetric[i, k] = symmetric[k, i] = 3.0
    yield "symmetric", symmetric

    band = twin_cloud(rng, n) + rng.uniform(-4.5e-13, 4.5e-13, size=(n, n))
    twin, first = np.arange(5, n, 5), np.arange(4, n - 1, 5)
    band[twin, first], band[first, twin] = -0.0, 0.0
    band[::7, ::7][np.eye(len(band[::7]), dtype=bool)] = -0.0
    yield "band", band

    # Integer points on a line sum exactly; dist[k][i] sits 1.2e-12 above
    # the path through any point between, dist[i][k] only 0.5e-12.
    x = np.arange(n, dtype=float)
    x[[14, n - 1]] = x[[n - 1, 14]]
    reverse = np.abs(x[:, None] - x[None, :])
    for i, k in ((13, 14), (1, n - 1)):
        reverse[i, k] += 5e-13
        reverse[k, i] += 1.2e-12
    yield "reverse", reverse

    at = [1, 13, 14, n - 1]
    for h in (2.0**1023, 1.7e308):
        for violating in (False, True):
            far = twin_cloud(rng, n)
            idx = at if violating else at[1:]
            far[idx, :] = far[:, idx] = h
            far[np.ix_(idx, idx)] = far_apart(h, violating)
            yield f"far-{h:g}-{violating}", far

    # Row 5 alone halved: the envelope min(dist, dist.T) then shortens paths
    # through point 5 in both directions, so the pass flags points that have
    # no violation of their own.
    one_sided = twin_cloud(rng, n)
    one_sided[5] *= 0.5
    yield "one-sided", one_sided


class TestValidateMetricTiles:
    """Whole reports of the tiled triangle pass, equal to an oracle's for
    each tile shape: one tile (n=40, against the loop), 14-row tiles with a
    last one of 12 (n=96), single-row tiles (n=300) and rows split over k
    (n=363), each on exactly symmetric input, input asymmetric within
    METRIC_TOL with signed zeros, a violation only in the (k, i) direction,
    the far_apart overflow examples spread across tiles and one row scaled
    out of the band."""

    @pytest.mark.parametrize("n", [40, 96, 300, 363])
    def test_every_tile_shape(self, n):
        rows = max(1, _BLOCK_CELLS // (n * n))
        shape = {40: rows >= n, 96: (rows, n % rows) == (14, 12),
                 300: rows == 1 and _BLOCK_CELLS // n >= n,
                 363: _BLOCK_CELLS // n < n}
        assert shape[n]
        oracle = validate_metric_loop if n <= 40 else validate_metric_slabs
        for name, mat in tile_inputs(n):
            got = validate_metric(mat)
            with np.errstate(over="ignore"):
                want = oracle(mat)
            assert got == want, name
            triangles = {v.witness for v in want.violations if v.axiom == "triangle"}
            if name == "symmetric":
                assert {w[0] for w in triangles} == {1, 13, 14, n - 1}
            elif name == "band":
                assert not np.array_equal(mat, mat.T)
                assert not any(v.axiom == "symmetry" for v in want.violations)
            elif name == "reverse":
                assert want.violations and {w[:2] for w in triangles} == {(14, 13), (n - 1, 1)}
            elif name.endswith("True"):
                assert (1, n - 1, 13) in triangles
            elif name == "one-sided":
                flagged = set(_triangle_rows(mat, np.array_equal(mat, mat.T))[0])
                assert flagged > {w[0] for w in triangles}

    def test_symmetry_over_row_blocks(self):
        """Asymmetric pairs beyond METRIC_TOL in both row blocks of the
        symmetry check (327 rows, then 73, at n=400) and on either side of
        the diagonal: the report is the whole-matrix oracle's."""
        n = 400
        step = _BLOCK_CELLS // n
        mat = twin_cloud(np.random.default_rng(n), n)
        for i, k in ((0, n - 1), (step - 1, step), (step, step + 1), (n - 1, step + 2), (step + 5, 3)):
            mat[i, k] += 1e-6
        report = validate_metric(mat)
        assert report == validate_metric_slabs(mat)
        assert [v.witness for v in report.violations if v.axiom == "symmetry"] == [
            (0, n - 1), (3, step + 5), (step - 1, step), (step, step + 1), (step + 2, n - 1)]


@st.composite
def near_equilateral(draw):
    """An n x n matrix, 3 <= n <= 7, with every off-diagonal entry in
    [m, 2m] and m = 2^e for e uniform over the doubles' exponents, so that
    the triangle pass is certified away.  Draws may add an asymmetric pair
    within METRIC_TOL, a pair just below zero or at zero (twins, so the
    pass runs), and a last pair at exactly fl(2m' + METRIC_TOL), m' the
    least entry, or one double above it."""
    n = draw(st.integers(3, 7))
    m = 2.0 ** draw(st.floats(-1074.0, 1022.0))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)))
    mat = np.triu(m + m * u.reshape(n, n), 1)
    mat += mat.T
    mat[0, 1] = mat[1, 0] = m
    i, j = draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
    change = draw(st.sampled_from(["none", "asymmetric", "negative", "twins"]))
    if change == "asymmetric":
        mat[i, j] += draw(st.floats(-METRIC_TOL, METRIC_TOL))
    elif change == "negative":
        mat[i, j] = mat[j, i] = -draw(st.floats(0.0, METRIC_TOL))
    elif change == "twins":
        mat[i, j] = mat[j, i] = 0.0
    low = np.minimum(mat, mat.T)
    least = float(low[~np.eye(n, dtype=bool)].min())
    edge = (least + least) + METRIC_TOL
    bump = draw(st.sampled_from([None, 0, 1]))
    if bump is not None and math.isfinite(edge):
        mat[n - 1, n - 2] = mat[n - 2, n - 1] = edge if bump == 0 else math.nextafter(edge, math.inf)
    return mat


class TestTriangleCertificate:
    """A matrix whose largest entry is at most twice its least off-diagonal
    entry, plus METRIC_TOL, has no triangle the pass could flag: the
    validator skips the pass and still returns the loop's report."""

    @PROPERTY
    @given(near_equilateral())
    def test_near_equilateral_matrices(self, mat):
        assert_same_validation(mat)

    @pytest.mark.parametrize("m", [5e-324, 1e-310, 1e-13, 0.6, 1.0, 2.0**600, 2.0**1022])
    def test_tile_runs_one_ulp_above_the_bound(self, m, monkeypatch):
        adds, add = [], np.add
        monkeypatch.setattr(np, "add", lambda *args, **kw: adds.append(1) or add(*args, **kw))
        mat = m * (1.0 - np.eye(6))
        edge = (m + m) + METRIC_TOL
        for entry, runs in ((edge, False), (math.nextafter(edge, math.inf), True)):
            mat[1, 2] = mat[2, 1] = entry
            adds.clear()
            got = validate_metric(mat)
            assert bool(adds) == runs
            assert got == validate_metric_loop(mat)
            assert got.ok != runs  # dist[1][2] beats its path through any point

    @pytest.mark.parametrize("n", range(3, 41))
    def test_the_least_entry_is_the_envelopes(self, n, monkeypatch):
        """The rule reads the least off-diagonal entry of the matrix in
        place, and it is the minimum of the envelope min(mat, mat.T) with
        +inf on its diagonal: with the largest entry at fl(2m + METRIC_TOL),
        m that minimum, the pass does not run and builds no envelope, and
        one ulp above it does.  The diagonal holds in-band entries below m,
        and m sits on one side of an in-band asymmetric pair.  Entries are
        near 1, tiny with twins, or tiny with an in-band negative pair; the
        input is C-ordered, Fortran-ordered, a transposed view or a strided
        view."""
        rng = np.random.default_rng(n)
        minimum, envelopes = np.minimum, []
        monkeypatch.setattr(np, "minimum", lambda *args, **kw: envelopes.append(1) or minimum(*args, **kw))
        for lo, hi, least, other, diagonal in ((0.6, 1.0, 0.5, 0.5 + 1e-13, 1e-13),
                                               (0.0, 5e-13, 0.0, 1e-14, -1e-13),
                                               (-2e-13, 3e-13, -3e-13, -2e-13, -1e-12)):
            mat = rng.uniform(lo, hi, size=(n, n))
            np.fill_diagonal(mat, diagonal)
            i, j, k = rng.permutation(n)[:3].tolist()
            mat[i, j], mat[j, i] = least, other
            low = minimum(mat, mat.T)
            np.fill_diagonal(low, np.inf)
            m = float(low.min())
            edge = (m + m) + METRIC_TOL
            for top in (edge, math.nextafter(edge, math.inf)):
                mat[j, k] = mat[k, j] = top
                wide = np.zeros((n, 2 * n))
                wide[:, ::2] = mat
                for view in (mat, np.asfortranarray(mat), np.ascontiguousarray(mat.T).T, wide[:, ::2]):
                    envelopes.clear()
                    _triangle_rows(view, False)
                    assert bool(envelopes) == (top > edge), (lo, top, view.flags)


@st.composite
def point_clouds(draw):
    """Distances of 3 to 40 seeded points in 1 to 4 dimensions, coordinates
    in [-1, 1] times 2^e for e in [-30, 10], with shapes that stress the
    coordinates the certificate builds: every third point a twin, a
    collinear run between points 0 and 1, or a twin pair set apart by a
    subnormal entry.  One symmetric pair may then move by k·METRIC_TOL/4,
    k in [-8, 8], or by up to three ulps either way."""
    dim = draw(st.integers(1, 4))
    n = draw(st.sampled_from(range(3, 41)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim)) * 2.0 ** draw(st.sampled_from(range(-30, 11)))
    shape = draw(st.sampled_from(["plain", "twins", "collinear", "subnormal"]))
    if shape in ("twins", "subnormal"):
        pts[1::3] = pts[0:-1:3][: len(pts[1::3])]
    elif shape == "collinear":
        run = rng.uniform(-0.5, 1.5, size=(n - 2, 1))
        pts[2:] = pts[0] + run * (pts[1] - pts[0])
    diff = pts[:, None, :] - pts[None, :, :]
    mat = np.sqrt((diff * diff).sum(axis=2))
    if shape == "subnormal":
        mat[0, 1] = mat[1, 0] = 1e-310
    move = draw(st.sampled_from(["none", "tolerance", "ulps"]))
    if move != "none":
        i, k = draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
        if move == "tolerance":
            entry = mat[i, k] + draw(st.integers(-8, 8)) * METRIC_TOL / 4
        else:
            steps = draw(st.integers(-3, 3))
            entry = mat[i, k]
            for _ in range(abs(steps)):
                entry = math.nextafter(entry, math.copysign(math.inf, steps))
        mat[i, k] = mat[k, i] = entry
    return mat


class TestEuclideanCertificate:
    """An exactly symmetric matrix within 3η of the distances of float
    points (see ``spaces._euclidean``) skips the pass, and the report is
    still the loop's: the certificate never accepts a matrix with a
    triangle the pass would flag."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point_clouds())
    def test_point_clouds(self, mat):
        got = validate_metric(mat)
        with np.errstate(over="ignore"):
            want = validate_metric_loop(mat)
        assert got == want
        if _euclidean(mat, float(np.abs(mat).max()), float(mat.max()), True):
            assert not any(v.axiom == "triangle" for v in want.violations)

    @pytest.mark.parametrize("n", [96, 400])
    def test_which_inputs_reach_a_tile(self, n, monkeypatch):
        """Planar, 1-D and 3-D clouds, and a planar one with a pair moved
        by METRIC_TOL/4, are certified; an ℓ1 grid and a shortest-path
        closure are not Euclidean, an in-band asymmetric twin is not
        exactly symmetric, and a pair moved by METRIC_TOL/2 or scaled by
        3 is too far from any cloud: those reach a tile."""
        rng = np.random.default_rng(n)

        def cloud(dim):
            pts = rng.uniform(size=(n, dim))
            diff = pts[:, None, :] - pts[None, :, :]
            return np.sqrt((diff * diff).sum(axis=2))

        def moved(by):
            mat = cloud(2)
            mat[5, 9] = mat[9, 5] = mat[5, 9] * by[0] + by[1]
            return mat

        twin = cloud(2)
        upper = np.triu_indices(n, 1)
        twin[upper] = np.nextafter(twin[upper], math.inf)
        x, y = np.divmod(np.arange(n), 8 if n == 96 else 20)
        l1 = np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])
        cases = [("planar", cloud(2), False), ("1-D", cloud(1), False), ("3-D", cloud(3), False),
                 ("moved by TOL/4", moved((1.0, METRIC_TOL / 4)), False),
                 ("moved by TOL/2", moved((1.0, METRIC_TOL / 2)), True),
                 ("l1 grid", l1.astype(float), True), ("closure", closure_metric(rng, n), True),
                 ("in-band asymmetric twin", twin, True), ("one violation", moved((3.0, 0.0)), True)]
        adds, add = [], np.add
        monkeypatch.setattr(np, "add", lambda *args, **kw: adds.append(1) or add(*args, **kw))
        for name, mat, tiled in cases:
            adds.clear()
            report = validate_metric(mat)
            assert bool(adds) == tiled, name
            assert (report.certified_by == "tiled") == bool(adds), name
            assert report.ok == (name != "one violation"), name


class TestAuditPrivacyOracle:
    @PROPERTY
    @given(audit_cases())
    def test_pseudometric_tables(self, mech):
        assert_same_audit(mech)

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_floored_rows(self, seed, twins):
        """Rows of only zeros and 1e-305 entries: an all-zero row constrains
        nothing but still counts in separated pairs, and a 1e-305 entry is
        positive mass against a zero."""
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 6), rng.integers(1, 5)
        coords = rng.integers(0, 3, size=n) if twins else np.arange(n)
        probs = rng.choice([0.0, 1e-305, 0.25, 0.5], size=(n, m))
        probs[rng.random(n) < 0.5] = rng.choice([0.0, 1e-305], size=m)
        assert_same_audit(raw_table(line_space(coords), line_space(np.arange(m)), probs))

    @pytest.mark.parametrize("seed", range(8))
    def test_exponential_mechanism_tables(self, seed):
        rng = np.random.default_rng(200 + seed)
        domain = random_space(rng, int(rng.integers(2, 14)))
        codomain = random_space(rng, int(rng.integers(1, 14)))
        query = random_map(rng, domain, codomain)
        base = random_measure(rng, codomain, low=0.0)
        for beta in (0.0, 1.0, 40.0, 800.0):
            assert_same_audit(tabulate(ExpMechParams(base=base, beta=beta, query=query)))

    @pytest.mark.parametrize("seed", range(3))
    def test_many_distinct_probabilities(self, seed):
        """600 probabilities spread over (0, 1), each the maximizer of
        many pairs: a host's np.log or math.log differs from the audit's
        kernel by an ulp on some such inputs, and the per-pair maxima would
        show it."""
        rng = np.random.default_rng(500 + seed)
        p = rng.uniform(0.01, 0.99, size=300)
        mech = MechanismTable(discrete_space(300), discrete_space(2), np.stack([p, 1 - p], axis=1))
        assert_same_audit(mech)

    def test_outputs_no_input_produces_are_left_out(self):
        """The sweep reads only outputs some input produces.  The covering
        base on a planar pseudometric gives its duplicate points no weight,
        and a base that is zero on a prefix puts every witness output after
        the outputs left out, so the witness must be mapped back to its own
        output.  A table with no mass anywhere keeps every output."""
        rng = np.random.default_rng(45)
        n = 24
        pts = rng.uniform(size=(2 * n // 3, 2))
        pts = rng.permutation(np.vstack([pts, pts[rng.integers(len(pts), size=n - len(pts))]]))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        pseudo = FiniteMetricSpace([f"q{i}" for i in range(n)], dist / dist.max())
        covered, _ = covering_measure(pseudo)
        plane = FiniteMetricSpace([f"p{i}" for i in range(n)], cloud_metric(rng, n))
        prefix = DiscreteMeasure(plane, np.r_[np.zeros(n // 3), np.ones(n - n // 3)])
        for base in (covered, prefix):
            space = base.space
            mech = tabulate(ExpMechParams(base=base, beta=6.0, query=identity_map(space)))
            unsupported = np.flatnonzero(~mech.probs.any(axis=0))
            assert 0 < unsupported.size < n
            assert_same_audit(mech)
            x, z, y = audit_privacy(mech).witness
            assert space.dist[space.index_of(x), space.index_of(z)] > 0.0
            assert space.index_of(y) > unsupported[0]
        empty = raw_table(line_space([0.0, 1.0, 1.0]), line_space([0.0, 1.0]), np.zeros((3, 2)))
        assert_same_audit(empty)
        report = audit_privacy(empty)
        assert (report.epsilon_max, report.witness) == (0.0, None)

    def test_distances_within_tolerance_of_zero(self):
        space = FiniteMetricSpace(["a", "b", "c", "d"], NEAR_ZERO_DIST)
        out = line_space([0.0, 1.0, 2.0])
        probs = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                          [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]])
        assert_same_audit(MechanismTable(space, out, probs))

    def test_ties_keep_the_first_witness(self):
        # ln 2 over distance 1 is attained by many (x, z, y); the witness
        # is the first in (x, z, y) order.
        space = line_space([0.0, 1.0, 2.0])
        probs = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        mech = MechanismTable(space, space, probs)
        assert_same_audit(mech)
        report = audit_privacy(mech)
        assert report.epsilon_max == log_scalar(0.5) - log_scalar(0.25)
        assert report.witness == ("x0", "x1", "x0")

    def test_zero_distance_exit_after_infinite_pair(self):
        # (x0, x1) is infinite; (x0, x2) is a zero-distance pair whose rows
        # differ, so it is infinite too.  The first infinite pair in label
        # order is the witness, with or without per-pair maxima.
        space = line_space([0.0, 1.0, 0.0])
        out = line_space([0.0, 1.0])
        probs = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        mech = MechanismTable(space, out, probs)
        assert_same_audit(mech)
        assert audit_privacy(mech).witness == ("x0", "x1", "x1")
        assert audit_privacy(mech, include_per_pair=True).witness == ("x0", "x1", "x1")

    @PROPERTY
    @given(audit_cases())
    def test_per_pair_matrix_changes_no_verdict(self, mech):
        """Tables over line pseudometrics with twins: the per-pair matrix
        leaves epsilon (to the bit) and witness as they are."""
        plain = audit_privacy(mech)
        full = audit_privacy(mech, include_per_pair=True)
        assert bits(plain.epsilon_max) == bits(full.epsilon_max)
        assert plain.witness == full.witness

    def test_per_pair_matrix_past_a_zero_distance_pair(self):
        # a and b are at distance 0 with differing rows; row c comes
        # after them in the audit and still gets its true maxima.
        space = FiniteMetricSpace(["a", "c", "b"], [[0.0, 1.0, 0.0],
                                                    [1.0, 0.0, 1.0],
                                                    [0.0, 1.0, 0.0]])
        out = FiniteMetricSpace(["y0", "y1"], [[0.0, 1.0], [1.0, 0.0]])
        mech = MechanismTable(space, out, [[0.5, 0.5], [1.0, 0.0], [0.4, 0.6]])
        assert_same_audit(mech)
        full = audit_privacy(mech, include_per_pair=True)
        assert full.witness == audit_privacy(mech).witness == ("a", "c", "y1")
        assert full.epsilon_max == math.inf
        expected = [[0.0, math.inf, math.inf],
                    [log_scalar(1.0) - log_scalar(0.5), 0.0, log_scalar(1.0) - log_scalar(0.4)],
                    [math.inf, math.inf, 0.0]]
        assert full.per_pair_max.tolist() == expected


    def test_distance_below_zero_with_a_floored_entry(self):
        # b is given within METRIC_TOL below zero from a, so the space
        # stores 0.0 and a, b are twins; a's row exceeds b's only at x1
        # (where b gives zero mass), so the pair (a, b) is inf there.
        space = FiniteMetricSpace(["a", "b", "c"], [[0.0, -5e-13, 1.0],
                                                    [-5e-13, 0.0, 1.0],
                                                    [1.0, 1.0, 0.0]])
        mech = MechanismTable(space, line_space([0.0, 1.0]),
                              [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
        assert_same_audit(mech)
        report = audit_privacy(mech, include_per_pair=True)
        assert report.epsilon_max == math.inf
        assert report.witness == ("a", "b", "x1")
        assert report.per_pair_max[0, 1] == math.inf

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["twins", "in_band", "late_inf"])
    def test_tables_larger_than_one_block(self, kind, seed):
        mech = multi_block_table(seed, kind)
        n, m = mech.probs.shape
        assert n * n * m > audit._BLOCK_CELLS
        assert_same_audit(mech)
        b = audit._BLOCK_CELLS // (n * m)
        report = audit_privacy(mech, include_per_pair=True)
        if kind == "twins":
            assert report.witness == (f"x{b - 1}", f"x{b}", "x0")
            assert report.epsilon_max == math.inf
        elif kind == "in_band":
            # A difference over 5e-13 outweighs every other pair's ratio; the
            # larger of its two directions is the witness.
            assert set(report.witness[:2]) == {f"x{b - 1}", f"x{b}"}
            assert 1e10 < report.epsilon_max < math.inf
        else:
            # The first block is finite; row b is infinite against row 0 at
            # the first output.
            assert report.witness == (f"x{b}", "x0", "x0")
            assert report.epsilon_max == math.inf
            assert np.isfinite(report.per_pair_max[:b]).all()
        assert audit_privacy(mech).witness == report.witness

    def test_huge_distance_keeps_the_first_zero(self):
        # Over a distance of about 8.5e307 the log difference at the first
        # output (about -1.1e-16) gives -0.0 and the equal entries give 0.0: the
        # pair's maximum is its largest log difference divided once, 0.0 / 8.5e307
        # = +0.0, while the witness output is still the first zero ratio, x0.  The
        # distance stays below half the float range, so validation's sums of
        # two distances do not overflow.
        far = 1.9 * 2.0**1022
        space = FiniteMetricSpace(["a", "b"], [[0.0, far], [far, 0.0]])
        rows = [[np.nextafter(0.5, 0.0), 0.25, 0.25], [0.5, 0.25, 0.25]]
        mech = MechanismTable(space, line_space([0.0, 1.0, 2.0]), rows)
        assert_same_audit(mech)
        report = audit_privacy(mech, include_per_pair=True)
        assert bits(report.per_pair_max[0, 1]) == bits(0.0)
        assert bits(report.epsilon_max) == bits(0.0)
        assert report.witness == ("a", "b", "x0")

    @pytest.mark.parametrize("diagonal", [1e-13, -1e-13])
    def test_diagonal_within_tolerance_of_zero(self, diagonal):
        # The space stores a zero diagonal, whatever the entry given, so no
        # point is paired with itself and the smallest positive distance is
        # 1: with equal rows the witness is the first pair of distinct points.
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        np.fill_diagonal(dist, diagonal)
        space = FiniteMetricSpace(["a", "b", "c"], dist)
        assert np.diagonal(space.dist).tobytes() == bytes(24)
        assert default_depth(space) == 1
        mech = MechanismTable(space, line_space([0.0, 1.0]), [[0.5, 0.5]] * 3)
        assert_same_audit(mech)
        assert audit_privacy(mech).witness == ("a", "b", "x0")


def multi_block_table(seed, kind) -> MechanismTable:
    """A 70-point table over 30 outputs: its privacy audit reduces 147,000
    log differences, more than one block of rows.  Points b - 1 and b sit
    on either side of the first block boundary.  ``kind``:

    - "twins": b - 1 and b at distance 0, with different rows;
    - "in_band": b - 1 and b 5e-13 apart, a positive distance within
      METRIC_TOL, with different rows;
    - "late_inf": the first three outputs zero in every row of the
      first block only, so only later rows have an infinite maximum.

    The last output is at 1e-305, a tiny positive mass, in every row."""
    rng = np.random.default_rng(seed)
    n, m = 70, 30
    b = audit._BLOCK_CELLS // (n * m)  # first row of the second block
    assert 0 < b < n
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    if kind != "late_inf":
        pts[b] = pts[b - 1]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if kind == "in_band":
        dist[b - 1, b] = dist[b, b - 1] = 5e-13
    probs = rng.uniform(0.1, 1.0, size=(n, m))
    probs[:, -1] = 0.0
    if kind == "late_inf":
        probs[:b, :3] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    probs[:, -1] = 1e-305
    space = FiniteMetricSpace([f"x{i}" for i in range(n)], dist)
    return MechanismTable(space, line_space(np.arange(m)), probs)


def lower_bound_case(rng):
    """Arguments for ``impossibility_lower_bound``: a line pseudometric
    input space whose twins sit at distance 0 (sharing their image) or
    5e-13 apart (mapped anywhere), and sometimes only subnormal
    distances apart; rows that mostly favour their own image, with
    tiny positive entries near 1e-305 and repeated weights; random centers.
    In a third of the cases up to four inputs have distinct images among
    36 to 48 outputs 1/8 apart, so that a ball holds up to 17 outputs and
    the order of its sum shows in the bits."""
    wide = rng.random() < 1 / 3
    n = int(rng.integers(2, 5 if wide else 7))
    m = int(4 * rng.integers(9, 13) if wide else rng.integers(2, 7))
    coords = rng.permutation(4)[:n] if wide else rng.integers(0, 4, size=n)
    dist = np.abs(coords[:, None] - coords[None, :]) * (1e-320 if rng.random() < 0.2 else 1.0)
    images = coords * (m // 4) if wide else coords % m
    if not wide and rng.random() < 0.3:
        dist[(dist == 0.0) & ~np.eye(n, dtype=bool)] = 5e-13
        images = rng.integers(m, size=n)
    domain = FiniteMetricSpace([f"x{i}" for i in range(n)], dist)
    # Balls of radius <= 1 hold one point of the narrow line.
    codomain = line_space(np.arange(m) / 8.0 if wide else 2.0 * np.arange(m))
    query = LipschitzMap(domain, codomain,
                         {x: codomain.labels[i] for x, i in zip(domain.labels, images)})
    if rng.random() < 0.3:
        # One weight on the image and another elsewhere: challengers as far
        # from the reference on either side tie.
        own, other = [(4.0, 1.0), (1.0, 0.0), (3.0, 1e-305)][rng.integers(3)]
        probs = np.where(np.arange(m) == images[:, None], own, other)
    else:
        probs = rng.choice([0.0, 1e-305, 0.1, 0.25, 0.5], size=(n, m))
        probs[np.arange(n), images] += rng.choice([0.0, 2.0, 4.0], size=n)
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    mech = MechanismTable(domain, codomain, probs / probs.sum(axis=1, keepdims=True))
    k = int(rng.integers(2, min(n, 4) + 1))
    centers = [domain.labels[i] for i in rng.permutation(n)[:k]]
    radius = float(rng.choice([0.25, 0.5, 1.0]))
    threshold = float(rng.choice([0.05, 0.3, 0.5]))
    return mech, query, centers, radius, threshold


class TestLowerBoundOracle:
    def test_seeded_instances(self):
        """Every report field to the bit, or the same error type and text.
        The seeds reach infinite bounds (zero reference masses), ties
        between challengers, overflowing ratios and overlapping balls."""
        seen = dict.fromkeys(["finite", "inf", "tie", "overlap"], 0)
        for seed in range(400):
            args = lower_bound_case(np.random.default_rng(seed))
            try:
                want = impossibility_lower_bound_loop(*args)
            except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
                with pytest.raises(type(exc)) as caught:
                    impossibility_lower_bound(*args)
                assert str(caught.value) == str(exc)
                seen["overlap"] += "overlap" in str(exc)
                continue
            got = impossibility_lower_bound(*args)
            assert bits(got.eps_lower) == bits(want.eps_lower)
            assert got.witness_index == want.witness_index
            assert np.array(got.ball_mass_self).tobytes() == np.array(want.ball_mass_self).tobytes()
            assert np.array(got.ball_mass_ref).tobytes() == np.array(want.ball_mass_ref).tobytes()
            seen["inf" if got.eps_lower == math.inf else "finite"] += 1
            mech, query, centers = args[:3]
            idx = [mech.input_space.index_of(c) for c in centers]
            rho = mech.input_space.dist[idx[1:], idx[0]]
            with np.errstate(divide="ignore", over="ignore"):
                values = np.log(np.divide(got.ball_mass_self[1:], got.ball_mass_ref[1:])) / rho
            seen["tie"] += int(np.count_nonzero(values == values.max()) > 1)
        assert min(seen.values()) >= 3, seen

    def test_first_overlap_in_row_major_order(self):
        # Radius 0.125 on grid9: "0.75" meets "0.5" at 0.625, "0.25" meets
        # "0.5" at 0.375 and "0" at 0.125.  Point 0.125 is the first shared
        # one, but row-major order reaches the pair (0, 2) first.
        s = grid_space(9)
        mech = tabulate(ExpMechParams(base=DiscreteMeasure(s, np.ones(9)), beta=9.0,
                                      query=identity_map(s)))
        args = (mech, identity_map(s), ["0.75", "0.25", "0.5", "0"], 0.125)
        assert same_outcome(impossibility_lower_bound, impossibility_lower_bound_loop, *args) is None
        with pytest.raises(DomainError, match="around '0.75' and '0.5' overlap"):
            impossibility_lower_bound(*args)

    def test_every_ratio_overflows_to_minus_infinity(self):
        # The challenger's own ball gets less than the reference row gives
        # it, over a subnormal distance: -inf, witnessed by the challenger.
        space = line_space([0.0, 1e-320])
        out = line_space([0.0, 1.0])
        query = LipschitzMap(space, out, {"x0": "x0", "x1": "x1"})
        mech = MechanismTable(space, out, [[0.2, 0.8], [0.3, 0.7]])
        got = impossibility_lower_bound(mech, query, ["x0", "x1"], 0.25, 0.1)
        want = impossibility_lower_bound_loop(mech, query, ["x0", "x1"], 0.25, 0.1)
        assert got == want
        assert (got.eps_lower, got.witness_index) == (-math.inf, 1)


class TestLipschitzOracle:
    @PROPERTY
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=7),
           st.lists(st.integers(0, 4), min_size=7, max_size=7),
           st.sampled_from([0.5, 1.0, 3.0]))
    def test_pseudometric_domains(self, coords, images, scale):
        domain = line_space(np.array(coords) * scale)
        codomain = line_space([0.0, 0.5, 1.0, 1.0, 2.5])
        table = {x: codomain.labels[images[i]] for i, x in enumerate(domain.labels)}
        outcome = same_outcome(lipschitz_constant, lipschitz_constant_loop,
                               domain, codomain, table)
        if outcome is not None:
            got, want = outcome
            assert bits(got) == bits(want)
            assert bits(LipschitzMap(domain, codomain, table).constant) == bits(want)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_maps(self, seed):
        rng = np.random.default_rng(300 + seed)
        domain = random_space(rng, int(rng.integers(1, 25)))
        codomain = random_space(rng, int(rng.integers(1, 25)), scale=float(rng.uniform(0.1, 5)))
        query = random_map(rng, domain, codomain)
        want = lipschitz_constant_loop(domain, codomain, query.table)
        assert bits(query.constant) == bits(want)
        assert bits(lipschitz_constant(domain, codomain, query.table)) == bits(want)

    @pytest.mark.parametrize("twins", [[], [(350, 399)], [(350, 399), (5, 390)]])
    def test_past_one_row_block(self, twins):
        """400 points take two row blocks.  Each twin pair maps apart: one in
        the second block, then another whose row is in the first and whose
        column is in the second, which comes first in row-major order."""
        coords = np.arange(400.0)
        rng = np.random.default_rng(400)
        images = rng.integers(0, 3, size=400)
        for a, b in twins:
            coords[b], images[b] = coords[a], (images[a] + 1) % 3
        domain, codomain = line_space(coords), line_space([0.0, 1.0, 3.0])
        assert 400 * 400 > _BLOCK_CELLS
        table = {x: codomain.labels[images[i]] for i, x in enumerate(domain.labels)}
        outcome = same_outcome(lipschitz_constant, lipschitz_constant_loop, domain, codomain, table)
        if twins:
            assert outcome is None
            with pytest.raises(NotLipschitzError, match=f"'x{twins[-1][0]}' and 'x{twins[-1][1]}'"):
                lipschitz_constant(domain, codomain, table)
        else:
            assert bits(outcome[0]) == bits(outcome[1]) == bits(3.0)

    def test_distances_within_tolerance_of_zero(self):
        space = FiniteMetricSpace(["a", "b", "c", "d"], NEAR_ZERO_DIST)
        out = line_space([0.0, 1.0, 2.0])
        for images in (["x0", "x0", "x0", "x2"], ["x0", "x0", "x1", "x2"]):
            table = dict(zip(space.labels, images))
            assert bits(LipschitzMap(space, out, table).constant) == \
                bits(lipschitz_constant_loop(space, out, table))
        # Only the pair given below zero, stored at 0.0: twins, whose images
        # must coincide.
        pair = FiniteMetricSpace(["a", "b"], NEAR_ZERO_DIST[:2, :2])
        apart = {"a": "x0", "b": "x1"}
        assert same_outcome(lipschitz_constant, lipschitz_constant_loop, pair, out, apart) is None
        with pytest.raises(NotLipschitzError, match="distance 0 but their images are 1 apart"):
            LipschitzMap(pair, out, apart)
        together = {"a": "x0", "b": "x0"}
        assert bits(LipschitzMap(pair, out, together).constant) == bits(0.0)
        assert bits(lipschitz_constant_loop(pair, out, together)) == bits(0.0)

    def test_missing_label(self):
        domain = line_space([0.0, 1.0])
        same_outcome(lipschitz_constant, lipschitz_constant_loop,
                     domain, domain, {"x0": "x0"})


class TestTabulateOracle:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 5.0, 80.0, 800.0, 5000.0]))
    def test_random_mechanisms(self, seed, beta):
        rng = np.random.default_rng(seed)
        domain = random_space(rng, int(rng.integers(1, 10)))
        codomain = random_space(rng, int(rng.integers(1, 10)))
        weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=len(codomain))
        weights[rng.integers(len(codomain))] = 1.0
        params = ExpMechParams(base=DiscreteMeasure(codomain, weights), beta=beta,
                               query=random_map(rng, domain, codomain))
        outcome = same_outcome(tabulate, tabulate_loop, params)
        if outcome is not None:
            got, want = outcome
            assert got.probs.tobytes() == want.probs.tobytes()
        for x in domain.labels:
            outcome = same_outcome(distribution, distribution_loop, params, x)
            if outcome is not None:
                got, want = outcome
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 127, 128, 129, 300, 1000])
    def test_row_sums_at_every_length(self, m):
        """Summing all rows at once adds each row in the same order as
        summing it alone, on both sides of numpy's unrolling (8) and
        pairwise block (128) lengths."""
        rng = np.random.default_rng(m)
        coords = rng.random(m)
        space = FiniteMetricSpace([f"p{i}" for i in range(m)],
                                  np.abs(coords[:, None] - coords[None, :]))
        params = ExpMechParams(base=random_measure(rng, space, low=0.0), beta=3.0,
                               query=identity_map(space))
        assert tabulate(params).probs.tobytes() == tabulate_loop(params).probs.tobytes()

    def test_unsupported_point_at_the_image_weighs_zero(self):
        # The only supported point is far from the image of x1, and an
        # unsupported point sits on it: its exponent is -inf, not an
        # overflow to inf that would turn its weight into nan.
        space = line_space([0.0, 1.0, 2.0])
        params = ExpMechParams(base=DiscreteMeasure(space, [1.0, 0.0, 0.0]), beta=800.0,
                               query=identity_map(space))
        got, want = same_outcome(tabulate, tabulate_loop, params)
        assert got.probs.tobytes() == want.probs.tobytes()
        got, want = same_outcome(distribution, distribution_loop, params, "x1")
        assert got.tobytes() == want.tobytes()
        assert tabulate(params).row("x1").tolist() == [1.0, 0.0, 0.0]


class TestDisjointScanOracle:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.25, 0.5, 1.0, 1.5]),
           st.booleans())
    def test_packing_is_the_identity_proposal(self, seed, scale, twins):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        if twins:
            # Repeated coordinates give zero-distance twins.
            space = line_space(rng.choice([0.0, 0.25, 0.5, 1.0], size=n))
        else:
            space = random_space(rng, n)
        r = scale * max(space.diameter(), 0.1)
        query = identity_map(space)
        assert max_packing(space, r) == propose_centers(query, r)
        assert propose_centers(query, r) == propose_centers_loop(query, r)

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.25, 0.5, 1.0, 1.5]))
    def test_random_maps(self, seed, scale):
        """Non-identity maps repeat images and skip codomain points."""
        rng = np.random.default_rng(seed)
        domain = random_space(rng, int(rng.integers(1, 12)))
        codomain = random_space(rng, int(rng.integers(1, 12)))
        query = random_map(rng, domain, codomain)
        r = scale * max(codomain.diameter(), 0.1)
        assert propose_centers(query, r) == propose_centers_loop(query, r)

    def test_radius_validation(self):
        query = identity_map(line_space([0.0, 1.0]))
        for r in (0.0, -1.0, math.nan):
            same_outcome(propose_centers, propose_centers_loop, query, r)


# Sizes on both sides of the byte and 64-bit word edges of the scan's
# bit rows.
BIT_EDGE_SIZES = st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130])


def bit_edge_space(rng, n: int, kind: str) -> FiniteMetricSpace:
    """An n-point space of diameter at most 1.  ``random`` is
    ``random_space`` up to 9 points and a shortest-path closure beyond,
    where the cloud flavor's 0.03 spacing is out of reach; ``twins`` puts
    points on a coarse grid of a line, so coordinates repeat; ``pseudo``
    is a planar cloud in which a third of the points repeat others."""
    if kind == "random":
        if n <= 9:
            return random_space(rng, n, scale=0.7)
        return FiniteMetricSpace([f"p{i}" for i in range(n)], closure_metric(rng, n, 0.7))
    if kind == "twins":
        k = max(2, n // 2)
        return line_space(rng.integers(k, size=n) / (k - 1))
    pts = rng.uniform(size=(max(1, (2 * n) // 3), 2))
    pts = rng.permutation(np.vstack([pts, pts[rng.integers(len(pts), size=n - len(pts))]]))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return FiniteMetricSpace([f"q{i}" for i in range(n)], dist / max(dist.max(), 1.0))


class TestBitsetScanOracle:
    """The bitset scan against the loops at sizes that cross byte and
    word edges of its bit rows."""

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), BIT_EDGE_SIZES, st.sampled_from(["random", "twins", "pseudo"]))
    def test_covering_measure(self, seed, n, kind):
        space = bit_edge_space(np.random.default_rng(seed), n, kind)
        measure, hier = covering_measure(space)
        want, levels = covering_measure_loop(space)
        assert hier.depth == len(levels)
        assert [lv.centers for lv in hier.levels] == levels
        assert measure.values.tobytes() == want.values.tobytes()

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), BIT_EDGE_SIZES, BIT_EDGE_SIZES,
           st.sampled_from(["random", "twins", "pseudo"]), st.sampled_from([0.05, 0.25, 0.5, 1.0, 1.5]))
    def test_propose_centers_into_a_larger_codomain(self, seed, n, m, kind, scale):
        """The domain has the smaller of the two sizes; its images repeat,
        about n/2 distinct points of the codomain."""
        n, m = min(n, m), max(n, m)
        rng = np.random.default_rng(seed)
        domain = FiniteMetricSpace([f"d{i}" for i in range(n)], closure_metric(rng, n))
        codomain = bit_edge_space(rng, m, kind)
        targets = rng.choice(m, size=max(1, n // 2), replace=False)
        images = targets[rng.integers(len(targets), size=n)]
        query = LipschitzMap(domain, codomain,
                             {x: codomain.labels[int(i)] for x, i in zip(domain.labels, images)})
        r = scale * max(codomain.diameter(), 0.1)
        assert propose_centers(query, r) == propose_centers_loop(query, r)


def twin_level_spaces():
    """(name, space) pairs with zero-distance twins, no positive distance,
    a subnormal least distance, and twins within METRIC_TOL of one another
    whose twins are not twins (0 and 2, 1 and 2, but 0 and 1 are 5e-13
    apart, so the greedy scan's balls are not classes)."""
    yield "planar", random_space(np.random.default_rng(29), 12)
    yield "twins", line_space([0.5, 0.0, 0.5, 0.25, 0.0, 0.75, 0.5])
    yield "pseudo", bit_edge_space(np.random.default_rng(29), 20, "pseudo")
    yield "singleton", line_space([0.0])
    yield "coincident", FiniteMetricSpace(list("abcd"), np.zeros((4, 4)))
    yield "subnormal", line_space([0.0, 1e-310, 0.5, 1e-310, 3e-310, 1.0])
    chain = np.ones((4, 4)) - np.eye(4)
    chain[:3, :3] = [[0.0, 5e-13, 0.0], [5e-13, 0.0, 0.0], [0.0, 0.0, 0.0]]
    yield "tolerance chain", FiniteMetricSpace(list("wxyz"), chain)


class TestTwinClassLevels:
    """Levels that pack below the least positive distance share one scan,
    the first of them, since each closed ball there is its center's row of
    twins at any radius; the shared list matches the loops bit for bit."""

    @pytest.mark.parametrize("k", [0, 1, 2, 8])
    @pytest.mark.parametrize("name, space", list(twin_level_spaces()))
    def test_levels_past_the_default_depth(self, name, space, k, monkeypatch):
        depth = min(default_depth(space) + k, 1073)
        scans, scan = [], covering._disjoint_scan
        monkeypatch.setattr(covering, "_disjoint_scan", lambda *args: scans.append(args) or scan(*args))
        measure, hier = covering_measure(space, depth=depth)
        want, levels = covering_measure_loop(space, depth)
        assert [lv.centers for lv in hier.levels] == levels
        assert measure.values.tobytes() == want.values.tobytes()
        least = space.min_positive_distance()
        reach = sum(least > 0.0 and math.ldexp(1.0, -i - 1) >= least for i in range(1, depth + 1))
        assert len(scans) == reach + (reach < depth)

    @pytest.mark.parametrize("name, space", list(twin_level_spaces()))
    def test_nets_and_packings_below_the_least_distance(self, name, space):
        query = identity_map(space)
        least = space.min_positive_distance()
        radii = [least / 2.0, math.nextafter(least, 0.0), least] if least else [0.5, 1e-300, 5e-324]
        for r in radii:
            assert max_packing(space, r) == propose_centers_loop(query, r)
            assert greedy_net(space, r + r) == propose_centers_loop(query, r)


def cover_spaces():
    """Small spaces of diameter 1 for hand-built hierarchies: a grid, a
    planar cloud and a line with zero-distance twins."""
    cloud = cloud_metric(np.random.default_rng(31), 8)
    yield "grid", grid_space(9)
    yield "cloud", FiniteMetricSpace([f"p{i}" for i in range(8)], cloud / cloud.max())
    yield "twins", line_space([0.5, 0.0, 0.5, 0.25, 0.0, 0.75, 0.5, 1.0])


COVER_SPACES = dict(cover_spaces())


class TestCoverHierarchyOracle:
    """``CoverHierarchy`` checks radius and emptiness on every level, in
    order, and the cover once per run of levels with one center list, at
    its last level; ``cover_hierarchy_loop`` checks every level at its own
    radius.  Runs are nets at radii near their own, some with a center
    dropped, so some fail only at their deepest level and some at their
    first; a few levels get a radius one ulp off or lose their only
    center."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_run_is_certified_by_its_smallest_radius(self, data):
        space = COVER_SPACES[data.draw(st.sampled_from(sorted(COVER_SPACES)))]
        levels = []
        for length in data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
            first = len(levels) + 1
            centers = greedy_net(space, math.ldexp(1.0, -data.draw(st.integers(first - 1, first + length))))
            if data.draw(st.booleans()):
                del centers[data.draw(st.integers(0, len(centers) - 1))]
            for depth in range(first, first + length):
                radius = math.ldexp(1.0, -depth)
                if data.draw(st.integers(0, 19)) == 0:
                    radius = math.nextafter(radius, 1.0)
                levels.append(CoverLevel(radius, tuple(centers)))
        faults = cover_hierarchy_loop(space, levels)
        ends = [d for d in range(1, len(levels) + 1)
                if d == len(levels) or levels[d].centers != levels[d - 1].centers]
        if not faults:
            assert CoverHierarchy(space, levels).levels == tuple(levels)
            return
        # Each fault raises where the hierarchy reaches it: a radius or an
        # empty list at its own level, before that level's cover check, and
        # a missed point at the last level of its run, which must miss one
        # too, and whose missing labels the message names.
        found = {(d, kind): detail for d, kind, detail in faults}
        d, _, kind = min((d, 0, kind) if kind != "cover" else (next(e for e in ends if e >= d), 1, kind)
                         for d, kind, _ in faults)
        if kind == "radius":
            want = f"level {d} radius {found[d, kind]} is not 2^-{d}"
        elif kind == "empty":
            want = f"level {d} has no centers"
        else:
            want = f"level {d} balls do not cover the space (missing {found[d, kind]})"
        with pytest.raises(StructuralError) as err:
            CoverHierarchy(space, levels)
        assert str(err.value) == want


class TestIdentityConstant:
    """The identity on one space has constant 1.0 (0.0 with no positive
    distance) without enumerating pairs; an equal copy of the space as the
    codomain, and any other table, takes the blocked loop."""

    @pytest.mark.parametrize("name, space", list(twin_level_spaces()))
    def test_identity_is_the_loop_on_an_equal_copy(self, name, space):
        copy = FiniteMetricSpace(space.labels, space.dist)
        assert copy == space and copy is not space
        table = {x: x for x in space.labels}
        want = lipschitz_constant_loop(space, space, table)
        assert bits(identity_map(space).constant) == bits(want)
        assert bits(lipschitz_constant(space, copy, table)) == bits(want)
        assert want == (1.0 if space.diameter() > 0.0 else 0.0)

    def test_permutations_take_the_loop(self):
        space = line_space([0.0, 0.0, 0.5, 1.0, 1.0, 0.25])
        raised, constants = 0, set()
        for perm in itertools.permutations(range(len(space))):
            table = {x: space.labels[p] for x, p in zip(space.labels, perm)}
            outcome = same_outcome(lipschitz_constant, lipschitz_constant_loop, space, space, table)
            if outcome is None:
                raised += 1
            else:
                assert bits(outcome[0]) == bits(outcome[1])
                constants.add(outcome[0])
        assert raised and len(constants) > 1


class TestLevelForRadiusOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_subnormal=True)
           | st.sampled_from([5e-324, 1e-310, 2.0**-1022, 2.0**-44, 0.5, 1.0, math.inf]))
    def test_matches_brute_force(self, radius):
        """Positive floats from the smallest subnormal to inf."""
        assert level_for_radius(radius) == level_for_radius_loop(radius)

    def test_radius_validation(self):
        for r in (0.0, -0.0, -1.0, -math.inf, math.nan):
            same_outcome(level_for_radius, level_for_radius_loop, r)


# Report values: the floats a report can hold (infinities, -0.0,
# subnormals), numpy scalars and arrays, tuples, and strings that need
# escapes or look like the writer's own separators.
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [math.inf, -math.inf, -0.0, 1e-310, 5e-324, 0.1, 1e16])
DOC_SCALARS = (
    FLOATS | st.integers() | st.booleans() | st.none()
    | st.text() | st.sampled_from(["a, b", ", ", ",\n  ", "ü", "\u2603 snow", '"\\', "infinity"])
    | FLOATS.map(np.float64) | st.floats(width=32, allow_nan=False).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
DOC_KEYS = st.text(max_size=4) | st.integers(-20, 20) | st.sampled_from(["a, b", "é"])
DOC_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                        elements=FLOATS) | hnp.arrays(np.int64, st.integers(0, 4))
DOCS = st.dictionaries(DOC_KEYS, st.recursive(
    DOC_SCALARS | DOC_ARRAYS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(DOC_KEYS, inner, max_size=5)),
    max_leaves=30,
), max_size=6)


# Documents whose float rows repeat a few values, so the writer formats
# each distinct double of an array once: a pool holding, among others,
# 0.0 and -0.0, both infinities, the least subnormal and 1e16, drawn into
# a matrix (as an array, and as lists of rows with one row emptied or
# mixing 1 with 1.0 or a numpy float with a float) and an exactly
# symmetric one (as an array and as a dict of rows).  Up to 6,400 cells,
# so large ones are judged from every k-th cell.
POOL_FLOATS = FLOATS | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 1e16])


@st.composite
def repeat_docs(draw):
    pool = np.array(draw(st.lists(POOL_FLOATS, min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, cols = draw(st.integers(1, 40)), draw(st.integers(0, 40))
    mat = pool[rng.integers(0, len(pool), (n, cols))]
    square = pool[rng.integers(0, len(pool), (n, n))]
    sym = np.where(np.triu(np.ones((n, n), dtype=bool)), square, square.T)
    lists = mat.tolist()
    i, odd = draw(st.integers(0, n - 1)), draw(st.sampled_from(["empty", "int", "numpy"]))
    if odd == "empty" or not lists[i]:
        lists[i] = []
    else:
        lists[i][-1:] = [1, 1.0] if odd == "int" else [np.float64(lists[i][0]), lists[i][0]]
    return {"array": mat, "lists": lists, "rows": {f"x{k}": row for k, row in enumerate(sym.tolist())},
            "symmetric": sym}


def first_difference(got: str, want: str):
    """None if ``got == want``, else the first offset where they differ
    and the text there: pytest's own diff of two long reports is slow."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[i - 40:i + 40], want[i - 40:i + 40]


def repr_calls(monkeypatch) -> list:
    """The values ``formats._repr`` is called on from now on."""
    calls = []
    monkeypatch.setattr(formats, "_repr", lambda v: calls.append(v) or float.__repr__(v))
    return calls


def queued_bits(doc) -> list:
    """The bit patterns of the float rows ``dump_doc`` formats a block at a
    time, in order."""
    rows = []
    formats._write(doc, 0, [], rows)
    return [np.float64(v).view(np.int64).item() for _, row, _ in rows for v in row]


class TestDumpDocOracle:
    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_same_bytes_as_indent_2(self, doc):
        assert dump_doc(doc) == dump_doc_reference(doc)

    @settings(max_examples=150, deadline=None)
    @given(repeat_docs())
    def test_same_bytes_with_repeated_doubles(self, doc):
        assert first_difference(dump_doc(doc), dump_doc_reference(doc)) is None

    def test_past_one_block(self, monkeypatch):
        """400x400 cells from a 7-value pool: as an array, two blocks, each
        formatting its distinct doubles once; as lists of rows, the same
        bytes from json's encoder, with no block."""
        pool = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, 1e16, 0.1])
        mat = pool[np.random.default_rng(400).integers(0, 7, (400, 400))]
        assert mat.size > _BLOCK_CELLS
        for doc, reprs in (({"m": mat}, 2 * 7), ({"m": mat.tolist()}, 0)):
            calls = repr_calls(monkeypatch)
            assert first_difference(dump_doc(doc), dump_doc_reference(doc)) is None
            assert len(calls) == reprs

    def test_one_repr_per_distinct_double_per_block(self, tmp_path, monkeypatch):
        """A seeded 40-point discrete chain: each report's float rows make
        one block, and each distinct bit pattern in it is formatted at most
        once: none when the block went through ``_flat``, exactly its
        distinct set when it joined, whatever its size."""
        labels = [f"x{i}" for i in np.random.default_rng(40).permutation(40)]
        space = {"labels": labels, "dist": (1.0 - np.eye(40)).tolist()}
        files = {name: str(tmp_path / f"{name}.json") for name in
                 ("space", "map", "measure", "calib", "table", "privacy", "utility")}
        formats.write_doc(files["space"], space)
        formats.write_doc(files["map"], {"domain": space, "codomain": space,
                                         "table": {x: x for x in labels}})
        calls, reports, write = repr_calls(monkeypatch), [], formats.dump_doc

        def spy(doc):
            before = len(calls)
            text = write(doc)
            reports.append((queued_bits(doc), calls[before:]))
            return text

        monkeypatch.setattr(formats, "dump_doc", spy)
        run = [["build-measure", "--space", files["space"], "--out", files["measure"]],
               ["calibrate", "--gamma", "0.5", "--delta", "0.1", "--measure", files["measure"],
                "--out", files["calib"]]]
        assert [cli.main(argv) for argv in run] == [0, 0]
        beta = repr(formats.load_doc(files["calib"])["beta"])
        run = [["tabulate", "--map", files["map"], "--measure", files["measure"], "--beta", beta,
                "--out", files["table"]],
               ["audit-privacy", "--mech", files["table"], "--space", files["space"], "--per-pair",
                "--out", files["privacy"]],
               ["audit-utility", "--mech", files["table"], "--map", files["map"], "--gamma", "0.5",
                "--out", files["utility"]]]
        assert [cli.main(argv) for argv in run] == [0, 0, 0]
        assert len(reports) == 5
        joined = 0
        for cells, reprs in reports:
            assert len(cells) < _BLOCK_CELLS
            assert sorted(np.float64(v).view(np.int64).item() for v in reprs) in ([], sorted(set(cells)))
            joined += bool(reprs)
            assert not reprs or len(set(cells)) <= 4
        assert joined == 4  # the measure report's space, the table, the per-pair matrix, the utility row

    def test_report_shapes(self):
        """Envelopes around matrices, rows by label and empty containers."""
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        doc = {"command": "x", "params": {"per_pair": True, "threshold": 1e-310},
               "result": {"rows": dict(zip("ab", probs)), "per_pair_max": np.array(
                   [[0.0, math.inf], [-0.0, 0.25]]), "witness": ("a", "b", "y0"),
                   "levels": [{"centers": [], "radius": 1.0}], "empty": {}}}
        assert dump_doc(doc) == dump_doc_reference(doc)

    @pytest.mark.parametrize("doc", [
        {"x": math.nan},
        {"x": [1.0, math.nan]},
        {"x": {"y": np.float64("nan")}},
        {"x": [[0.0], np.array([math.nan])]},
        {"x": [[0.5] * 30] * 19 + [[0.5] * 29 + [math.nan]]},
        {"x": np.where(np.eye(30, dtype=bool), math.nan, 0.25)},
        {"x": np.where(np.eye(30, dtype=bool), math.nan, np.arange(900.0).reshape(30, 30) / 7)},
    ])
    def test_nan_raises(self, doc):
        with pytest.raises(ValueError):
            dump_doc_reference(doc)
        with pytest.raises(ValueError):
            dump_doc(doc)


def to_doc_space(family: str, n: int) -> FiniteMetricSpace:
    """A seeded space of ``family``: planar points, the 1-d grid, the
    discrete metric, or a line pseudometric whose coordinates repeat."""
    rng = np.random.default_rng(n)
    if family == "planar":
        return FiniteMetricSpace([f"p{i}" for i in range(n)], cloud_metric(rng, n, 0.7))
    if family == "grid":
        return grid_space(n)
    if family == "discrete":
        return discrete_space(n)
    return line_space(np.round(rng.uniform(0.0, 1.0, n), 1))


class TestToDocOracle:
    """The ``*_to_doc`` documents hold the objects' own read-only float64
    arrays, and ``dump_doc`` writes them as the lists their ``tolist``
    gives.  At n=400 a matrix is past one block of ``_BLOCK_CELLS`` cells,
    each judged from every k-th cell."""

    @pytest.mark.parametrize("family, n", [
        *itertools.product(["planar", "grid", "discrete", "pseudo"], [5, 40]),
        ("planar", 400), ("grid", 400)])
    def test_same_bytes_as_the_listed_document(self, family, n, monkeypatch):
        space = to_doc_space(family, n)
        measure, _ = covering_measure(space)
        table = tabulate(ExpMechParams(base=uniform_measure(space), beta=8.0,
                                       query=identity_map(space)))
        for doc in (formats.space_to_doc(space), formats.measure_to_doc(measure),
                    formats.table_to_doc(table)):
            listed = json.loads(json.dumps(doc, default=np.ndarray.tolist))
            text = dump_doc(doc)
            assert first_difference(text, dump_doc_reference(listed)) is None
            assert dump_doc(listed) == text
        if n == 400:  # two blocks, each judged from every k-th cell
            assert n * n > _BLOCK_CELLS and _BLOCK_CELLS // n * n > formats._SAMPLE
            calls = repr_calls(monkeypatch)
            if family == "grid":  # 400 distances: each block joins, one repr per distinct double
                dump_doc(formats.space_to_doc(space))
                k = _BLOCK_CELLS // n
                bits = [np.unique(block.view(np.int64)) for block in (space.dist[:k], space.dist[k:])]
                assert calls == np.concatenate(bits).view(np.float64).tolist()
            else:  # mostly distinct probabilities: every row goes through _flat
                dump_doc(formats.table_to_doc(table))
                assert calls == []

    def test_the_arrays_are_the_objects_own_and_read_only(self):
        space = to_doc_space("planar", 40)
        table = tabulate(ExpMechParams(base=uniform_measure(space), beta=8.0,
                                       query=identity_map(space)))
        dist = formats.space_to_doc(space)["dist"]
        assert dist is space.dist
        assert formats.measure_to_doc(uniform_measure(space))["space"]["dist"] is space.dist
        rows = formats.table_to_doc(table)["rows"]
        assert list(rows) == space.labels
        for i, row in enumerate(rows.values()):
            assert np.shares_memory(row, table.probs)
            assert np.array_equal(row, table.probs[i])
        for array in (dist, rows["p0"]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
