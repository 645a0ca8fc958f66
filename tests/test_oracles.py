"""The numpy fast paths agree bit for bit with their scalar-loop oracles.

Each test compares one library function with the ``*_loop`` oracle in
``conftest`` on the same input: epsilon, witness and per-pair maxima of
the privacy audit, every axiom violation of the validator, the Lipschitz
constant, the row and table bits, the centers of the greedy disjoint-ball
scan, the level of a radius, the bytes of a written report, and the type
and text of every error raised.
Inputs come from ``hypothesis`` and from seeded generators, and are built
to hit the edge cases: many violations of every kind, pseudometrics with
zero-distance twins, probabilities at 1e-305 (below the audit's floor),
rows that are floored entirely, and exact ties.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    audit_privacy_loop,
    closure_metric,
    distribution_loop,
    dump_doc_reference,
    level_for_radius_loop,
    lipschitz_constant_loop,
    propose_centers_loop,
    random_map,
    random_measure,
    random_space,
    tabulate_loop,
    validate_metric_loop,
)
from metricdp import (
    METRIC_TOL,
    DiscreteMeasure,
    ExpMechParams,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    audit_privacy,
    discrete_space,
    distribution,
    identity_map,
    level_for_radius,
    lipschitz_constant,
    max_packing,
    propose_centers,
    tabulate,
    validate_metric,
)
from metricdp.formats import dump_doc

PROPERTY = settings(max_examples=150, deadline=None)

# Entries of hand-made matrices: exact values, values within and just
# beyond METRIC_TOL of each other, and negatives.
MATRIX_ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, -1.0, 1e-13, -1e-13, 2e-12, -2e-12, 1.0 + 1e-13, 1.5]
) | st.floats(-2.0, 4.0, allow_nan=False)

# Row weights before normalizing: zeros, entries that stay below the
# audit's floor after normalizing, and halves that make ratios tie.
WEIGHTS = st.sampled_from([0.0, 1e-305, 0.5, 1.0, 1.0, 2.0, 3.0])


# A validated space may hold distances just below zero (within
# METRIC_TOL) and subnormal ones; ratios over them change sign or
# overflow, and must do so exactly as in the loops.
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
    """A table that skips the row-sum check, so a row may be floored
    entirely (an imported table could carry one)."""
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
    want = validate_metric_loop(mat)
    assert got == want
    for v in got.violations:
        assert all(type(i) is int for i in v.witness)


def line_space(coords) -> FiniteMetricSpace:
    """Points on a line; repeated coordinates make zero-distance twins."""
    coords = np.asarray(coords, dtype=float)
    labels = [f"x{i}" for i in range(len(coords))]
    return FiniteMetricSpace(labels, np.abs(coords[:, None] - coords[None, :]))


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


class TestAuditPrivacyOracle:
    @PROPERTY
    @given(audit_cases())
    def test_pseudometric_tables(self, mech):
        assert_same_audit(mech)

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_floored_rows(self, seed, twins):
        """Rows floored entirely constrain nothing, but still count as
        separated pairs."""
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
        many pairs: np.log differs from math.log by an ulp on a few tenths
        of a percent of such inputs, and the per-pair maxima would show
        it."""
        rng = np.random.default_rng(500 + seed)
        p = rng.uniform(0.01, 0.99, size=300)
        mech = MechanismTable(discrete_space(300), discrete_space(2), np.stack([p, 1 - p], axis=1))
        assert_same_audit(mech)

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
        assert report.epsilon_max == math.log(0.5) - math.log(0.25)
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
                    [math.log(1.0) - math.log(0.5), 0.0, math.log(1.0) - math.log(0.4)],
                    [math.inf, math.inf, 0.0]]
        assert full.per_pair_max.tolist() == expected


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

    def test_distances_within_tolerance_of_zero(self):
        space = FiniteMetricSpace(["a", "b", "c", "d"], NEAR_ZERO_DIST)
        out = line_space([0.0, 1.0, 2.0])
        for images in (["x0", "x0", "x0", "x2"], ["x0", "x1", "x1", "x2"]):
            table = dict(zip(space.labels, images))
            assert bits(LipschitzMap(space, out, table).constant) == \
                bits(lipschitz_constant_loop(space, out, table))
        # Only the pair below zero: its ratios are -2e12 and -0.0, and the
        # constant is still 0.0.
        pair = FiniteMetricSpace(["a", "b"], NEAR_ZERO_DIST[:2, :2])
        for images in (["x0", "x1"], ["x0", "x0"]):
            table = dict(zip(pair.labels, images))
            assert bits(LipschitzMap(pair, out, table).constant) == bits(0.0)
            assert bits(lipschitz_constant_loop(pair, out, table)) == bits(0.0)

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
                                  np.abs(coords[:, None] - coords[None, :]), _trusted=True)
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


class TestDumpDocOracle:
    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_same_bytes_as_indent_2(self, doc):
        assert dump_doc(doc) == dump_doc_reference(doc)

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
    ])
    def test_nan_raises(self, doc):
        with pytest.raises(ValueError):
            dump_doc_reference(doc)
        with pytest.raises(ValueError):
            dump_doc(doc)
