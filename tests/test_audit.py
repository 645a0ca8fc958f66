import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    check_em_inequalities,
    hamming_cube,
    line_space,
    path_space,
    propose_centers_loop,
    random_map,
    random_measure,
    random_space,
    randomized_response,
    subset_epsilon,
    truncated_geometric,
)
from metricdp import (
    DiscreteMeasure,
    DomainError,
    ExpMechParams,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    NotLipschitzError,
    StructuralError,
    audit_privacy,
    audit_utility,
    discrete_space,
    grid_space,
    identity_map,
    impossibility_lower_bound,
    privacy_bound,
    propose_centers,
    tabulate,
    uniform_measure,
)
from metricdp import audit


KNOWN_ANSWER = settings(max_examples=40, deadline=None)


class TestKnownAnswers:
    """Closed forms from outside the library: the exact epsilon of
    randomized response and of the truncated geometric mechanism, and
    the binomial tail as randomized response's utility."""

    @KNOWN_ANSWER
    @given(st.sampled_from([3, 6, 8]), st.floats(0.01, 0.49))
    def test_randomized_response_epsilon(self, k, p):
        report = audit_privacy(randomized_response(k, p))
        assert report.epsilon_max == pytest.approx(math.log((1.0 - p) / p), rel=1e-12)

    @KNOWN_ANSWER
    @given(st.integers(1, 40), st.floats(0.05, 0.95))
    def test_truncated_geometric_epsilon(self, n, alpha):
        report = audit_privacy(truncated_geometric(n, alpha))
        assert report.epsilon_max == pytest.approx(math.log(1.0 / alpha), rel=1e-12)

    @KNOWN_ANSWER
    @given(st.sampled_from([2, 3, 5, 8]), st.floats(0.05, 0.95))
    def test_counting_query_epsilon(self, k, alpha):
        """Counting the ones of a bit string is 1-Lipschitz from the Hamming
        cube onto the path, so the truncated geometric mechanism on the
        count has the same exact epsilon, ln(1/alpha), on the cube."""
        cube, path = hamming_cube(k), path_space(k)
        weights = np.array([x.count("1") for x in cube.labels])
        count = LipschitzMap(cube, path, {x: str(w) for x, w in zip(cube.labels, weights)})
        assert count.constant == 1.0
        mech = MechanismTable(cube, path, truncated_geometric(k, alpha).probs[weights])
        assert audit_privacy(mech).epsilon_max == pytest.approx(math.log(1.0 / alpha), rel=1e-12)

    @KNOWN_ANSWER
    @given(st.sampled_from([3, 6, 8]), st.floats(0.01, 0.49), st.integers(0, 8))
    def test_randomized_response_utility_is_the_binomial_tail(self, k, p, r):
        tail = sum(math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(min(r, k) + 1))
        report = audit_utility(randomized_response(k, p), identity_map(hamming_cube(k)), r)
        assert report.per_input_mass == pytest.approx(np.full(2**k, tail), rel=1e-12)


def x3_mech(beta=1.0):
    s = grid_space(3)
    params = ExpMechParams(base=uniform_measure(s), beta=beta, query=identity_map(s))
    return tabulate(params), params


class TestAuditPrivacy:
    def test_beta_zero_is_perfectly_private(self):
        mech, _ = x3_mech(beta=0.0)
        rep = audit_privacy(mech)
        assert rep.epsilon_max == 0.0

    def test_x3_anchor(self):
        mech, _ = x3_mech(beta=1.0)
        rep = audit_privacy(mech)
        # ln(0.50648.. / 0.27406..) / 0.5, attained at the endpoint row
        assert rep.epsilon_max == pytest.approx(1.2282141975518175, abs=1e-12)
        assert rep.witness == ("0", "0.5", "0")

    def test_deterministic_mechanism_is_infinitely_leaky(self):
        s = grid_space(3)
        rows = np.eye(3)
        rep = audit_privacy(MechanismTable(s, s, rows))
        assert rep.epsilon_max == math.inf
        assert rep.witness is not None

    def test_zero_distance_pair_with_differing_rows(self):
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        out = grid_space(2)
        mech = MechanismTable(pseudo, out, [[0.6, 0.4], [0.5, 0.5]])
        rep = audit_privacy(mech)
        assert rep.epsilon_max == math.inf
        assert rep.witness[:2] == ("a", "b")

    def test_zero_distance_pair_with_equal_rows_is_ignored(self):
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        out = grid_space(2)
        mech = MechanismTable(pseudo, out, [[0.6, 0.4], [0.6, 0.4]])
        rep = audit_privacy(mech)
        assert rep.epsilon_max == 0.0
        assert rep.witness is None

    def test_single_input_has_no_constraint(self):
        mech = MechanismTable(grid_space(1), grid_space(3), [[0.2, 0.3, 0.5]])
        rep = audit_privacy(mech)
        assert rep.epsilon_max == 0.0
        assert rep.witness is None

    def test_per_pair_matrix(self):
        mech, _ = x3_mech(beta=1.3)
        rep = audit_privacy(mech, include_per_pair=True)
        m = rep.per_pair_max
        assert m.shape == (3, 3)
        assert np.all(np.diag(m) == 0.0)
        assert m.max() == pytest.approx(rep.epsilon_max)

    def test_per_pair_omitted_by_default(self):
        mech, _ = x3_mech()
        assert audit_privacy(mech).per_pair_max is None

    def test_witness_attains_the_maximum(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            dom = random_space(rng, int(rng.integers(2, 8)))
            cod = random_space(rng, int(rng.integers(2, 8)))
            params = ExpMechParams(base=random_measure(rng, cod),
                                   beta=float(rng.uniform(0, 8)),
                                   query=random_map(rng, dom, cod))
            mech = tabulate(params)
            rep = audit_privacy(mech)
            x, z, y = rep.witness
            i, j = dom.index_of(x), dom.index_of(z)
            k = cod.index_of(y)
            ratio = (math.log(mech.probs[i, k]) - math.log(mech.probs[j, k]))
            assert ratio / dom.dist[i, j] == pytest.approx(rep.epsilon_max)

    def test_peak_memory_is_a_few_tables(self):
        # The audit holds the logs, their transpose, the pair matrix and one
        # block of log differences, never an n x n x m slab or a list of
        # n * m Python floats.
        n = m = 300
        rng = np.random.default_rng(11)
        probs = rng.uniform(0.0, 1.0, size=(n, m))
        probs[rng.random((n, m)) < 0.1] = 0.0
        mech = MechanismTable(discrete_space(n), discrete_space(m), probs / probs.sum(axis=1, keepdims=True))
        for include in (False, True):
            tracemalloc.start()
            try:
                audit_privacy(mech, include_per_pair=include)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (5 * n * m + audit._BLOCK_CELLS) * 8, include

    def test_np_log_stays_within_the_screen_bound(self):
        # The one assumption of the screened audit, checked wherever the tests run:
        # over 1.2 million seeded positive doubles (random bit patterns
        # across the normal range, values within 1e-3 of 1 and the smallest
        # normals) np.log is within _SCREEN_ERR relative of math.log.
        rng = np.random.default_rng(19)
        bits = np.concatenate([
            rng.integers(0x0010000000000000, 0x7FF0000000000000, size=1_000_000, dtype=np.uint64),
            rng.integers(0x0010000000000000, 0x0020000000000000, size=100_000, dtype=np.uint64),
        ])
        x = np.concatenate([bits.view(float), 1.0 + rng.uniform(-1e-3, 1e-3, size=100_000)])
        exact = np.array(list(map(math.log, x.tolist())))
        assert (np.abs(np.log(x) - exact) <= audit._SCREEN_ERR * np.abs(exact)).all()

    def test_relabeling_invariance(self):
        mech, _ = x3_mech(beta=2.1)
        eps = audit_privacy(mech).epsilon_max
        perm = [2, 0, 1]
        s = grid_space(3)
        labels = [s.labels[i] for i in perm]
        dist = s.dist[np.ix_(perm, perm)]
        space2 = FiniteMetricSpace(labels, dist)
        rows2 = mech.probs[np.ix_(perm, perm)]
        eps2 = audit_privacy(MechanismTable(space2, space2, rows2)).epsilon_max
        assert eps2 == pytest.approx(eps, abs=1e-12)

    def test_never_exceeds_the_closed_form_bound(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            dom = random_space(rng, int(rng.integers(2, 9)))
            cod = random_space(rng, int(rng.integers(2, 9)))
            query = random_map(rng, dom, cod)
            beta = float(rng.uniform(0, 10))
            params = ExpMechParams(base=random_measure(rng, cod), beta=beta, query=query)
            rep = audit_privacy(tabulate(params))
            assert rep.epsilon_max <= privacy_bound(beta, query.constant) + 1e-9


UNDERFLOW = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: tabulate stores probabilities, exp(-beta * d) "
    "underflows to 0.0, and the audit reads the exact zero as epsilon = inf")


class TestClosedFormBound:
    """The exact audit never exceeds the closed form 2 * C * beta."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 30.0))
    def test_exact_audit_within_the_bound(self, seed, twins, beta):
        """On metrics and on line pseudometrics with exact twins, whose
        random maps mostly fail to send every twin to one image."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        domain = line_space(rng.integers(0, n, size=n)) if twins else random_space(rng, n)
        codomain = random_space(rng, int(rng.integers(1, 9)))
        try:
            query = random_map(rng, domain, codomain)
        except NotLipschitzError:
            assume(False)
        mech = tabulate(ExpMechParams(base=random_measure(rng, codomain), beta=beta, query=query))
        assume((mech.probs > 0.0).all())
        bound = privacy_bound(beta, query.constant)
        # Entries rounded to doubles put a few units of 2**-52 into each log
        # ratio, which the relative slack no longer covers as beta nears 0.
        rounding = 16 * 2.0**-52 / (domain.min_positive_distance() or 1.0)
        assert audit_privacy(mech).epsilon_max <= bound * (1 + 1e-9) + rounding

    def test_twins_images_must_coincide(self):
        """Twins a and b mapped 1e-13 apart have no finite constant: a
        slack between their images would give C = 1 and a bound of 2 for
        a table whose exact epsilon is inf."""
        domain = FiniteMetricSpace(list("abc"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        codomain = FiniteMetricSpace(list("pqr"), [[0, 1e-13, 1], [1e-13, 0, 1], [1, 1, 0]])
        with pytest.raises(NotLipschitzError, match="images are 1e-13 apart"):
            LipschitzMap(domain, codomain, {"a": "p", "b": "q", "c": "r"})

    def test_pair_just_below_zero(self):
        """The validator accepts a distance of -5e-13, and the space stores
        it as 0.0: the pair are twins, so separated images have no finite
        constant (not a constant of 0 beside an audited 2e12)."""
        domain = FiniteMetricSpace(["a", "b"], [[0.0, -5e-13], [-5e-13, 0.0]])
        with pytest.raises(NotLipschitzError, match="distance 0 but their images are 1 apart"):
            LipschitzMap(domain, grid_space(2), {"a": "0", "b": "1"})

    def test_asymmetric_pair_reads_its_larger_entry(self):
        """The validator accepts dist(a, b) = 1e-12 beside dist(b, a) = 0.
        The space stores 1e-12 both ways, so the audit divides by the
        distance the constant was taken over: 1e12 within the bound 2e12,
        not the inf of reading (b, a) as twins."""
        domain = FiniteMetricSpace(["a", "b"], [[0.0, 1e-12], [0.0, 0.0]])
        codomain = grid_space(2)
        query = LipschitzMap(domain, codomain, {"a": "0", "b": "1"})
        assert query.constant == 1.0 / 1e-12
        mech = tabulate(ExpMechParams(base=uniform_measure(codomain), beta=1.0, query=query))
        epsilon = audit_privacy(mech).epsilon_max
        assert epsilon == pytest.approx(1e12, rel=1e-9)
        assert epsilon <= privacy_bound(1.0, query.constant)

    @pytest.mark.parametrize("beta", [400.0, pytest.param(800.0, marks=UNDERFLOW),
                                  pytest.param(5000.0, marks=UNDERFLOW)])
    def test_large_beta_audits_to_beta(self, beta):
        """On grid_space(5) with a uniform base and the identity query, the
        exact epsilon is beta itself, well inside the closed form 2 * C * beta."""
        space = grid_space(5)
        query = identity_map(space)
        mech = tabulate(ExpMechParams(base=uniform_measure(space), beta=beta, query=query))
        epsilon = audit_privacy(mech).epsilon_max
        assert math.isfinite(epsilon)
        assert epsilon <= privacy_bound(beta, query.constant) * (1 + 1e-9)
        assert epsilon == pytest.approx(beta, rel=1e-12)


class TestAuditUtility:
    def test_x3_anchor(self):
        mech, _ = x3_mech(beta=1.0)
        rep = audit_utility(mech, identity_map(grid_space(3)), 0.5)
        assert rep.min_mass == pytest.approx(0.8136762767741523, abs=1e-12)
        assert rep.worst_input == "0"
        assert rep.per_input_mass[0] == rep.min_mass

    def test_full_diameter_ball_gives_one(self):
        mech, _ = x3_mech(beta=4.2)
        rep = audit_utility(mech, identity_map(grid_space(3)), 1.0)
        assert rep.min_mass == pytest.approx(1.0)

    def test_truth_teller_at_zero_radius(self):
        s = grid_space(3)
        mech = MechanismTable(s, s, np.eye(3))
        rep = audit_utility(mech, identity_map(s), 0.0)
        assert rep.min_mass == 1.0

    def test_min_is_min_of_per_input(self):
        mech, _ = x3_mech(beta=0.7)
        rep = audit_utility(mech, identity_map(grid_space(3)), 0.5)
        assert rep.min_mass == rep.per_input_mass.min()

    def test_negative_gamma_rejected(self):
        mech, _ = x3_mech()
        with pytest.raises(ValueError):
            audit_utility(mech, identity_map(grid_space(3)), -0.1)

    def test_nan_gamma_rejected(self):
        mech, _ = x3_mech()
        with pytest.raises(ValueError, match="gamma must be nonnegative, got nan"):
            audit_utility(mech, identity_map(grid_space(3)), math.nan)

    def test_space_mismatch_rejected(self):
        mech, _ = x3_mech()
        with pytest.raises(StructuralError):
            audit_utility(mech, identity_map(grid_space(4)), 0.5)


class TestImpossibility:
    def test_discrete8_anchor(self):
        # each row holds 0.6 at its own point, 0.4/7 elsewhere
        s = discrete_space(8)
        rows = np.full((8, 8), 0.4 / 7)
        np.fill_diagonal(rows, 0.6)
        mech = MechanismTable(s, s, rows)
        rep = impossibility_lower_bound(mech, identity_map(s), list(s.labels), 0.5)
        assert rep.eps_lower == pytest.approx(math.log(10.5), abs=1e-12)
        assert rep.eps_lower >= math.log(8 / 2)
        assert rep.ball_mass_self == pytest.approx((0.6,) * 8)

    def test_two_ball_symmetric_anchor(self):
        s = discrete_space(2)
        mech = MechanismTable(s, s, [[0.75, 0.25], [0.25, 0.75]])
        rep = impossibility_lower_bound(mech, identity_map(s), ["0", "1"], 0.5)
        assert rep.eps_lower == pytest.approx(math.log(3.0), abs=1e-12)
        assert rep.witness_index == 1

    def test_reference_starved_ball_forces_infinity(self):
        s = discrete_space(3)
        rows = [[1.0, 0.0, 0.0], [0.1, 0.9, 0.0], [0.1, 0.0, 0.9]]
        mech = MechanismTable(s, s, rows)
        rep = impossibility_lower_bound(mech, identity_map(s), ["0", "1", "2"], 0.5)
        assert rep.eps_lower == math.inf

    @pytest.mark.parametrize("query_side", ["codomain", "domain"])
    def test_query_on_other_spaces_rejected(self, query_side):
        # t is grid3 with every distance scaled by 10: the balls of radius 2
        # around "0" and "1" are disjoint in t but not in the table's grid3.
        s = grid_space(3)
        t = FiniteMetricSpace(s.labels, 10 * s.dist)
        mech = MechanismTable(s, s, np.full((3, 3), 1 / 3))
        if query_side == "codomain":
            query = identity_map(t)
            message = "query codomain does not match the table's output space"
        else:
            query = LipschitzMap(t, s, {x: x for x in s.labels})
            message = "query domain does not match the table's input space"
        with pytest.raises(StructuralError, match=message):
            impossibility_lower_bound(mech, query, ["0", "1"], 2)

    def test_overlapping_balls_rejected(self):
        s = grid_space(5)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=9.0,
                                      query=identity_map(s)))
        with pytest.raises(DomainError, match="overlap"):
            impossibility_lower_bound(mech, identity_map(s), ["0", "0.25"], 0.25)

    def test_first_overlapping_pair_is_named(self):
        # Balls of radius 0.125 on grid9: "0" meets "0.125" (pair 0, 3) and
        # "0.5" meets "0.625" (pair 1, 2); every other pair is disjoint.
        # Row-major order reaches (0, 3) first.
        s = grid_space(9)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=9.0,
                                      query=identity_map(s)))
        centers = ["0", "0.5", "0.625", "0.125"]
        with pytest.raises(DomainError) as caught:
            impossibility_lower_bound(mech, identity_map(s), centers, 0.125)
        assert str(caught.value) == (
            "target balls around '0' and '0.125' overlap; "
            "the disjointness hypothesis fails"
        )

    def test_utility_hypothesis_violation_names_the_center(self):
        s = discrete_space(4)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=0.1,
                                      query=identity_map(s)))
        with pytest.raises(DomainError, match="utility hypothesis"):
            impossibility_lower_bound(mech, identity_map(s), list(s.labels), 0.5)

    def test_threshold_parameter_tightens_the_hypothesis(self):
        s = discrete_space(8)
        rows = np.full((8, 8), 0.4 / 7)
        np.fill_diagonal(rows, 0.6)
        mech = MechanismTable(s, s, rows)
        with pytest.raises(DomainError, match="utility hypothesis"):
            impossibility_lower_bound(mech, identity_map(s), list(s.labels), 0.5,
                                      utility_threshold=0.7)

    def test_duplicate_centers_rejected(self):
        s = discrete_space(4)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=3.0,
                                      query=identity_map(s)))
        with pytest.raises(DomainError, match="distinct"):
            impossibility_lower_bound(mech, identity_map(s), ["0", "0"], 0.5)

    def test_needs_two_centers(self):
        s = discrete_space(4)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=3.0,
                                      query=identity_map(s)))
        with pytest.raises(ValueError):
            impossibility_lower_bound(mech, identity_map(s), ["0"], 0.5)

    def test_parameter_validation(self):
        s = discrete_space(4)
        mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=3.0,
                                      query=identity_map(s)))
        with pytest.raises(ValueError):
            impossibility_lower_bound(mech, identity_map(s), ["0", "1"], 0.0)
        with pytest.raises(ValueError):
            impossibility_lower_bound(mech, identity_map(s), ["0", "1"], 0.5,
                                      utility_threshold=1.0)

    def test_lower_bound_never_exceeds_the_audited_level(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            s = discrete_space(n)
            beta = math.log(n - 1) + float(rng.uniform(0.1, 4.0))
            mech = tabulate(ExpMechParams(base=uniform_measure(s), beta=beta,
                                          query=identity_map(s)))
            rep = impossibility_lower_bound(mech, identity_map(s), list(s.labels), 0.5)
            assert audit_privacy(mech).epsilon_max >= rep.eps_lower


class TestProposeCenters:
    def test_grid9(self):
        assert propose_centers(identity_map(grid_space(9)), 0.25) == ["0", "0.625"]

    def test_proposed_balls_are_disjoint(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 12)))
            query = identity_map(s)
            r = float(rng.uniform(0.05, 0.5)) * max(s.diameter(), 0.1)
            centers = propose_centers(query, r)
            assert centers  # label-order greedy always keeps the first point
            masks = [s.ball_mask(s.index_of(c), r) for c in centers]
            for a in range(len(masks)):
                for b in range(a + 1, len(masks)):
                    assert not (masks[a] & masks[b]).any()

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            propose_centers(identity_map(grid_space(3)), 0.0)

    def test_small_domain_into_a_large_codomain_stays_small(self):
        """Bit rows are built for the distinct images only: three inputs
        into 3000 outputs stay far below the 9 MB of a full 3000 x 3000
        membership mask."""
        codomain = grid_space(3000)
        images = [codomain.labels[0], codomain.labels[2999], codomain.labels[0]]
        query = LipschitzMap(line_space([0.0, 1.0, 2.0]), codomain, dict(zip(["x0", "x1", "x2"], images)))
        tracemalloc.start()
        try:
            centers = propose_centers(query, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert centers == propose_centers_loop(query, 0.1) == ["x0", "x1"]
        assert peak < 1_000_000


class TestEMInequalities:
    def test_same_input_is_equality(self):
        _, params = x3_mech(beta=2.0)
        rep = check_em_inequalities(params, "0", "0")
        assert rep.ok
        assert rep.first_violation is None

    def test_x3_all_pairs_pass(self):
        _, params = x3_mech(beta=1.0)
        for x in ("0", "0.5", "1"):
            for z in ("0", "0.5", "1"):
                assert check_em_inequalities(params, x, z).ok

    def test_beta_zero_passes(self):
        _, params = x3_mech(beta=0.0)
        assert check_em_inequalities(params, "0", "1").ok

    def test_report_carries_the_pair(self):
        _, params = x3_mech(beta=1.0)
        rep = check_em_inequalities(params, "0", "1")
        assert (rep.x, rep.z) == ("0", "1")
        assert rep.numerator_ok and rep.normalizer_ok


class TestSingletonReduction:
    def test_subset_oracle_agrees_with_singleton_audit(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            dom = random_space(rng, int(rng.integers(2, 6)))
            cod = random_space(rng, int(rng.integers(2, 7)))
            params = ExpMechParams(base=random_measure(rng, cod),
                                   beta=float(rng.uniform(0, 6)),
                                   query=random_map(rng, dom, cod))
            mech = tabulate(params)
            assert subset_epsilon(mech) == pytest.approx(
                audit_privacy(mech).epsilon_max, abs=1e-9)
