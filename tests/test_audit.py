import decimal
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_near_fsum,
    audit_privacy_loop,
    check_em_inequalities,
    cloud_metric,
    cycle_space,
    hamming_cube,
    hamming_space,
    line_space,
    log_scalar,
    mass_inside_loop,
    path_space,
    propose_centers_loop,
    random_map,
    random_measure,
    random_space,
    randomized_response,
    subset_epsilon,
    sweep_broadcast,
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
    distribution,
    grid_space,
    identity_map,
    impossibility_lower_bound,
    privacy_bound,
    propose_centers,
    tabulate,
    uniform_measure,
)
from metricdp import audit, mechanisms
from metricdp._ieee import _LOG_CHUNK


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


# Each point's distance profile: how many points lie at each distance from it.
SYMMETRIC = {
    "cycle300": (lambda: cycle_space(300), {k / 300: 1 if k in (0, 150) else 2 for k in range(151)}),
    "hamming8": (lambda: hamming_space(8), {j / 8: math.comb(8, j) for j in range(9)}),
}


def ball_mass_closed_form(profile, beta, gamma) -> float:
    """In-ball mass of the exponential mechanism with a uniform base, by
    50-digit decimal over the profile of the stored distances."""
    with decimal.localcontext(decimal.Context(prec=50)) as ctx:
        terms = {d: count * ctx.exp(-decimal.Decimal(beta) * decimal.Decimal(d))
                 for d, count in profile.items()}
        return float(sum(t for d, t in terms.items() if d <= gamma) / sum(terms.values()))


class TestKnownAnswersFromSymmetry:
    """On a space that looks the same from every point, with the uniform
    base and the identity query, every row has the same normalizer.  So
    ln P[x->y] - ln P[z->y] = beta * (d(z, y) - d(x, y)) <= beta * d(x, z),
    with equality at y = z: the exact epsilon is beta, and every input's
    gamma-ball mass is one closed form in the distance profile."""

    @pytest.mark.parametrize("beta", [5.0, 60.0, 700.0])
    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_epsilon_is_beta_and_masses_are_the_closed_form(self, name, beta):
        build, profile = SYMMETRIC[name]
        space = build()
        query = identity_map(space)
        mech = tabulate(ExpMechParams(base=uniform_measure(space), beta=beta, query=query))
        assert abs(audit_privacy(mech).epsilon_max - beta) <= 1e-12 * beta
        masses = audit_utility(mech, query, 0.25).per_input_mass
        assert np.abs(masses - ball_mass_closed_form(profile, beta, 0.25)).max() <= 1e-15


def x3_mech(beta=1.0):
    s = grid_space(3)
    params = ExpMechParams(base=uniform_measure(s), beta=beta, query=identity_map(s))
    return tabulate(params), params


@st.composite
def twin_tables(draw):
    """A table over a line pseudometric with twins: each row is uniform, a copy
    of an earlier twin's row, or seeded weights with some entries exactly 0.0."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    coords = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["uniform", "copy", "weights"]))
        twins = [j for j in range(i) if coords[j] == coords[i]]
        if kind == "uniform":
            rows.append(np.full(m, 1.0 / m))
        elif kind == "copy" and twins:
            rows.append(rows[draw(st.sampled_from(twins))])
        else:
            w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                                       min_size=m, max_size=m)))
            w[draw(st.integers(0, m - 1))] += w.sum() == 0.0
            rows.append(w / w.sum())
    return MechanismTable(line_space(coords), line_space(np.arange(m, dtype=float)), np.array(rows))


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

    def test_zero_distance_witness_is_where_x_has_more_mass(self):
        # P[a->0] = 0.4 < P[b->0] = 0.5 witnesses nothing; P[a->1] > P[b->1] does.
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        mech = MechanismTable(pseudo, grid_space(2), [[0.4, 0.6], [0.5, 0.5]])
        rep = audit_privacy(mech)
        assert rep.epsilon_max == math.inf
        assert rep.witness == ("a", "b", "1")

    def test_zero_distance_pair_below_its_twin_everywhere(self):
        # Rows sum to one within a tolerance, so a's row may lie at or below
        # b's at every output: the pair (a, b) constrains nothing, (b, a) is inf.
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        mech = MechanismTable(pseudo, grid_space(2), [[0.5, 0.5 - 1e-12], [0.5, 0.5]])
        rep = audit_privacy(mech, include_per_pair=True)
        assert rep.epsilon_max == math.inf
        assert rep.witness == ("b", "a", "1")
        assert rep.per_pair_max.tolist() == [[0.0, 0.0], [math.inf, 0.0]]

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(twin_tables())
    def test_every_witness_is_checkable(self, mech):
        # A finite epsilon is the witness's own ratio; an infinite one is a
        # twin pair where x has more mass at y, or mass against an exact zero.
        rep = audit_privacy(mech)
        assert rep.epsilon_max == audit_privacy_loop(mech).epsilon_max
        if rep.witness is None:
            assert rep.epsilon_max == 0.0
            return
        x, z, y = rep.witness
        space = mech.input_space
        i, j, k = space.index_of(x), space.index_of(z), mech.output_space.index_of(y)
        p, q, rho = mech.probs[i, k], mech.probs[j, k], space.dist[i, j]
        if rep.epsilon_max == math.inf:
            assert (rho == 0.0 and p > q) or p > 0.0 == q
        else:
            assert rep.epsilon_max == (log_scalar(p) - log_scalar(q)) / rho

    def test_peak_memory_is_a_few_tables(self):
        # The audit holds the logs' transpose, the pair matrix and one block
        # of log differences, never an n x n x m slab or a list of n * m
        # Python floats.
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

    def test_a_planar_table_holds_one_log_layout(self):
        """On the seeded 500-point planar identity map (uniform base, beta 8),
        the audit holds the logs' transpose, the pair matrix and one block
        buffer of n * n cells, having freed the logs before the sweep: it
        peaks at three n x n float arrays plus 1 MiB in both modes.  Its
        report has the bits of the row-major expression, written out here
        with the broadcast oracle's sweep over the row-major logs, the
        witness's row difference and the per-pair matrix's ``np.where``."""
        n = 500
        space = FiniteMetricSpace([f"p{i}" for i in range(n)], cloud_metric(np.random.default_rng(1000), n))
        mech = tabulate(ExpMechParams(base=uniform_measure(space), beta=8.0, query=identity_map(space)))
        logs = audit._logs(mech.probs)
        pair_max = sweep_broadcast(mech, logs, stop=False)
        i, j = np.unravel_index(np.argmax(pair_max), pair_max.shape)
        k = np.argmax(np.fmax((logs[i] - logs[j]) / space.dist[i, j], -math.inf))
        for include in (False, True):
            tracemalloc.start()
            try:
                report = audit_privacy(mech, include_per_pair=include)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * n * n * 8 + 2**20, include
            assert np.float64(report.epsilon_max).tobytes() == np.float64(max(0.0, pair_max[i, j])).tobytes()
            assert report.witness == (space.labels[i], space.labels[j], space.labels[k])
        assert report.per_pair_max.tobytes() == np.where(pair_max > -math.inf, pair_max, 0.0).tobytes()

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


@st.composite
def sweep_tables(draw):
    """A table for the sweep: n and m drawn apart; line inputs with twins,
    spaced by a unit from the least subnormal to near the float maximum; each
    row a copy of an earlier one, twin or not, or weights with exact zeros,
    some in the same column as another row's."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    unit = draw(st.sampled_from([5e-324, 1e-300, 1e-3, 1.0, 4e307]))
    coords = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float) * unit
    rows = []
    for i in range(n):
        if i and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, i - 1))])
        else:
            w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 10.0)),
                                       min_size=m, max_size=m)))
            w[draw(st.integers(0, m - 1))] += w.sum() == 0.0
            rows.append(w / w.sum())
    return MechanismTable(line_space(coords), line_space(np.arange(m, dtype=float)), np.array(rows))


def assert_sweeps_agree(mech):
    """``audit._sweep`` gives ``sweep_broadcast``'s per-pair bits under both
    stop modes, and ``audit_privacy`` the same report on either sweep."""
    logs = audit._logs(mech.probs)
    for stop in (False, True):
        got = audit._sweep(mech, np.ascontiguousarray(logs.T), stop)
        assert got.tobytes() == sweep_broadcast(mech, logs, stop).tobytes()

    def oracle(mech, lt, stop):  # ``audit._sweep``'s call, on the oracle's log layout
        return sweep_broadcast(mech, np.ascontiguousarray(lt.T), stop)

    for include in (False, True):
        got = audit_privacy(mech, include_per_pair=include)
        with mock.patch.object(audit, "_sweep", oracle):
            want = audit_privacy(mech, include_per_pair=include)
        assert np.float64(got.epsilon_max).tobytes() == np.float64(want.epsilon_max).tobytes()
        assert got.witness == want.witness
        if include:
            assert got.per_pair_max.tobytes() == want.per_pair_max.tobytes()


class TestSweep:
    """The sweep subtracts into one reused (rows, m, n) buffer; the oracle
    takes a fresh broadcast per block.  Every cell is the same subtraction of
    the same operands, so the bits, the sign of a zero among them, agree."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sweep_tables(), st.integers(1, 100))
    def test_equals_the_broadcast_oracle(self, mech, cells):
        # A patched block size gives one-row blocks (cells < n * m) and blocks
        # of several rows with a shorter last one, in both kernels.
        with mock.patch.object(audit, "_BLOCK_CELLS", cells):
            assert_sweeps_agree(mech)

    def test_one_row_blocks_at_the_real_block_size(self):
        # n * m > _BLOCK_CELLS: each block is one row of m * n cells, m != n.
        n, m = 400, 330
        rng = np.random.default_rng(17)
        w = rng.uniform(size=(n, m))
        w[rng.random((n, m)) < 0.3] = 0.0
        w[1::3] = w[0::3][:len(w[1::3])]  # equal rows, twins (0, 1) or not (3, 4)
        coords = np.repeat(np.arange(n // 2), 2) * 1e-300
        mech = MechanismTable(line_space(coords), discrete_space(m), w / w.sum(axis=1, keepdims=True))
        assert n * m > audit._BLOCK_CELLS
        assert_sweeps_agree(mech)


# Doubles for the log kernel: any positive finite double, subnormals and the
# smallest one included, doubles in [1/2, 2] and doubles within 1e-3 of 1.
LOG_INPUTS = st.one_of(st.just(5e-324),
                       st.floats(5e-324, 1.7976931348623157e308, allow_subnormal=True),
                       st.floats(0.5, 2.0), st.floats(1.0 - 1e-3, 1.0 + 1e-3))
ONE_BITS = int(np.array(1.0).view(np.uint64))
# sha256 of the kernel's little-endian output on seeded_log_inputs().
LOG_DIGEST = "0cf2c019057d7cf8cf66dcb0a846c2b0e8f6cf5c7a06b5545337fd2e46426fb1"
# sha256 of seeded_audit_digest's reports.
AUDIT_DIGEST = "51c6a203348ccbb2e05ab4717dfca72402fa84be4e2b898717da6638b0573cc1"


def seeded_log_inputs() -> np.ndarray:
    """0.0, 5e-324 and 1.0, then seeded bit patterns: positive finite doubles,
    subnormals, doubles in [1/2, 2), where the polynomial sets the last bits,
    and doubles within 1e-3 of 1 and within 2**-40 of it."""
    rng = np.random.default_rng(21)
    bits = np.concatenate([
        rng.integers(1, 0x7FF0000000000000, size=100_000, dtype=np.uint64),
        rng.integers(1, 0x0010000000000000, size=10_000, dtype=np.uint64),
        rng.integers(0x3FE0000000000000, 0x4000000000000000, size=20_000, dtype=np.uint64),
        rng.integers(0x3FEFF7CED916872B, 0x3FF004189374BC6A, size=20_000, dtype=np.uint64),
        (ONE_BITS + rng.integers(-2**12, 2**12, size=4_000)).astype(np.uint64),
    ])
    return np.concatenate([[0.0, 5e-324, 1.0], bits.view(float)])


def ulps_off(got: float, x: float) -> float:
    """Distance of ``got`` from ln x, in ulps of ln x, by 40-digit decimal."""
    exact = decimal.Context(prec=40).ln(decimal.Decimal(x))
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact))))


class TestLogKernel:
    """``audit._logs`` is fdlibm's e_log.c as a fixed sequence of numpy ufunc
    calls.  It must give the scalar port's bits wherever the tests run, stay
    within 0.9 ulp, and give 0.0 only at 1.0, as ln does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(LOG_INPUTS, min_size=1, max_size=40))
    def test_equals_the_scalar_port_bit_for_bit(self, xs):
        want = np.array([log_scalar(x) for x in xs])
        assert audit._logs(xs).tobytes() == want.tobytes()

    def test_equals_the_scalar_port_over_many_chunks(self):
        x = seeded_log_inputs()
        want = np.array([log_scalar(v) for v in x.tolist()])
        assert x.size >= 10 * _LOG_CHUNK
        assert audit._logs(x).tobytes() == want.tobytes()
        assert audit._logs(x[1:].reshape(2, -1)).tobytes() == want[1:].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LOG_INPUTS)
    def test_within_0_9_ulp_of_decimal(self, x):
        assert ulps_off(float(audit._logs([x])[0]), x) <= 0.9

    def test_within_0_9_ulp_of_decimal_on_seeded_doubles(self):
        x = seeded_log_inputs()[1::25]
        assert max(map(ulps_off, audit._logs(x).tolist(), x.tolist())) <= 0.9

    def test_zero_maps_to_minus_infinity(self):
        assert audit._logs(np.zeros((2, 3))).tolist() == [[-math.inf] * 3] * 2

    def test_zero_exactly_at_one_and_nowhere_else(self):
        near = (ONE_BITS + np.arange(-5000, 5001)).astype(np.uint64).view(float)
        x = np.concatenate([near, seeded_log_inputs()])
        logs = audit._logs(x)
        assert ((logs == 0.0) == (x == 1.0)).all()
        assert not np.signbit(logs[x == 1.0]).any()

    def test_holds_its_output_and_one_block(self):
        # The kernel's temporaries are one chunk's, _LOG_CHUNK cells.
        probs = np.random.default_rng(9).uniform(size=(300, 300))
        tracemalloc.start()
        try:
            audit._logs(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= probs.nbytes + audit._BLOCK_CELLS * 8

    def test_golden_digest(self):
        # The kernel's bits on seeded_log_inputs, pinned: a host whose
        # arithmetic differs anywhere changes this digest.
        logs = audit._logs(seeded_log_inputs()).astype("<f8")
        assert hashlib.sha256(logs.tobytes()).hexdigest() == LOG_DIGEST


def seeded_audit_tables():
    """Tables built without exp: integer weights over their integer row sum,
    some exactly 0, on line inputs with integer coordinates and twins (some
    sharing a row) and on grid inputs."""
    rng = np.random.default_rng(33)
    for k in range(16):
        n, m = int(rng.integers(2, 41)), int(rng.integers(1, 41))
        w = rng.integers(1, 50, size=(n, m))
        w[rng.random((n, m)) < (0.0, 0.02, 0.2, 0.5)[k % 4]] = 0
        w[np.arange(n), rng.integers(0, m, size=n)] += 1
        coords = rng.integers(0, n, size=n)
        if k % 2:
            first = [coords.tolist().index(c) for c in coords.tolist()]
            w = np.where((rng.random(n) < 0.5)[:, None], w[first], w)
        domain = line_space(coords) if k % 2 else grid_space(n)
        yield MechanismTable(domain, grid_space(m), w / w.sum(axis=1, keepdims=True))


def seeded_audit_digest() -> str:
    """sha256 of each seeded table's epsilon_max, per_pair_max and witness."""
    h = hashlib.sha256()
    for mech in seeded_audit_tables():
        rep = audit_privacy(mech, include_per_pair=True)
        h.update(np.append(rep.per_pair_max, rep.epsilon_max).astype("<f8").tobytes())
        h.update(repr(rep.witness).encode())
    return h.hexdigest()


class TestAuditDigest:
    """Pinned: the audit's epsilon, witness and per-pair maxima have the same
    bits on every IEEE host.  CI runs this class on macOS too."""

    def test_golden_digest(self):
        assert seeded_audit_digest() == AUDIT_DIGEST

    def test_the_tables_cover_every_case(self):
        reports = [audit_privacy(mech, include_per_pair=True) for mech in seeded_audit_tables()]
        values = np.concatenate([rep.per_pair_max.ravel() for rep in reports])
        assert np.isinf(values).any() and (np.isfinite(values) & (values > 0)).any()
        assert any(rep.epsilon_max < math.inf for rep in reports)


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

    def test_a_large_identity_map_makes_no_full_size_copy(self):
        """The balls of a 1000-point planar identity map are compared in the
        codomain's matrix in place, and masked and summed a block of rows at
        a time: the audit peaks near one block's mask and float copy
        (1.13 MB), not a full n x n float copy (8 MB more).  The masses are
        those of the full masked copy summed along its rows, to the bit."""
        space = FiniteMetricSpace([f"p{i}" for i in range(1000)], cloud_metric(np.random.default_rng(97), 1000))
        query = identity_map(space)
        mech = tabulate(ExpMechParams(base=uniform_measure(space), beta=8.0, query=query))
        tracemalloc.start()
        try:
            masses = audit_utility(mech, query, 0.1).per_input_mass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masses.tobytes() == np.where(space.dist <= 0.1, mech.probs, 0.0).sum(axis=1).tobytes()
        assert peak <= 1_500_000

    def test_masses_are_the_one_row_sum(self):
        """Each input's mass is its masked row summed in 1-D, to the bit, and
        within the summation bound of math.fsum; balls hold up to 60 outputs."""
        rng = np.random.default_rng(89)
        for _ in range(30):
            s = random_space(rng, int(rng.integers(8, 61)))
            query = random_map(rng, s, s)
            mech = tabulate(ExpMechParams(base=random_measure(rng, s), beta=float(rng.uniform(0, 30)),
                                          query=query))
            gamma = float(rng.uniform(0.0, s.diameter()))
            inside = s.dist[query.images] <= gamma
            masses = audit_utility(mech, query, gamma).per_input_mass
            assert masses.tobytes() == mass_inside_loop(mech.probs, inside).tobytes()
            assert_near_fsum(masses, mech.probs, inside)


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

    def test_ball_masses_are_the_one_row_sum(self):
        # Three disjoint balls of 17 outputs each on a 41-point grid.
        s, rng = grid_space(41), np.random.default_rng(97)
        centers = ["0", "0.5", "1"]
        balls = s.dist[[s.index_of(c) for c in centers]] <= 0.2
        for _ in range(10):
            mech = tabulate(ExpMechParams(base=random_measure(rng, s), beta=float(rng.uniform(8, 20)),
                                          query=identity_map(s)))
            rep = impossibility_lower_bound(mech, identity_map(s), centers, 0.2)
            rows = mech.probs[[s.index_of(c) for c in centers]]
            refs = rows[[0, 0, 0]]
            assert np.array(rep.ball_mass_self).tobytes() == mass_inside_loop(rows, balls).tobytes()
            assert np.array(rep.ball_mass_ref).tobytes() == mass_inside_loop(refs, balls).tobytes()
            assert_near_fsum(rep.ball_mass_self, rows, balls)
            assert_near_fsum(rep.ball_mass_ref, refs, balls)

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
        """Bit rows are built for the images only, one per input, repeats
        included: three inputs into 3000 outputs stay far below the 9 MB of
        a full 3000 x 3000 membership mask."""
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

    def test_an_identity_map_scans_its_matrix_in_place(self):
        """The scan of a 1000-point identity map holds its membership mask
        and packed rows (1.13 MB), not a gathered float copy of the
        matrix (8 MB more)."""
        space = FiniteMetricSpace([f"p{i}" for i in range(1000)], cloud_metric(np.random.default_rng(97), 1000))
        query = identity_map(space)
        tracemalloc.start()
        try:
            centers = propose_centers(query, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert centers == propose_centers_loop(query, 0.05)
        assert peak <= 1_500_000

    def test_identity_images_scan_in_place_and_others_gather(self, monkeypatch):
        """Images that are every codomain index in label order, on one space
        object or on two with the same labels, pass the codomain's matrix
        itself to the scan; a permutation passes a gathered copy.  All three
        match the loop."""
        rng = np.random.default_rng(101)
        space = random_space(rng, 40)
        twin = FiniteMetricSpace(space.labels, space.dist.copy())
        shuffled = rng.permutation(space.labels).tolist()
        assert shuffled != space.labels
        scans, scan = [], audit._disjoint_scan
        monkeypatch.setattr(audit, "_disjoint_scan", lambda *args: scans.append(args[0]) or scan(*args))
        for query, gathers in ((identity_map(space), False),
                               (LipschitzMap(twin, space, {x: x for x in twin.labels}), False),
                               (LipschitzMap(space, space, dict(zip(space.labels, shuffled))), True)):
            for r in (0.05, 0.2, 0.5):
                scans.clear()
                assert propose_centers(query, r) == propose_centers_loop(query, r)
                assert len(scans) == 1 and (scans[0] is not space.dist) == gathers


class TestImageRows:
    """``tabulate`` and ``audit_utility`` read a query's codomain rows by the
    rule the scan of ``propose_centers`` follows (its test is
    ``TestProposeCenters``): the matrix itself for images that are every
    codomain index in label order, on one space object or on two with the
    same labels, and a gathered copy for a permutation.  Each result
    matches its oracle either way."""

    @pytest.mark.parametrize("consumer", ["tabulate", "audit_utility"])
    def test_identity_images_are_read_in_place_and_others_gathered(self, consumer, monkeypatch):
        rng = np.random.default_rng(103)
        space = random_space(rng, 40)
        twin = FiniteMetricSpace(space.labels, space.dist.copy())
        shuffled = rng.permutation(space.labels).tolist()
        assert shuffled != space.labels
        seen = []
        if consumer == "tabulate":  # the kernel's rows are what the reader returns
            read = mechanisms._image_rows
            monkeypatch.setattr(mechanisms, "_image_rows", lambda *args: seen.append(read(*args)) or seen[-1])
        else:
            read = audit._mass_inside
            monkeypatch.setattr(audit, "_mass_inside", lambda *args: seen.append(args[0]) or read(*args))
        for query, gathers in ((identity_map(space), False),
                               (LipschitzMap(twin, space, {x: x for x in twin.labels}), False),
                               (LipschitzMap(space, space, dict(zip(space.labels, shuffled))), True)):
            params = ExpMechParams(base=random_measure(rng, space), beta=8.0, query=query)
            mech = tabulate(params)
            rows = np.array([distribution(params, x) for x in query.domain.labels])
            seen.clear()
            if consumer == "tabulate":
                assert tabulate(params).probs.tobytes() == rows.tobytes()
            else:
                inside = space.dist[query.images] <= 0.2
                got = audit_utility(mech, query, 0.2).per_input_mass
                assert got.tobytes() == mass_inside_loop(mech.probs, inside).tobytes()
            assert len(seen) == 1 and (seen[0] is not space.dist) == gathers


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
