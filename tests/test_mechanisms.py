import math
import tracemalloc
import warnings
from bisect import bisect_left
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import cloud_metric, random_map, random_measure, random_space, sampler_table
from metricdp import mechanisms
from metricdp import (
    DegenerateMeasureError,
    DiscreteMeasure,
    ExpMechParams,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    NotUniformlyPositiveError,
    StructuralError,
    audit_privacy,
    calibrate_beta,
    discrete_space,
    distribution,
    grid_space,
    identity_map,
    min_database_size,
    privacy_bound,
    sample_many,
    tabulate,
    tradeoff_upper_bound,
    uniform_measure,
)

# Exact rows of the 3-point grid mechanism with uniform base and beta=1,
# frozen from an independent evaluation of exp(-|x-y|) normalized per row.
X3_ROW_0 = [0.506480391055654, 0.3071958857184984, 0.1863237232258476]
X3_ROW_HALF = [0.274068619061197, 0.45186276187760605, 0.274068619061197]


SAMPLER = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 26: sample_many maps 53 random bits through the float "
    "cumsum, so an entry far below 2^-53 is never drawn and the realized epsilon is inf")


def x3_params(beta=1.0):
    s = grid_space(3)
    return ExpMechParams(base=uniform_measure(s), beta=beta, query=identity_map(s))


class TestParams:
    def test_beta_must_be_finite_nonnegative(self):
        with pytest.raises(ValueError):
            x3_params(beta=-0.5)
        with pytest.raises(ValueError):
            x3_params(beta=math.nan)

    def test_zero_mass_base_rejected(self):
        s = grid_space(3)
        base = DiscreteMeasure(s, [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateMeasureError):
            ExpMechParams(base=base, beta=1.0, query=identity_map(s))

    def test_base_must_live_on_codomain(self):
        with pytest.raises(StructuralError):
            ExpMechParams(base=uniform_measure(grid_space(4)), beta=1.0,
                          query=identity_map(grid_space(3)))

    def test_space_properties(self):
        p = x3_params()
        assert p.input_space == grid_space(3)
        assert p.output_space == grid_space(3)


class TestDistribution:
    def test_x3_frozen_rows(self):
        p = x3_params()
        assert distribution(p, "0") == pytest.approx(X3_ROW_0, abs=1e-15)
        assert distribution(p, "0.5") == pytest.approx(X3_ROW_HALF, abs=1e-15)
        assert distribution(p, "1") == pytest.approx(X3_ROW_0[::-1], abs=1e-15)

    def test_beta_zero_reproduces_the_base(self):
        s = grid_space(4)
        base = DiscreteMeasure(s, [1.0, 2.0, 3.0, 4.0])
        p = ExpMechParams(base=base, beta=0.0, query=identity_map(s))
        for x in s.labels:
            assert distribution(p, x) == pytest.approx(base.values / 10.0)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            dom = random_space(rng, int(rng.integers(2, 9)))
            cod = random_space(rng, int(rng.integers(2, 9)))
            p = ExpMechParams(base=random_measure(rng, cod),
                              beta=float(rng.uniform(0, 20)),
                              query=random_map(rng, dom, cod))
            for x in dom.labels:
                row = distribution(p, x)
                assert (row >= 0).all()
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_huge_beta_does_not_underflow(self):
        p = x3_params(beta=800.0)
        row = distribution(p, "0")
        assert np.isfinite(row).all()
        assert row[0] == pytest.approx(1.0)

    def test_zero_weight_points_get_zero_probability(self):
        s = grid_space(3)
        base = DiscreteMeasure(s, [0.0, 1.0, 1.0])
        p = ExpMechParams(base=base, beta=700.0, query=identity_map(s))
        row = distribution(p, "0")
        # the shift tracks the base support, so the nearest supported
        # point wins even when the true image has weight zero
        assert row[0] == 0.0
        assert row[1] == pytest.approx(1.0)

    def test_unsupported_image_cannot_overflow(self):
        # At beta=2000 the unsupported image's weight would be exp(1000),
        # which overflows; it must stay an exact 0 without a warning.
        s = grid_space(3)
        p = ExpMechParams(base=DiscreteMeasure(s, [0.0, 1.0, 1.0]), beta=2000.0,
                          query=identity_map(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distribution(p, "0").tolist() == [0.0, 1.0, 0.0]
            assert tabulate(p).row("0").tolist() == [0.0, 1.0, 0.0]

    def test_larger_distance_never_gets_more_mass(self):
        p = x3_params(beta=2.3)
        row = distribution(p, "0")
        assert row[0] > row[1] > row[2]


class TestMechanismTable:
    def test_row_sum_violation_names_the_input(self):
        s = grid_space(2)
        with pytest.raises(StructuralError, match="'1'"):
            MechanismTable(s, s, [[0.5, 0.5], [0.6, 0.6]])

    def test_negative_entry(self):
        s = grid_space(2)
        with pytest.raises(StructuralError):
            MechanismTable(s, s, [[1.1, -0.1], [0.5, 0.5]])

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_entry(self, entry):
        s = grid_space(2)
        with pytest.raises(StructuralError, match="finite"):
            MechanismTable(s, s, [[entry, 0.0], [0.5, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            MechanismTable(grid_space(2), grid_space(3), [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_frozen(self):
        t = tabulate(x3_params())
        with pytest.raises(ValueError):
            t.probs[0, 0] = 0.9

    def test_row_sum_tolerance(self):
        s = grid_space(2)
        t = MechanismTable(s, s, [[0.5, 0.5 + 1e-10], [0.5, 0.5]])
        assert t.row("0")[1] == 0.5 + 1e-10


class TestTabulate:
    def test_matches_distribution(self):
        p = x3_params(beta=3.7)
        t = tabulate(p)
        for x in p.input_space.labels:
            assert t.row(x) == pytest.approx(distribution(p, x), abs=0)

    def test_partial_support_base_tabulates(self):
        # rows normalize over the base's support even when the true image
        # carries no base weight
        s = grid_space(3)
        base = DiscreteMeasure(s, [0.0, 0.0, 1.0])
        p = ExpMechParams(base=base, beta=5.0, query=identity_map(s))
        t = tabulate(p)
        assert t.row("0")[2] == pytest.approx(1.0)

    def test_a_large_identity_map_holds_two_tables(self):
        """On a seeded 1000-point planar identity map, ``_rows`` shifts,
        exponentiates, weights and normalizes one array in place, and the
        table keeps one validated copy of it: ``tabulate`` peaks at two
        tables plus 1 MiB for the validation's masks.  The bits are those of
        the expression with a temporary per step, written out here, with
        full and with partial support."""
        space = FiniteMetricSpace([f"p{i}" for i in range(1000)], cloud_metric(np.random.default_rng(97), 1000))
        uniform = uniform_measure(space)
        params = ExpMechParams(base=uniform, beta=8.0, query=identity_map(space))
        tracemalloc.start()
        try:
            table = tabulate(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.probs.nbytes + 2**20
        partial = DiscreteMeasure(space, np.arange(1000) % 3 != 0)
        for base in (uniform, partial):
            support = base.values > 0
            exponents = np.where(support, -8.0 * space.dist, -np.inf)
            weights = base.values * np.exp(exponents - exponents.max(axis=1)[:, None])
            want = weights / weights.sum(axis=1)[:, None]
            got = tabulate(ExpMechParams(base=base, beta=8.0, query=identity_map(space))).probs
            assert got.tobytes() == want.tobytes()


class TestSampling:
    def test_deterministic(self):
        p = x3_params()
        a = sample_many(p, "0.5", seed=7, count=50)
        b = sample_many(p, "0.5", seed=7, count=50)
        assert a == b

    def test_single_draw_is_first_of_many(self):
        p = x3_params()
        first = sample_many(p, "0", seed=42, count=1)
        assert first == sample_many(p, "0", seed=42, count=10)[:1]

    def test_different_seeds_differ(self):
        p = x3_params()
        a = sample_many(p, "0.5", seed=1, count=100)
        b = sample_many(p, "0.5", seed=2, count=100)
        assert a != b

    def test_inverse_cdf_against_manual_oracle(self):
        p = x3_params(beta=1.7)
        probs = distribution(p, "0.5")
        cum = list(np.cumsum(probs))
        u = np.random.default_rng(99).random(200)
        expected = [p.output_space.labels[min(bisect_left(cum, v), 2)] for v in u]
        assert sample_many(p, "0.5", seed=99, count=200) == expected

    def test_count_validation(self):
        p = x3_params()
        with pytest.raises(ValueError):
            sample_many(p, "0", seed=1, count=0)
        with pytest.raises(ValueError):
            sample_many(p, "0", seed=1, count=True)

    @pytest.mark.parametrize("count", [mechanisms.MAX_DRAWS, mechanisms.MAX_DRAWS + 1, 10**12])
    def test_count_cap_is_checked_before_allocating(self, count, monkeypatch):
        """At the cap the draws are asked for (a stub generator hands back
        one); above it ValueError names the cap before anything is built.
        Either way the tracemalloc peak stays under 1 MB."""
        p = x3_params()
        asked = []

        class Stub:
            def random(self, n):
                asked.append(n)
                return np.zeros(1)

        monkeypatch.setattr(mechanisms.np.random, "default_rng", lambda seed: Stub())
        tracemalloc.start()
        try:
            if count > mechanisms.MAX_DRAWS:
                with pytest.raises(ValueError, match=f"at most {mechanisms.MAX_DRAWS} "):
                    sample_many(p, "0", seed=1, count=count)
            else:
                assert len(sample_many(p, "0", seed=1, count=count)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert asked == ([count] if count <= mechanisms.MAX_DRAWS else [])

    def test_point_mass_always_returns_it(self):
        s = grid_space(3)
        base = DiscreteMeasure(s, [0.0, 1.0, 0.0])
        p = ExpMechParams(base=base, beta=2.0, query=identity_map(s))
        assert set(sample_many(p, "1", seed=5, count=30)) == {"0.5"}

    def test_draws_at_either_end_stay_on_the_support(self, monkeypatch):
        """A draw of 0.0 would take the leading zero-probability label, and
        one just below 1.0 runs past this row's sum, 0.9999999999999998, to
        the trailing one; both must land on a label of positive mass."""
        s = grid_space(5)
        p = ExpMechParams(base=DiscreteMeasure(s, [0, 1, 1, 1, 0]), beta=3.0, query=identity_map(s))
        assert distribution(p, "0.5").sum() < np.nextafter(1.0, 0.0)

        class Stub:
            def random(self, count):
                return np.array([0.0, np.nextafter(1.0, 0.0)])[:count]

        monkeypatch.setattr(mechanisms.np.random, "default_rng", lambda seed: Stub())
        assert sample_many(p, "0.5", seed=0, count=2) == ["0.25", "0.75"]

    @pytest.mark.parametrize("case", ["x3", "grid20", "random"])
    def test_sampler_table_counts_each_cell(self, case, monkeypatch):
        """``sampler_table`` gives the draws of ``sample_many`` exactly: a
        stub generator returns u = k·2^-53 at both ends of every label's
        run of k, so at k = 0 and 2^53 - 1 too, and each draw is the label
        whose run holds k.  The map from k to a label is monotone, so the
        two ends decide each run, and a label of zero count is drawn by no
        k."""
        rng = np.random.default_rng(3)
        if case == "x3":
            p = x3_params(beta=1.7)
        elif case == "grid20":
            s = grid_space(20)
            p = ExpMechParams(base=uniform_measure(s), beta=40.0, query=identity_map(s))
        else:
            s = random_space(rng, 12)
            base = DiscreteMeasure(s, random_measure(rng, s).values * (rng.random(12) < 0.7))
            p = ExpMechParams(base=base, beta=25.0, query=random_map(rng, random_space(rng, 5), s))
        counts = sampler_table(p)
        assert (counts >= 0).all() and (counts.sum(axis=1) == 2**53).all()
        draws = []

        class Stub:
            def random(self, count):
                return np.array(draws, dtype=float) * 2.0**-53

        monkeypatch.setattr(mechanisms.np.random, "default_rng", lambda seed: Stub())
        labels = p.output_space.labels
        for x, row in zip(p.input_space.labels, counts.tolist()):
            ends = np.cumsum([0] + row).tolist()
            cells = [(ends[t], ends[t + 1] - 1, t) for t in range(len(row)) if row[t]]
            draws[:] = [k for first, last, _ in cells for k in (first, last)]
            assert draws[0] == 0 and draws[-1] == 2**53 - 1
            want = [labels[t] for _, _, t in cells for _ in (0, 1)]
            assert sample_many(p, x, seed=0, count=len(draws)) == want

    @SAMPLER
    @pytest.mark.parametrize("beta", [40.0, 200.0])
    def test_the_draws_audit_finite(self, beta):
        """The table that ``sample_many`` realizes, each label's count of
        the 2^53 draws over 2^53, audits to a finite epsilon wherever the
        stored table does.  On grid_space(20) with a uniform base it does
        not: the table audits to 41.93 at beta=40 and 200.0005 at beta=200,
        but 4 and 256 of its 400 positive entries are never drawn."""
        s = grid_space(20)
        p = ExpMechParams(base=uniform_measure(s), beta=beta, query=identity_map(s))
        assert math.isfinite(audit_privacy(tabulate(p)).epsilon_max)
        realized = MechanismTable(s, s, sampler_table(p) / 2.0**53)
        assert math.isfinite(audit_privacy(realized).epsilon_max)


class TestCalibration:
    def test_two_ln_two(self):
        assert calibrate_beta(1.0, 0.5, 1.0) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_x3_anchor(self):
        # gamma 0.5, delta 0.1, modulus 1/3: beta = 4 ln 30
        beta = calibrate_beta(0.5, 0.1, 1.0 / 3.0)
        assert beta == pytest.approx(13.604789526648622, abs=1e-12)

    def test_generous_target_clamps_to_zero(self):
        # delta * modulus above 1 would invert preferences; clamp instead
        assert calibrate_beta(1.0, 0.6, 2.0) == 0.0

    @pytest.mark.parametrize("gamma,delta,modulus", [
        (0.5, 1e-10, 1e-300),  # delta * modulus is subnormal: 1 / it overflows
        (0.5, 1e-10, 1e-320),  # delta * modulus underflows to 0
        (2.0, 5e-324, 0.5),
        (0.25, 1e-200, 1e-200),
    ])
    def test_past_the_float_range(self, gamma, delta, modulus):
        # (2 / gamma) * ln(1 / (delta * modulus)) in 40-digit decimals.
        with localcontext() as ctx:
            ctx.prec = 40
            closed_form = float(2 / Decimal(gamma) * -(Decimal(delta) * Decimal(modulus)).ln())
        assert calibrate_beta(gamma, delta, modulus) == pytest.approx(closed_form, rel=1e-12)

    @pytest.mark.parametrize("modulus", [math.inf, 1e300, 10.0])
    def test_large_modulus_needs_no_concentration(self, modulus):
        assert calibrate_beta(0.5, 0.1, modulus) == 0.0

    def test_finite_results_keep_their_bits(self):
        rng = np.random.default_rng(71)
        for _ in range(2000):
            gamma = float(10.0 ** rng.uniform(-3, 3))
            delta = float(10.0 ** rng.uniform(-150, 0))
            modulus = float(10.0 ** rng.uniform(-150, 1))
            if delta >= 1.0:
                continue
            old = max(0.0, (2.0 / gamma) * math.log(1.0 / (delta * modulus)))
            assert np.float64(calibrate_beta(gamma, delta, modulus)).tobytes() == \
                np.float64(old).tobytes()

    def test_range_validation(self):
        with pytest.raises(ValueError):
            calibrate_beta(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            calibrate_beta(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_beta(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("gamma,delta,modulus", [
        (1e-320, 0.1, 0.5),  # 2 / gamma overflows
        (1e-306, 1e-10, 1e-300),  # finite factors whose product overflows
        (5e-324, 0.1, 1.0 - 2.0 ** -53),  # 2 / gamma is inf and the log is 0.0: nan
        (5e-308, 0.1, 0.5),  # beta is 1.2e308, and 2 * beta overflows
    ])
    def test_beta_past_the_double_range_names_gamma(self, gamma, delta, modulus):
        with pytest.raises(ValueError, match=f"gamma {gamma!r} is too small"):
            calibrate_beta(gamma, delta, modulus)

    def test_zero_modulus_is_not_uniformly_positive(self):
        with pytest.raises(NotUniformlyPositiveError):
            calibrate_beta(1.0, 0.5, 0.0)

    def test_calibrated_mechanism_meets_the_target(self):
        from metricdp import audit_utility
        rng = np.random.default_rng(67)
        for _ in range(15):
            s = random_space(rng, int(rng.integers(2, 9)))
            base = random_measure(rng, s, low=0.2)
            gamma = float(rng.uniform(0.2, 1.0)) * max(s.diameter(), 0.5)
            delta = float(rng.uniform(0.05, 0.5))
            m = base.modulus(gamma / 2) / base.total_mass
            beta = calibrate_beta(gamma, delta, m)
            mech = tabulate(ExpMechParams(base=base, beta=beta, query=identity_map(s)))
            assert audit_utility(mech, identity_map(s), gamma).min_mass >= 1 - delta


class TestPrivacyBound:
    def test_formula(self):
        assert privacy_bound(3.0, 2.0) == 12.0
        assert privacy_bound(0.0, 5.0) == 0.0
        assert privacy_bound(4.0, 0.0) == 0.0

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            privacy_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            privacy_bound(1.0, -1.0)

    def test_zero_against_an_infinite_factor(self):
        # At beta 0 the mechanism ignores its input, whatever the constant;
        # 2 * C * beta would be nan.
        assert privacy_bound(0.0, math.inf) == 0.0
        assert privacy_bound(math.inf, 0.0) == 0.0

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_arguments(self, args):
        with pytest.raises(ValueError, match="must be nonnegative"):
            privacy_bound(*args)


class TestTradeoff:
    def test_x3_uniform_anchor(self):
        # modulus at 0.25 is 1/3, beta = 4 ln 30, epsilon = 8 ln 30
        bound = tradeoff_upper_bound(uniform_measure(grid_space(3)), 0.5, 0.1)
        assert bound.modulus == pytest.approx(1.0 / 3.0)
        assert bound.beta == pytest.approx(13.604789526648622, abs=1e-12)
        assert bound.epsilon == pytest.approx(27.209579053297244, abs=1e-12)

    def test_scale_invariance(self):
        s = grid_space(4)
        a = tradeoff_upper_bound(uniform_measure(s), 0.4, 0.2)
        b = tradeoff_upper_bound(DiscreteMeasure(s, [2.5] * 4), 0.4, 0.2)
        assert a.epsilon == pytest.approx(b.epsilon, abs=1e-12)

    def test_tiny_weight_gives_a_finite_bound(self):
        # modulus 1e-300 at delta 1e-10: delta * modulus is 1e-310, whose
        # reciprocal overflows, but beta = 4 ln(1e310) is finite.
        s = grid_space(2)
        bound = tradeoff_upper_bound(DiscreteMeasure(s, [1.0, 1e-300]), 0.5, 1e-10)
        assert bound.beta == pytest.approx(4.0 * 310 * math.log(10.0), rel=1e-12)
        assert bound.epsilon == 2.0 * bound.beta

    def test_overflowing_beta_is_an_error(self):
        with pytest.raises(ValueError, match="gamma 1e-320 is too small"):
            tradeoff_upper_bound(uniform_measure(grid_space(3)), 1e-320, 0.1)

    def test_overflowing_epsilon_is_an_error(self):
        # beta = 1.36e308 is finite, but epsilon = 2 * beta is not.
        with pytest.raises(ValueError, match="gamma 5e-308 is too small"):
            tradeoff_upper_bound(uniform_measure(grid_space(3)), 5e-308, 0.1)

    def test_gap_in_support_has_no_finite_bound(self):
        s = grid_space(3)
        base = DiscreteMeasure(s, [1.0, 0.0, 1.0])
        with pytest.raises(NotUniformlyPositiveError):
            tradeoff_upper_bound(base, 0.2, 0.1)

    def test_epsilon_is_twice_beta(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            s = random_space(rng, int(rng.integers(2, 9)))
            base = random_measure(rng, s)
            bound = tradeoff_upper_bound(base, float(rng.uniform(0.3, 1.0)), 0.25)
            assert bound.epsilon == pytest.approx(2 * bound.beta, abs=1e-12)


class TestMinDatabaseSize:
    def test_anchor_28(self):
        assert min_database_size(0.1, 1.0, 0.5, 1.0) == 28

    def test_halving_doubles(self):
        assert min_database_size(0.05, 1.0, 0.5, 1.0) == 56

    def test_floor_at_one(self):
        assert min_database_size(100.0, 1.0, 0.5, 1.0) == 1

    def test_eps_target_validation(self):
        with pytest.raises(ValueError):
            min_database_size(0.0, 1.0, 0.5, 1.0)

    def test_overflowing_beta_is_an_error(self):
        with pytest.raises(ValueError, match="gamma 1e-320 is too small"):
            min_database_size(0.1, 1e-320, 0.1, 0.5)

    def test_overflowing_epsilon_is_an_error(self):
        with pytest.raises(ValueError, match="gamma 5e-308 is too small"):
            min_database_size(0.1, 5e-308, 0.1, 0.5)

    def test_rounds_up_the_exact_ratio(self):
        """eps_star / 15 rounds so that 15 records fall just short of the
        budget (the float quotient reads exactly 15.0), and a subnormal
        budget overflows the float quotient: the exact ratio settles both."""
        eps_star = privacy_bound(calibrate_beta(0.1, 0.1, 0.5), 1.0)
        t = eps_star / 15
        assert 15 * Fraction(t) < Fraction(eps_star)
        assert min_database_size(t, 0.1, 0.1, 0.5) == 16
        exact = math.ceil(Fraction(eps_star) / Fraction(5e-324))
        assert min_database_size(5e-324, 0.1, 0.1, 0.5) == exact
        assert min_database_size(math.inf, 0.1, 0.1, 0.5) == 1
