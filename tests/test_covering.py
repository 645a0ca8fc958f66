import math

import numpy as np
import pytest

from conftest import random_space
from metricdp import (
    METRIC_TOL,
    CoverHierarchy,
    CoverLevel,
    FiniteMetricSpace,
    StructuralError,
    covering_measure,
    default_depth,
    discrete_space,
    greedy_net,
    grid_space,
    level_for_radius,
    max_packing,
    positivity_lower_bound,
)


class TestMaxPacking:
    def test_grid5_quarter(self):
        # greedy keeps 0, skips 0.25 and 0.5 (their balls touch kept ones),
        # keeps 0.75, skips 1
        assert max_packing(grid_space(5), 0.25) == ["0", "0.75"]

    def test_balls_are_disjoint(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_space(rng, int(rng.integers(2, 12)))
            r = float(rng.uniform(0.05, 0.8)) * s.diameter()
            centers = max_packing(s, r)
            idx = [s.index_of(c) for c in centers]
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    both = (s.dist[idx[a]] <= r) & (s.dist[idx[b]] <= r)
                    assert not both.any()

    def test_greedy_is_maximal(self):
        # every rejected point's ball meets the union of kept balls
        rng = np.random.default_rng(13)
        for _ in range(30):
            s = random_space(rng, int(rng.integers(2, 12)))
            r = float(rng.uniform(0.05, 0.8)) * s.diameter()
            centers = set(max_packing(s, r))
            idx = [s.index_of(c) for c in centers]
            union = (s.dist[:, idx] <= r).any(axis=1) if idx else np.zeros(len(s), bool)
            for i, lab in enumerate(s.labels):
                if lab in centers:
                    continue
                ball = s.ball_mask(i, r)
                assert (ball & union).any()

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            max_packing(grid_space(3), 0.0)


class TestGreedyNet:
    def test_size_equals_half_radius_packing(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            s = random_space(rng, int(rng.integers(2, 12)))
            r = float(rng.uniform(0.1, 1.2)) * s.diameter()
            assert len(greedy_net(s, r)) == len(max_packing(s, r / 2))

    def test_net_covers(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            s = random_space(rng, int(rng.integers(2, 12)))
            r = float(rng.uniform(0.1, 1.2)) * s.diameter()
            idx = [s.index_of(c) for c in greedy_net(s, r)]
            assert (s.dist[:, idx] <= r + METRIC_TOL).any(axis=1).all()

    def test_whole_space_radius_gives_one_center(self):
        s = grid_space(9)
        assert greedy_net(s, 2.0) == ["0"]

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            greedy_net(grid_space(3), -1.0)


class TestHierarchy:
    def test_level_size(self):
        level = CoverLevel(0.5, ("0", "1"))
        assert level.size == 2

    def test_radii_must_be_powers_of_two(self):
        s = grid_space(3)
        with pytest.raises(StructuralError, match="radius"):
            CoverHierarchy(s, [CoverLevel(0.3, ("0.5",))])

    def test_levels_must_cover(self):
        s = grid_space(5)
        with pytest.raises(StructuralError, match="cover"):
            CoverHierarchy(s, [CoverLevel(0.5, ("0",))])

    def test_empty_levels_rejected(self):
        with pytest.raises(StructuralError):
            CoverHierarchy(grid_space(3), [])

    def test_depth(self):
        _, hier = covering_measure(grid_space(5))
        assert hier.depth == 2
        assert [lv.radius for lv in hier.levels] == [0.5, 0.25]


class TestLevelForRadius:
    def test_anchor_values(self):
        assert level_for_radius(0.5) == 1
        assert level_for_radius(0.25) == 2
        assert level_for_radius(0.3) == 2
        assert level_for_radius(0.1) == 4

    def test_radii_at_least_one_clamp_to_level_one(self):
        assert level_for_radius(1.0) == 1
        assert level_for_radius(7.5) == 1

    def test_exact_powers_of_two(self):
        for k in range(1, 45):
            r = 2.0 ** (-k)
            assert level_for_radius(r) == k
            assert level_for_radius(r * 1.0000001) == k
            assert level_for_radius(r * 0.9999999) == k + 1

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            level_for_radius(0.0)


class TestPositivityBound:
    def test_grid5_levels(self):
        _, hier = covering_measure(grid_space(5))
        # level 1 has 2 centers, level 2 has all 5 points
        b1 = positivity_lower_bound(hier, 0.5)
        assert (b1.value, b1.level, b1.truncated) == (1.0 / 4.0, 1, False)
        b2 = positivity_lower_bound(hier, 0.25)
        assert (b2.value, b2.level, b2.truncated) == (1.0 / 20.0, 2, False)

    def test_truncation_below_the_last_level(self):
        _, hier = covering_measure(grid_space(5))
        b = positivity_lower_bound(hier, 0.1)
        assert b.truncated
        assert b.value == 0.0
        assert b.level == 4

    def test_radii_beyond_the_float_range_of_one_over_r(self):
        _, hier = covering_measure(grid_space(5))
        tiny = positivity_lower_bound(hier, 1e-310)
        assert tiny.truncated and tiny.value == 0.0 and tiny.level == 1030
        assert positivity_lower_bound(hier, math.inf) == positivity_lower_bound(hier, 0.5)

    @pytest.mark.filterwarnings("ignore:space diameter")
    def test_bound_is_certified_by_ball_masses(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            s = random_space(rng, int(rng.integers(2, 10)))
            measure, hier = covering_measure(s)
            for r in rng.uniform(2.0 ** (-hier.depth), 1.0, size=5):
                bound = positivity_lower_bound(hier, float(r))
                assert not bound.truncated
                assert measure.ball_masses(float(r)).min() >= bound.value


class TestDefaultDepth:
    def test_grid_family(self):
        assert default_depth(grid_space(3)) == 1
        assert default_depth(grid_space(5)) == 2
        assert default_depth(grid_space(9)) == 3

    def test_discrete_and_singleton(self):
        assert default_depth(discrete_space(6)) == 1
        assert default_depth(grid_space(1)) == 1


class TestCoveringMeasure:
    def test_grid3_weights(self):
        measure, hier = covering_measure(grid_space(3))
        assert hier.depth == 1
        assert np.allclose(measure.values, [1.0 / 6.0] * 3)
        assert measure.total_mass == pytest.approx(0.5, abs=1e-15)

    def test_grid5_weights(self):
        measure, _ = covering_measure(grid_space(5))
        expected = {"0": 0.3, "0.25": 0.05, "0.5": 0.05, "0.75": 0.3, "1": 0.05}
        assert measure.as_dict() == pytest.approx(expected)

    @pytest.mark.filterwarnings("ignore:space diameter")
    def test_total_mass_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 10)))
            depth = int(rng.integers(1, 7))
            measure, hier = covering_measure(s, depth=depth)
            assert hier.depth == depth
            assert abs(measure.total_mass - (1.0 - 2.0 ** (-depth))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:space diameter")
    def test_default_depth_gives_full_support(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 10)))
            measure, _ = covering_measure(s)
            assert (measure.values > 0).all()

    def test_oversized_diameter_warns(self):
        s = FiniteMetricSpace(grid_space(3).labels, grid_space(3).dist * 3.0)
        with pytest.warns(UserWarning, match="diameter"):
            covering_measure(s, depth=1)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            covering_measure(grid_space(3), depth=0)
        with pytest.raises(ValueError):
            covering_measure(grid_space(3), depth=2.5)

    def test_deterministic(self):
        a, _ = covering_measure(grid_space(9))
        b, _ = covering_measure(grid_space(9))
        assert np.array_equal(a.values, b.values)


def test_level_weights_sum_per_level():
    # each level contributes exactly 2^-i across its centers
    s = grid_space(9)
    measure, hier = covering_measure(s)
    total = 0.0
    for i, level in enumerate(hier.levels, start=1):
        total += 2.0 ** (-i)
    assert measure.total_mass == pytest.approx(total, abs=1e-12)
    per_center = [1.0 / (2.0 ** i * lv.size) for i, lv in enumerate(hier.levels, 1)]
    rebuilt = np.zeros(len(s))
    for w, lv in zip(per_center, hier.levels):
        for c in lv.centers:
            rebuilt[s.index_of(c)] += w
    assert np.allclose(rebuilt, measure.values, atol=1e-15)


def test_math_level_matches_ceil_formula():
    rng = np.random.default_rng(59)
    for _ in range(200):
        r = float(rng.uniform(0.001, 0.999))
        i = level_for_radius(r)
        assert 2.0 ** (-i) <= r < 2.0 ** (-(i - 1)) or i == 1
        assert i == max(1, math.ceil(math.log2(1.0 / r))) or 2.0 ** (-i) <= r
