import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import cloud_metric, random_space
from metricdp import (
    METRIC_TOL,
    CoverHierarchy,
    CoverLevel,
    FiniteMetricSpace,
    StructuralError,
    covering,
    covering_measure,
    default_depth,
    discrete_space,
    greedy_net,
    grid_space,
    level_for_radius,
    max_packing,
    positivity_lower_bound,
)
from metricdp.spaces import _BLOCK_CELLS


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

    @pytest.mark.parametrize("call, error, message", [
        ("covering.greedy_net(grid_space(9), 0.25)", "AssertionError",
         "net at radius 0.25 failed to cover ['0.75', '0.875', '1']"),
        ("covering.covering_measure(grid_space(9))", "StructuralError",
         "level 1 balls do not cover the space (missing ['0.625', '0.75', '0.875', '1'])"),
    ], ids=["greedy_net", "covering_measure"])
    def test_cover_check_survives_python_O(self, call, error, message):
        """Both cover checks are explicit raises, so ``python -O``, which
        strips asserts, still refuses a net that does not cover."""
        code = (
            "import sys\n"
            "from metricdp import StructuralError, covering, grid_space\n"
            "scan = covering._disjoint_scan\n"
            "covering._disjoint_scan = lambda *args: scan(*args)[:-1]  # drop a center\n"
            "try:\n"
            f"    {call}\n"
            f"except {error} as e:\n"
            "    print(sys.flags.optimize, e)\n"
        )
        src = str(Path(covering.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == f"1 {message}\n"

    def test_radius_whose_half_underflows(self):
        # The error names the radius given, not its half, which is 0.0.
        with pytest.raises(ValueError, match=r"at least 2\^-1073, got 5e-324$"):
            greedy_net(grid_space(3), 5e-324)
        assert greedy_net(grid_space(3), 2.0**-1073) == ["0", "0.5", "1"]


class TestHierarchy:
    def test_level_size(self):
        level = CoverLevel(0.5, ("0", "1"))
        assert level.size == 2

    def test_radii_must_be_powers_of_two(self):
        s = grid_space(3)
        with pytest.raises(StructuralError, match="radius"):
            CoverHierarchy(s, [CoverLevel(0.3, ("0.5",))])

    @pytest.mark.parametrize("radius", [0.0, -5e-13, 2.0**-41 * (1 + 2.0**-52)],
                             ids=["0", "-5e-13", "one-ulp-above"])
    def test_radius_past_level_40_must_be_exact(self, radius):
        # 2^-41 is below METRIC_TOL, so a slack comparison would take any of these.
        s = FiniteMetricSpace(["a", "b"], [[0, 5e-13], [5e-13, 0]])
        levels = [CoverLevel(math.ldexp(1.0, -i), ("a",)) for i in range(1, 41)]
        with pytest.raises(StructuralError, match="level 41 radius"):
            CoverHierarchy(s, levels + [CoverLevel(radius, ("a",))])

    def test_levels_must_cover(self):
        s = grid_space(5)
        with pytest.raises(StructuralError, match="cover"):
            CoverHierarchy(s, [CoverLevel(0.5, ("0",))])

    @pytest.mark.parametrize("centers, depth, missing", [
        (("0", "0.5", "1"), 3, ["0.25", "0.75"]),
        (("0",), 2, ["0.375", "0.5", "0.625", "0.75", "0.875", "1"]),
    ], ids=["only-at-the-deepest", "from-the-first"])
    def test_a_run_fails_at_its_deepest_level(self, centers, depth, missing):
        """A run of levels with one center list is checked once, at its
        smallest radius, whose failure is named, also where the run's first
        level already misses a point."""
        levels = [CoverLevel(math.ldexp(1.0, -d), centers) for d in range(1, depth + 1)]
        with pytest.raises(StructuralError) as err:
            CoverHierarchy(grid_space(9), levels)
        assert str(err.value) == f"level {depth} balls do not cover the space (missing {missing})"

    def test_empty_levels_rejected(self):
        with pytest.raises(StructuralError):
            CoverHierarchy(grid_space(3), [])

    def test_level_without_centers_rejected(self):
        with pytest.raises(StructuralError, match="level 1 has no centers"):
            CoverHierarchy(grid_space(3), [CoverLevel(0.5, ())])

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

    def test_levels_past_two_to_the_1023(self):
        # 2.0**1030 overflows; the level weight 2**-1030 / n does not.
        space = FiniteMetricSpace(["a", "b"], np.array([[0.0, 1e-310], [1e-310, 0.0]]))
        measure, hier = covering_measure(space)
        assert hier.depth == 1030
        assert (measure.values > 0).all()
        bound = positivity_lower_bound(hier, 1e-310)
        assert bound.value > 0 and bound.level == 1030 and not bound.truncated

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

    def test_capped_at_the_deepest_buildable_level(self):
        # 5e-324 is 2**-1074, whose level is 1074; level 1073 is the last
        # whose packing radius is positive.
        s = FiniteMetricSpace(["a", "b"], [[0.0, 5e-324], [5e-324, 0.0]])
        assert default_depth(s) == 1073
        _, hier = covering_measure(s)
        assert hier.depth == 1073


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
        with pytest.raises(ValueError):
            covering_measure(grid_space(3), depth=True)

    def test_depth_past_the_float_range_fails_before_building(self, monkeypatch):
        # Level 1074 would pack at 2**-1075, which is 0.0: no level is built.
        scans = []
        monkeypatch.setattr(covering, "_disjoint_scan", lambda *args: scans.append(args))
        with pytest.raises(ValueError, match=r"depth must be at most 1073 .*, got 1074$"):
            covering_measure(grid_space(3), depth=1074)
        assert scans == []

    def test_each_run_of_levels_is_checked_once(self, monkeypatch):
        # The hierarchy's check is the only cover check on this path, and
        # grid9's three levels have three different center lists.
        calls, check = [], covering._uncovered
        monkeypatch.setattr(covering, "_uncovered", lambda *args: calls.append(args) or check(*args))
        _, hier = covering_measure(grid_space(9))
        assert len(calls) == hier.depth == 3

    def test_levels_past_the_default_depth_are_checked_once(self, monkeypatch):
        """At depth 1073 a 96-point planar space's deepest levels all share
        one center list: the cover is checked once per run of equal
        consecutive lists, at the run's smallest radius, not once a level."""
        dist = cloud_metric(np.random.default_rng(96), 96)
        space = FiniteMetricSpace([f"s{i}" for i in range(96)], dist / dist.max())
        calls, check = [], covering._uncovered
        monkeypatch.setattr(covering, "_uncovered", lambda *args: calls.append(args) or check(*args))
        _, hier = covering_measure(space, depth=1073)
        runs = [d for d in range(1, 1074) if d == 1073 or hier.levels[d].centers != hier.levels[d - 1].centers]
        assert len(runs) == 6 and runs[-2] < default_depth(space)
        assert [radius for _, _, radius in calls] == [math.ldexp(1.0, -d) for d in runs]

    @pytest.mark.parametrize("family", ["planar", "grid"])
    def test_peak_memory_copies_no_float_matrix(self, family):
        """Each level's scan of every point compares the matrix in place,
        and the cover check reads its centers' rows in blocks of at most
        _BLOCK_CELLS cells, so the build holds boolean masks, never a float
        copy: 1.29 MB planar and 1.26 MB grid at n=1000.  Gathering the
        scanned points' float rows on every level peaked at 10.1 MB."""
        n = 1000
        if family == "grid":
            space = grid_space(n)
        else:
            d = cloud_metric(np.random.default_rng(5), n)
            space = FiniteMetricSpace([f"p{i}" for i in range(n)], d / d.max())
        tracemalloc.start()
        try:
            _, hier = covering_measure(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hier.levels[-1].size == n
        assert peak <= 3 * n * n + _BLOCK_CELLS * 8

    def test_twin_classes_hold_one_mask(self):
        """Below the least positive distance the packing is the ordinary
        scan: it compares the matrix in place into one n x n boolean mask
        and packs its rows to n/8 bytes each, and the mask is freed before
        the packed rows are copied to bytes, so it holds the mask and one
        packed copy: 1.13 MB at n=1000.  Keeping the mask alive through the
        copy peaked at 1.25 MB, and gathering every first twin's row and
        comparing whole masks at 3.0 MB."""
        n = 1000
        coords = np.repeat(np.arange(n // 2), 2) / n
        space = FiniteMetricSpace([f"x{i}" for i in range(n)], np.abs(coords[:, None] - coords[None, :]))
        tracemalloc.start()
        try:
            kept = max_packing(space, 0.25 / n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == space.labels[::2]
        assert peak <= n * n * 9 // 8 + 16_384

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
