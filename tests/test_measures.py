import math

import numpy as np
import pytest

from conftest import random_measure, random_space
from metricdp import (
    DegenerateMeasureError,
    DiscreteMeasure,
    StructuralError,
    discrete_space,
    grid_space,
    tradeoff_upper_bound,
    uniform_measure,
)


class TestConstruction:
    def test_negative_weight_rejected(self):
        with pytest.raises(StructuralError, match="'0.5'"):
            DiscreteMeasure(grid_space(3), [1.0, -0.1, 1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(StructuralError):
            DiscreteMeasure(grid_space(3), [1.0, np.inf, 1.0])

    def test_wrong_length_vector(self):
        with pytest.raises(StructuralError):
            DiscreteMeasure(grid_space(3), [1.0, 2.0])

    def test_values_are_frozen(self):
        m = uniform_measure(grid_space(3))
        with pytest.raises(ValueError):
            m.values[0] = 5.0


class TestModulus:
    def test_uniform_x3_at_half(self):
        # balls around the endpoints hold two of the three points
        m = uniform_measure(grid_space(3))
        assert m.modulus(0.5) == pytest.approx(2.0 / 3.0)

    def test_uniform_x3_at_quarter(self):
        # every ball is a singleton
        m = uniform_measure(grid_space(3))
        assert m.modulus(0.25) == pytest.approx(1.0 / 3.0)

    def test_radius_at_least_diameter_gives_total(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_space(rng, int(rng.integers(2, 9)))
            m = random_measure(rng, s)
            assert m.modulus(s.diameter()) == pytest.approx(m.total_mass)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            uniform_measure(grid_space(3)).modulus(-0.5)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative, got nan"):
            uniform_measure(grid_space(3)).ball_masses(math.nan)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 10)))
            m = random_measure(rng, s)
            radii = np.sort(rng.uniform(0, 1.2, size=6))
            values = [m.modulus(r) for r in radii]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_full_support_is_positive_at_every_radius(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 10)))
            m = random_measure(rng, s, low=0.05)
            assert m.modulus(0.0) > 0.0

    def test_zero_weight_point_kills_small_radii(self):
        m = DiscreteMeasure(grid_space(3), [0.0, 1.0, 1.0])
        assert m.modulus(0.25) == 0.0
        assert m.modulus(0.5) > 0.0

    def test_ball_masses_in_label_order(self):
        m = DiscreteMeasure(grid_space(3), [1.0, 2.0, 4.0])
        assert np.allclose(m.ball_masses(0.5), [3.0, 7.0, 6.0])


class TestNormalize:
    """Calibration divides a base by its total mass; the measure itself
    keeps raw weights."""

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            tradeoff_upper_bound(DiscreteMeasure(grid_space(3), [0.0, 0.0, 0.0]), 0.5, 0.1)

    def test_modulus_scales_with_total_mass(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            s = random_space(rng, int(rng.integers(2, 10)))
            m = random_measure(rng, s)
            r = float(rng.uniform(0, 1.1))
            expected = m.modulus(r) / m.total_mass
            scaled = DiscreteMeasure(s, m.values / m.total_mass)
            assert scaled.modulus(r) == pytest.approx(expected, abs=1e-12)


def test_uniform_measure_weights():
    m = uniform_measure(discrete_space(5))
    assert np.allclose(m.values, 0.2)
    assert m.total_mass == pytest.approx(1.0)
