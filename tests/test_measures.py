import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metricdp
from conftest import assert_near_fsum, mass_inside_loop, random_measure, random_space
from metricdp import (
    DegenerateMeasureError,
    DiscreteMeasure,
    MechanismTable,
    StructuralError,
    audit_utility,
    discrete_space,
    grid_space,
    identity_map,
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
        # Every ball holds every point and is summed in the order of
        # total_mass, so the two agree to the bit.
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = random_space(rng, int(rng.integers(2, 41)))
            m = random_measure(rng, s)
            assert m.modulus(s.diameter()) == m.total_mass

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

    def test_a_ball_holding_every_point_normalizes_to_one(self):
        # Six weights 0.1 sum to 0.6000000000000001 in one order and to
        # total_mass 0.6 in another; the modulus is a probability.
        base = DiscreteMeasure(grid_space(6), [0.1] * 6)
        assert tradeoff_upper_bound(base, 4.0, 0.1).modulus == 1.0


MASS_RADII = (0.001, 0.01, 0.1, 0.5, 1.0)
# seeded_mass_digest() on any IEEE host with any BLAS thread count.
MASS_DIGEST = "31ffd6ade5b8b8fd26b4fe971265e7471ff61db86ccfb13b2542d420fff82440"


def seeded_mass_digest() -> str:
    """sha256 of the ball masses of seeded weights on grid_space(1500) at
    five radii, then of audit_utility's masses on a seeded 200x200 table."""
    rng = np.random.default_rng(1500)
    measure = DiscreteMeasure(grid_space(1500), rng.uniform(0.1, 2.0, size=1500))
    masses = [measure.ball_masses(r) for r in MASS_RADII]
    s = grid_space(200)
    probs = rng.uniform(size=(200, 200))
    table = MechanismTable(s, s, probs / probs.sum(axis=1, keepdims=True))
    masses += [audit_utility(table, identity_map(s), r).per_input_mass for r in MASS_RADII]
    return hashlib.sha256(np.concatenate(masses).astype("<f8").tobytes()).hexdigest()


class TestOneSum:
    """Every ball mass is one numpy sum along the row, in the order of the
    1-D oracle and of total_mass; none goes through BLAS."""

    def test_ball_masses_equal_the_row_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            s = random_space(rng, int(rng.integers(2, 61)))
            m = random_measure(rng, s)
            for r in rng.uniform(0.0, 1.2, size=4):
                inside = s.dist <= r
                rows = np.broadcast_to(m.values, inside.shape)
                got = m.ball_masses(r)
                assert got.tobytes() == mass_inside_loop(rows, inside).tobytes()
                assert_near_fsum(got, rows, inside)

    def test_blas_threads_do_not_move_the_masses(self):
        """The same bytes under one and two OpenBLAS threads; a matrix
        product differs between them at this size."""
        here = Path(__file__).resolve().parent
        src = str(Path(metricdp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, str(here), os.environ.get("PYTHONPATH")]))
        code = "from test_measures import seeded_mass_digest; print(seeded_mass_digest())"
        digests = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": t}).stdout
            for t in ("1", "2")
        ]
        assert digests[0] == digests[1] == MASS_DIGEST + "\n"


class TestMassDigest:
    """Pinned: a host whose summation order or arithmetic differs anywhere
    changes the digest.  CI runs this class on macOS too."""

    def test_golden_digest(self):
        assert seeded_mass_digest() == MASS_DIGEST


def test_uniform_measure_weights():
    m = uniform_measure(discrete_space(5))
    assert np.allclose(m.values, 0.2)
    assert m.total_mass == pytest.approx(1.0)
