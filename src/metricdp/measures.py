"""Nonnegative weighted measures on finite metric spaces.

Weights are raw nonnegative reals, not forced to sum to 1: the exponential
mechanism self-normalizes, so only proportions matter there.  ``normalize``
is provided for the calibration path, which does need a probability
measure.  Zero-weight points are legal; they simply make the positivity
modulus 0 at small radii, which downstream calibration reports as an
error instead of silently producing an infinite temperature.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMeasureError, StructuralError, UnknownLabelError
from .spaces import FiniteMetricSpace


class DiscreteMeasure:
    """Nonnegative weights on the points of a finite metric space.

    Immutable after construction.  ``total_mass`` is cached at build time.
    """

    __slots__ = ("space", "values", "total_mass")

    def __init__(self, space: FiniteMetricSpace, weights):
        self.space = space
        if isinstance(weights, dict):
            unknown = set(weights) - set(space.labels)
            if unknown:
                raise UnknownLabelError(
                    f"weights name labels outside the space: {sorted(map(repr, unknown))}"
                )
            vals = np.array([float(weights.get(lab, 0.0)) for lab in space.labels])
        else:
            vals = np.asarray(weights, dtype=float)
            if vals.shape != (len(space),):
                raise StructuralError(
                    f"weight vector length {vals.shape} does not match "
                    f"{len(space)} points"
                )
            vals = vals.copy()
        if not np.isfinite(vals).all():
            raise StructuralError("weights must be finite")
        if (vals < 0).any():
            bad = space.labels[int(np.argmin(vals))]
            raise StructuralError(f"negative weight at label {bad!r}")
        vals.flags.writeable = False
        self.values = vals
        self.total_mass = float(vals.sum())

    def __repr__(self):
        return f"DiscreteMeasure({len(self.space)} points, total_mass={self.total_mass:g})"

    def weight_of(self, label) -> float:
        return float(self.values[self.space.index_of(label)])

    def as_dict(self) -> dict:
        return {lab: float(w) for lab, w in zip(self.space.labels, self.values)}

    def mass_of(self, labels) -> float:
        """Total weight of a set of labels (each must belong to the space)."""
        idx = [self.space.index_of(lab) for lab in set(labels)]
        return float(self.values[idx].sum()) if idx else 0.0

    def modulus(self, radius) -> float:
        """Uniform-positivity modulus: the smallest closed-ball mass.

        min over every center y in the space of the mass of ball(y, radius).
        A full-support measure has a positive modulus at every radius >= 0;
        a zero-weight point drives it to 0 once radius is small enough.
        """
        masses = self.ball_masses(radius)
        return float(masses.min())

    def ball_masses(self, radius) -> np.ndarray:
        """Mass of the closed ``radius``-ball around every point, in label
        order."""
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        inside = self.space.dist <= radius
        return inside @ self.values

    def normalize(self) -> "DiscreteMeasure":
        """Same proportions, total mass 1."""
        if self.total_mass <= 0.0:
            raise DegenerateMeasureError("cannot normalize a zero-mass measure")
        return DiscreteMeasure(self.space, self.values / self.total_mass)


def uniform_measure(space: FiniteMetricSpace) -> DiscreteMeasure:
    """The probability measure giving every point weight 1/n."""
    n = len(space)
    return DiscreteMeasure(space, np.full(n, 1.0 / n))
