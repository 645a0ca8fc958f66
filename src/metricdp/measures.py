"""Nonnegative weighted measures on finite metric spaces.

Weights are raw nonnegative reals, not forced to sum to 1: the exponential
mechanism self-normalizes, so only proportions matter there, and the
calibration path divides by ``total_mass`` itself.  Weights are a vector
in label order; label-keyed weights belong to the file format
(``formats.measure_from_doc``).  Zero-weight points are legal; they simply
make the positivity modulus 0 at small radii, which downstream calibration
reports as an error instead of silently producing an infinite temperature.
Every ball mass, here and in the audits, is ``_mass_inside``: a sum along each
row in numpy's pairwise order, that of ``total_mass``, with no BLAS call.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .spaces import _BLOCK_CELLS, FiniteMetricSpace


class DiscreteMeasure:
    """Nonnegative weights on the points of a finite metric space, a vector
    in label order.  Immutable; ``total_mass`` is cached at build time."""

    __slots__ = ("space", "values", "total_mass")

    def __init__(self, space: FiniteMetricSpace, weights):
        self.space = space
        vals = np.array(weights, dtype=float)
        if vals.shape != (len(space),):
            raise StructuralError(
                f"weight vector length {vals.shape} does not match "
                f"{len(space)} points"
            )
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

    def as_dict(self) -> dict:
        return {lab: float(w) for lab, w in zip(self.space.labels, self.values)}

    def modulus(self, radius) -> float:
        """Uniform-positivity modulus: the smallest closed-ball mass.

        min over every center y in the space of the mass of ball(y, radius).
        A full-support measure has a positive modulus at every radius >= 0;
        a zero-weight point drives it to 0 once radius is small enough.
        """
        return float(self.ball_masses(radius).min())

    def ball_masses(self, radius) -> np.ndarray:
        """Mass of the closed ``radius``-ball around every point, in label
        order; a ball holding every point weighs exactly ``total_mass``."""
        if not radius >= 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        return _mass_inside(self.space.dist, radius, self.values)


def _mass_inside(rows, radius, weights) -> np.ndarray:
    """Each distance row's mass inside its closed ``radius``-ball, zeros
    outside it summed in too; ``weights`` is one row per row of ``rows``,
    or one row for all of them.  Blocks of at most ``_BLOCK_CELLS`` cells
    are compared and summed at a time, so no full-size copy is made."""
    masses, step = np.empty(len(rows)), max(1, _BLOCK_CELLS // rows.shape[1])
    for r0 in range(0, len(rows), step):
        block = slice(r0, r0 + step)
        w = weights if weights.ndim == 1 else weights[block]
        np.where(rows[block] <= radius, w, 0.0).sum(axis=1, out=masses[block])
    return masses


def uniform_measure(space: FiniteMetricSpace) -> DiscreteMeasure:
    """The probability measure giving every point weight 1/n."""
    n = len(space)
    return DiscreteMeasure(space, np.full(n, 1.0 / n))
