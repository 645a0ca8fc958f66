"""The conventional exponential mechanism and its closed-form bounds.

Given a Lipschitz query f between finite metric spaces and a base measure
on the output space, each input x induces the distribution with weight
proportional to base_weight(y) * exp(-beta * output_dist(f(x), y)).
Exact distributions, deterministic seeded sampling, the 2*C*beta privacy
bound, and the temperature calibration that turns a positivity modulus
into a (gamma, delta) utility guarantee all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ieee import _logs
from .errors import (
    DegenerateMeasureError,
    NotUniformlyPositiveError,
    StructuralError,
)
from .measures import DiscreteMeasure
from .spaces import FiniteMetricSpace, LipschitzMap, _image_rows

# Row sums of a mechanism table must match 1 to this absolute slack.
ROW_SUM_TOL = 1e-9

# Most draws one ``sample_many`` call makes.  Its working set is about 32
# bytes a draw before any report is written (320 MB at the cap).
MAX_DRAWS = 10**7


@dataclass(frozen=True)
class ExpMechParams:
    """Everything that pins down one exponential mechanism.

    ``base`` lives on the query's codomain; ``beta`` >= 0 is the
    concentration temperature (0 reproduces the normalized base,
    ignoring the input entirely).
    """

    base: DiscreteMeasure
    beta: float
    query: LipschitzMap

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.base.total_mass <= 0:
            raise DegenerateMeasureError("base measure has zero total mass")
        if self.base.space != self.query.codomain:
            raise StructuralError("base measure must live on the query's codomain")

    @property
    def input_space(self) -> FiniteMetricSpace:
        return self.query.domain

    @property
    def output_space(self) -> FiniteMetricSpace:
        return self.query.codomain


def distribution(params: ExpMechParams, x) -> np.ndarray:
    """Exact output distribution for input ``x``, over output labels in
    label order: the one-row case of :func:`tabulate`.

    The largest exponent over the base's support is subtracted before
    exponentiating, so calibrated betas (which grow like log(1/delta))
    cannot underflow the normalizer.
    """
    return _rows(params, params.query.images[[params.input_space.index_of(x)]])[0]


def _rows(params: ExpMechParams, images) -> np.ndarray:
    """Exact output distributions, one row per codomain index in ``images``."""
    # Unsupported outputs get the exponent -inf, so they weigh exactly 0
    # however close they lie.  ExpMechParams guarantees positive total
    # mass, so every row keeps exp(0) at a supported point and its total
    # is positive.
    support = params.base.values > 0
    exponents = np.where(support, -params.beta * _image_rows(params.output_space, images), -np.inf)
    shift = exponents.max(axis=1)
    weights = params.base.values * np.exp(exponents - shift[:, None])
    return weights / weights.sum(axis=1)[:, None]


class MechanismTable:
    """One exact output distribution per input point.

    ``rows`` is a matrix with one row per input and one column per output,
    in label order.  Rows are validated on construction: entrywise
    nonnegative and summing to 1 within ROW_SUM_TOL.  This is both the
    audit subject and the interchange object for externally produced
    mechanisms.
    """

    __slots__ = ("input_space", "output_space", "probs")

    def __init__(self, input_space: FiniteMetricSpace, output_space: FiniteMetricSpace, rows):
        mat = np.asarray(rows, dtype=float)
        if mat.shape != (len(input_space), len(output_space)):
            raise StructuralError(
                f"row matrix shape {mat.shape} does not match "
                f"{len(input_space)}x{len(output_space)} spaces"
            )
        if not np.isfinite(mat).all():
            raise StructuralError("row entries must be finite")
        if (mat < 0).any():
            raise StructuralError("row entries must be nonnegative")
        sums = mat.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise StructuralError(
                f"row for input {input_space.labels[k]!r} sums to {float(sums[k])}, not 1"
            )
        mat = mat.copy()
        mat.flags.writeable = False
        self.input_space = input_space
        self.output_space = output_space
        self.probs = mat

    def row(self, x) -> np.ndarray:
        return self.probs[self.input_space.index_of(x)]

    @property
    def logs(self) -> np.ndarray:
        """``_ieee._logs(probs)``, computed afresh on each read and not kept."""
        return _logs(self.probs)

    def __repr__(self):
        return f"MechanismTable({len(self.input_space)}x{len(self.output_space)})"


def tabulate(params: ExpMechParams) -> MechanismTable:
    """Materialize the mechanism as a full row-stochastic table.

    Row x equals ``distribution(params, x)`` bit for bit: both run the
    same kernel, here for all rows at once.  The kernel reads the
    codomain's rows by the one in-place rule, ``spaces._image_rows``: an
    identity map's are the matrix itself, with no gathered copy.
    """
    rows = _rows(params, params.query.images)
    return MechanismTable(params.input_space, params.output_space, rows)


def sample_many(params: ExpMechParams, x, seed: int, count: int) -> list:
    """``count`` labels drawn for ``x`` by inverse CDF from a PCG64 generator
    seeded with ``seed``; a smaller count draws a prefix of the same labels.

    Only labels of positive probability are drawn: the CDF runs over the
    support, whose sums are those of the full CDF, and a draw past its last
    sum takes the last supported label.  A count above ``MAX_DRAWS`` raises
    ValueError before anything is allocated."""
    if isinstance(count, bool) or not (isinstance(count, int) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > MAX_DRAWS:
        raise ValueError(f"count must be at most {MAX_DRAWS} (MAX_DRAWS), got {count}")
    probs = distribution(params, x)
    support = np.flatnonzero(probs)
    cum = np.cumsum(probs[support])
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = support[np.minimum(np.searchsorted(cum, u, side="left"), len(cum) - 1)]
    labels = params.output_space.labels
    return [labels[i] for i in idx.tolist()]


def calibrate_beta(gamma, delta, modulus) -> float:
    """Temperature that guarantees mass >= 1 - delta within radius gamma.

    ``modulus`` is the smallest (gamma/2)-ball mass of the *probability*
    base measure.  Returns max(0, (2/gamma) * ln(1/(delta*modulus))): once
    delta*modulus >= 1 the raw base already meets the target and beta 0
    suffices (a negative temperature would invert preferences).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not modulus > 0:
        raise NotUniformlyPositiveError(
            f"base measure is not uniformly positive at radius gamma/2 "
            f"(modulus {modulus}); no finite temperature can meet the target"
        )
    product = delta * modulus
    if product >= 1.0:
        return 0.0
    if product > 0.0 and 1.0 / product < math.inf:
        beta = (2.0 / gamma) * math.log(1.0 / product)
    else:  # past the float range, ln(1/delta) + ln(1/modulus) stays finite
        beta = (2.0 / gamma) * -(math.log(delta) + math.log(modulus))
    if not math.isfinite(2.0 * beta):  # the privacy level 2 * beta, not just beta
        raise ValueError(f"gamma {gamma!r} is too small: 2 * beta is not a finite double")
    return beta


def privacy_bound(beta, lipschitz_c) -> float:
    """Closed-form privacy level of the mechanism: 2 * C * beta.

    Holds for every base measure; a constant query (C = 0) leaks nothing
    at any temperature, and at beta = 0 the mechanism ignores its input, so
    either zero gives 0.0, even against an infinite C.
    """
    if not (beta >= 0 and lipschitz_c >= 0):
        raise ValueError("beta and the Lipschitz constant must be nonnegative")
    return 0.0 if beta == 0 or lipschitz_c == 0 else 2.0 * lipschitz_c * beta


@dataclass(frozen=True)
class TradeoffBound:
    """Constructive upper bound on the achievable privacy level at a
    utility target, with the calibration that realizes it."""

    epsilon: float
    beta: float
    modulus: float


def tradeoff_upper_bound(base: DiscreteMeasure, gamma, delta) -> TradeoffBound:
    """Best privacy level this base certifies at the (gamma, delta) target.

    Normalizes the base (the guarantee is stated for probability
    measures), reads off the modulus at gamma/2, calibrates beta, and
    applies the Lipschitz-1 privacy bound epsilon = 2 * beta.
    """
    # Checked here because the modulus must not see a negative radius.
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if base.total_mass <= 0:
        raise DegenerateMeasureError("base measure has zero total mass")
    modulus = base.modulus(gamma / 2.0) / base.total_mass
    beta = calibrate_beta(gamma, delta, modulus)
    return TradeoffBound(epsilon=privacy_bound(beta, 1.0), beta=beta, modulus=modulus)


def min_database_size(eps_target, gamma, delta, modulus) -> int:
    """Smallest database size meeting a per-record budget ``eps_target``.

    Under the model where query sensitivity scales as 1/N, a database of
    N records turns a per-record budget eps into an effective budget
    N * eps, so N must be at least (tradeoff epsilon) / eps_target.
    Returns the exact ratio of the two floats rounded up, never below 1.
    """
    if not eps_target > 0:
        raise ValueError(f"eps_target must be positive, got {eps_target}")
    eps_star = privacy_bound(calibrate_beta(gamma, delta, modulus), 1.0)
    if eps_target == math.inf:
        return 1
    from fractions import Fraction  # here only, so no CLI start-up imports it

    return max(1, math.ceil(Fraction(eps_star) / Fraction(eps_target)))
