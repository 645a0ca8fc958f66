"""Exact privacy, utility, and impossibility audits of mechanism tables.

Everything here works on the finite table itself, so the reported numbers
are exact maxima/minima, not statistical estimates.  The privacy audit
only needs singleton output sets: for nonnegative vectors the ratio of
set sums never exceeds the largest entrywise ratio (mediant inequality),
so the singleton maximum already dominates every output set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import _disjoint_scan
from .errors import DomainError, StructuralError
from .mechanisms import MechanismTable
from .spaces import LipschitzMap

# Probabilities at or below this are treated as exact zeros in log-ratio
# audits; a set both rows give zero mass imposes no constraint at all.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class PrivacyAuditReport:
    """Exact privacy level of a table: the smallest epsilon it satisfies.

    ``epsilon_max`` is inf when some output has positive mass under one
    input and zero under another (no finite epsilon works), or when two
    zero-distance inputs have different rows.  ``witness`` is the first
    (x, z, y) triple in label order attaining the maximum, None when
    there is no constraint at all (single-input spaces).
    ``per_pair_max`` is the optional matrix of per-(x, z) maxima in label
    order: 0 where a pair constrains nothing, inf where zero-distance
    rows differ.  Asking for it changes neither ``epsilon_max`` nor
    ``witness``.
    """

    epsilon_max: float
    witness: tuple | None
    per_pair_max: np.ndarray | None = None


@dataclass(frozen=True)
class UtilityAuditReport:
    """Worst-case in-ball mass at radius ``gamma``.

    The mechanism achieves the (gamma, delta) target exactly when
    1 - min_mass <= delta.
    """

    gamma: float
    min_mass: float
    worst_input: object
    per_input_mass: np.ndarray


def _logs(probs) -> np.ndarray:
    """Entrywise math.log (np.log can differ by an ulp, and the audits must
    be reproducible to the bit), with -inf at or below PROB_FLOOR."""
    probs = np.asarray(probs, dtype=float)
    floored = probs <= PROB_FLOOR
    logs = np.array(list(map(math.log, np.where(floored, 1.0, probs).ravel().tolist())))
    logs[floored.ravel()] = -math.inf
    return logs.reshape(probs.shape)


def audit_privacy(mech: MechanismTable, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Smallest epsilon the table satisfies, by exhaustive enumeration.

    Maximizes (ln rows[x][y] - ln rows[z][y]) / dist(x, z) over ordered
    input pairs and single output labels.  A pair at distance zero gives
    an infinite ratio at every output where its rows differ and none
    elsewhere.  Without the per-pair matrix the audit stops after the
    first row whose maximum is infinite.
    """
    space = mech.input_space
    labels = space.labels
    out_labels = mech.output_space.labels
    n = len(labels)
    probs = mech.probs
    per_pair = np.zeros((n, n)) if include_per_pair else None
    logs = _logs(probs)
    floored = logs == -math.inf
    # Each point is its own twin.  Twins get the placeholder distance 1.0,
    # and the twin mask below overwrites every ratio they touch.
    zero = space.dist == 0.0
    np.fill_diagonal(zero, True)
    dist = np.where(zero, 1.0, space.dist)

    eps_max = 0.0
    witness = None
    # A near-zero distance overflows its quotients to inf, the exact value;
    # an entry floored in both rows gives nan until the masks overwrite it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            # ratio[j, k] = (ln probs[i, k] - ln probs[j, k]) / dist[i, j]:
            # inf where the denominator's entry is floored (a distance just
            # below zero would flip it), and never binding (-inf) where the
            # numerator's is.  Twins are inf wherever the rows differ.
            ratio = (logs[i] - logs) / dist[i][:, None]
            ratio[floored] = math.inf
            ratio[:, floored[i]] = -math.inf
            twins = zero[i]
            ratio[twins] = np.where(probs[twins] != probs[i], math.inf, -math.inf)
            best_k = ratio.argmax(axis=1)
            pair_max = ratio[np.arange(n), best_k]
            # A pair whose every ratio is -inf constrains nothing.
            rows = np.flatnonzero(pair_max > -math.inf)
            if per_pair is not None:
                per_pair[i, rows] = pair_max[rows]
            if rows.size:
                j = rows[np.argmax(pair_max[rows])]
                if witness is None or pair_max[j] > eps_max:
                    eps_max = float(pair_max[j])
                    witness = (labels[i], labels[int(j)], out_labels[int(best_k[j])])
            if eps_max == math.inf and per_pair is None:
                break
    return PrivacyAuditReport(max(eps_max, 0.0), witness, per_pair)


def _require_query_spaces(mech: MechanismTable, query: LipschitzMap) -> None:
    """The query must map the table's input space to its output space."""
    if query.codomain != mech.output_space:
        raise StructuralError("query codomain does not match the table's output space")
    if query.domain != mech.input_space:
        raise StructuralError("query domain does not match the table's input space")


def audit_utility(mech: MechanismTable, query: LipschitzMap, gamma) -> UtilityAuditReport:
    """Per-input mass inside the closed gamma-ball around the true image."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _require_query_spaces(mech, query)
    inside = mech.output_space.dist[query.images] <= gamma
    masses = np.array([row[mask].sum() for row, mask in zip(mech.probs, inside)])
    worst = int(np.argmin(masses))
    return UtilityAuditReport(
        gamma=float(gamma),
        min_mass=float(masses[worst]),
        worst_input=mech.input_space.labels[worst],
        per_input_mass=masses,
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    """Privacy floor extracted from disjoint well-served balls.

    ``eps_lower``: no epsilon below this is consistent with the table.
    ``witness_index`` indexes into the supplied centers list; the first
    center is the reference input, so the witness is always >= 1.
    ``ball_mass_self[i]`` / ``ball_mass_ref[i]`` are the i-th ball's mass
    under its own center's row and under the reference row.
    """

    eps_lower: float
    witness_index: int
    ball_mass_self: tuple
    ball_mass_ref: tuple


def impossibility_lower_bound(
    mech: MechanismTable,
    query: LipschitzMap,
    centers,
    radius,
    utility_threshold: float = 0.5,
) -> ImpossibilityReport:
    """Lower-bound the privacy level of any table that serves each of k
    disjoint target balls with mass above ``utility_threshold``.

    With reference input x1 = centers[0], the reference row spreads at
    most total mass 1 over the disjoint balls, so some ball B_i gets
    little of it while x_i's own row gives it more than the threshold;
    the log-ratio over dist(x_i, x1) is then forced up.  With k balls the
    pigeonhole gives at least ln(k * threshold) / diameter; the returned
    value is the exact per-instance maximum, normalized by the actual
    pair distance rather than the diameter.

    ``utility_threshold`` defaults to the classical 1/2.  Raising or
    lowering it rescales the guaranteed floor to ln(k * threshold); the
    check and the returned maximum are otherwise unchanged.

    Raises StructuralError if ``query`` does not map the table's input
    space to its output space, and DomainError if the balls are not
    pairwise disjoint or some center's ball mass is not above the
    threshold (the hypothesis of the argument, validated rather than
    assumed).
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 < utility_threshold < 1:
        raise ValueError(f"utility threshold must be in (0, 1), got {utility_threshold}")
    centers = list(centers)
    if len(centers) < 2:
        raise ValueError("need at least two centers (one reference, one challenger)")
    if len(set(centers)) != len(centers):
        raise DomainError("centers must be distinct")
    _require_query_spaces(mech, query)
    space = mech.input_space
    idx = [space.index_of(c) for c in centers]
    balls = mech.output_space.dist[query.images[idx]] <= radius
    # shared[a, b] counts the points balls a and b have in common; the
    # first overlapping pair with a < b in row-major order is reported.
    shared = balls.astype(float) @ balls.T.astype(float)
    overlaps = np.argwhere(np.triu(shared, 1) > 0)
    if overlaps.size:
        a, b = overlaps[0]
        raise DomainError(
            f"target balls around {centers[a]!r} and {centers[b]!r} overlap; "
            "the disjointness hypothesis fails"
        )

    rows = mech.probs[idx]
    mass_self = tuple(float(rows[i][balls[i]].sum()) for i in range(len(centers)))
    mass_ref = tuple(float(rows[0][balls[i]].sum()) for i in range(len(centers)))
    for c, m in zip(centers, mass_self):
        if not m > utility_threshold:
            raise DomainError(
                f"utility hypothesis violated: input {c!r} gives its own ball "
                f"mass {m:g}, not above {utility_threshold:g}"
            )

    rho = space.dist[idx[1:], idx[0]]
    if (rho <= 0.0).any():
        i = int(np.argmax(rho <= 0.0)) + 1
        raise DomainError(
            f"centers {centers[i]!r} and {centers[0]!r} are at input distance 0 "
            "yet target disjoint balls; the table cannot be a Lipschitz image"
        )
    # Own-ball masses exceed the threshold, so their logs are finite as they
    # are; a near-zero rho overflows to the exact infinity.
    with np.errstate(over="ignore"):
        values = (np.array(list(map(math.log, mass_self[1:]))) - _logs(mass_ref[1:])) / rho
    best_i = int(np.argmax(values)) + 1
    return ImpossibilityReport(
        eps_lower=float(values[best_i - 1]),
        witness_index=best_i,
        ball_mass_self=mass_self,
        ball_mass_ref=mass_ref,
    )


def propose_centers(query: LipschitzMap, radius) -> list:
    """Greedy input labels whose image balls form a disjoint family.

    Convenience feeder for :func:`impossibility_lower_bound`: scans the
    domain in label order and keeps an input iff the closed ``radius``-ball
    around its image avoids every ball kept so far.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    labels = query.domain.labels
    return [labels[p] for p in _disjoint_scan(query.codomain, query.images, radius)]
